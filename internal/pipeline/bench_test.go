package pipeline

import (
	"testing"

	"repro/internal/emu"
	"repro/internal/minigraph"
	"repro/internal/prog"
	"repro/internal/slack"
	"repro/internal/workload"
)

func benchSetup(b *testing.B, name string) (*workloadBench, error) {
	b.Helper()
	w := workload.Find(name)
	if w == nil {
		b.Fatalf("workload %s not found", name)
	}
	p, _, _, err := w.Build("small")
	if err != nil {
		return nil, err
	}
	res, err := emu.Run(p, emu.Options{CollectTrace: true})
	if err != nil {
		return nil, err
	}
	freq := make([]int64, p.NumInstrs())
	for _, r := range res.Trace {
		freq[r.Index]++
	}
	sel := minigraph.Select(p, minigraph.Enumerate(p, minigraph.DefaultLimits()), freq, minigraph.DefaultSelectConfig())
	return &workloadBench{p: p, tr: res.Trace, sel: sel}, nil
}

type workloadBench struct {
	p   *prog.Program
	tr  []emu.Rec
	sel *minigraph.Selection
}

// BenchmarkSimulatorSingleton measures raw cycle-level simulation speed.
func BenchmarkSimulatorSingleton(b *testing.B) {
	b.ReportAllocs()
	wb, err := benchSetup(b, "media.dct8")
	if err != nil {
		b.Fatal(err)
	}
	cfg := Baseline()
	b.ResetTimer()
	var instrs int64
	for i := 0; i < b.N; i++ {
		st, err := Run(wb.p, wb.tr, cfg, MGConfig{}, nil)
		if err != nil {
			b.Fatal(err)
		}
		instrs += st.Instrs
	}
	b.ReportMetric(float64(instrs)/b.Elapsed().Seconds()/1e6, "Minstr/s")
}

// BenchmarkSimulatorMiniGraphs measures simulation speed with mini-graph
// aggregation active.
func BenchmarkSimulatorMiniGraphs(b *testing.B) {
	b.ReportAllocs()
	wb, err := benchSetup(b, "media.dct8")
	if err != nil {
		b.Fatal(err)
	}
	cfg := Reduced()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Run(wb.p, wb.tr, cfg, MGConfig{Selection: wb.sel}, nil); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSimulatorMiniGraphsScan measures the reference per-cycle scan
// scheduler (-refsched) on the same configuration, so the event scheduler's
// speedup is visible in one benchmark run.
func BenchmarkSimulatorMiniGraphsScan(b *testing.B) {
	b.ReportAllocs()
	wb, err := benchSetup(b, "media.dct8")
	if err != nil {
		b.Fatal(err)
	}
	cfg := Reduced()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := RunSched(wb.p, wb.tr, cfg, MGConfig{Selection: wb.sel}, nil, nil, SchedScan); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSimulatorProfiling measures the slack-profiling run (the most
// instrumented configuration).
func BenchmarkSimulatorProfiling(b *testing.B) {
	b.ReportAllocs()
	wb, err := benchSetup(b, "media.dct8")
	if err != nil {
		b.Fatal(err)
	}
	cfg := Reduced()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		acc := slack.NewAccumulator("bench", wb.p.NumInstrs())
		if _, err := Run(wb.p, wb.tr, cfg, MGConfig{}, acc); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSimulatorSlackDynamic measures the run-time monitor overhead.
func BenchmarkSimulatorSlackDynamic(b *testing.B) {
	b.ReportAllocs()
	wb, err := benchSetup(b, "media.dct8")
	if err != nil {
		b.Fatal(err)
	}
	cfg := Reduced()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Run(wb.p, wb.tr, cfg, MGConfig{Selection: wb.sel, Dynamic: true}, nil); err != nil {
			b.Fatal(err)
		}
	}
}
