package pipeline

import (
	"bytes"
	"reflect"
	"testing"

	"repro/internal/emu"
	"repro/internal/minigraph"
	"repro/internal/obs"
	"repro/internal/prog"
	"repro/internal/slack"
	"repro/internal/workload"
)

// schedRun executes one observed simulation under the given scheduler and
// returns the stats, the pipetrace bytes (JSONL, or the binary encoding
// when bin is set), and the sampled intervals.
func schedRun(t *testing.T, k SchedKind, p *prog.Program, tr []emu.Rec, cfg Config, mg MGConfig, bin bool) (*Stats, []byte, []obs.Interval) {
	t.Helper()
	var buf bytes.Buffer
	mk := obs.NewPipetrace
	if bin {
		mk = obs.NewBinaryPipetrace
	}
	watch := &obs.Observer{Trace: mk(&buf), Intervals: obs.NewIntervalSampler(250)}
	st, err := RunSched(p, tr, cfg, mg, nil, watch, k)
	if err != nil {
		t.Fatalf("%v scheduler: %v", k, err)
	}
	if err := watch.Trace.Flush(); err != nil {
		t.Fatal(err)
	}
	return st, buf.Bytes(), watch.Intervals.Intervals()
}

// requireSchedMatch runs one scenario under both schedulers and both trace
// encodings and fails the test unless the stats, pipetrace bytes and
// interval samples are identical — and unless the binary trace converts to
// the exact JSONL bytes the JSONL run wrote.
func requireSchedMatch(t *testing.T, p *prog.Program, tr []emu.Rec, cfg Config, mg MGConfig) {
	t.Helper()
	stE, traceE, ivsE := schedRun(t, SchedEvent, p, tr, cfg, mg, false)
	stS, traceS, ivsS := schedRun(t, SchedScan, p, tr, cfg, mg, false)
	if *stE != *stS {
		t.Errorf("stats diverge:\nevent %+v\nscan  %+v", stE, stS)
	}
	if !bytes.Equal(traceE, traceS) {
		t.Errorf("pipetraces diverge (%d vs %d bytes): first diff at byte %d",
			len(traceE), len(traceS), firstDiff(traceE, traceS))
	}
	if !reflect.DeepEqual(ivsE, ivsS) {
		t.Errorf("interval samples diverge: event %d samples, scan %d", len(ivsE), len(ivsS))
	}

	// One binary-encoded leg suffices: the JSONL legs established both
	// schedulers emit identical record streams, and the binary encoding is
	// a pure function of that stream. What needs its own check is the
	// encoding round trip — the binary trace must convert back to the
	// exact bytes the JSONL run wrote.
	stB, binTrace, ivsB := schedRun(t, SchedEvent, p, tr, cfg, mg, true)
	if *stB != *stE {
		t.Error("stats change when tracing switches to the binary encoding")
	}
	if !reflect.DeepEqual(ivsB, ivsE) {
		t.Error("interval samples change when tracing switches to the binary encoding")
	}
	var conv bytes.Buffer
	if err := obs.ConvertPipetrace(bytes.NewReader(binTrace), &conv); err != nil {
		t.Fatalf("binary trace conversion: %v", err)
	}
	if !bytes.Equal(conv.Bytes(), traceE) {
		t.Errorf("converted binary trace differs from the JSONL run: first diff at byte %d",
			firstDiff(conv.Bytes(), traceE))
	}
}

func firstDiff(a, b []byte) int {
	n := min(len(a), len(b))
	for i := 0; i < n; i++ {
		if a[i] != b[i] {
			return i
		}
	}
	return n
}

// TestSchedulerDifferential is the event-scheduler oracle: every workload
// in the small input set runs under both the event-driven scheduler and the
// reference scan scheduler (-refsched), across the singleton, mini-graph
// and Slack-Dynamic configurations, and must produce identical Stats,
// byte-identical pipetraces and identical interval samples.
func TestSchedulerDifferential(t *testing.T) {
	for _, w := range workload.All() {
		w := w
		t.Run(w.Name, func(t *testing.T) {
			t.Parallel()
			p, _, _, err := w.Build("small")
			if err != nil {
				t.Fatal(err)
			}
			res, err := emu.Run(p, emu.Options{CollectTrace: true})
			if err != nil {
				t.Fatal(err)
			}
			freq := make([]int64, p.NumInstrs())
			for _, r := range res.Trace {
				freq[r.Index]++
			}
			sel := minigraph.Select(p, minigraph.Enumerate(p, minigraph.DefaultLimits()),
				freq, minigraph.DefaultSelectConfig())

			scenarios := []struct {
				name string
				cfg  Config
				mg   MGConfig
			}{
				{"singleton", Baseline(), MGConfig{}},
				{"minigraph", Reduced(), MGConfig{Selection: sel}},
				{"slackdyn", Reduced(), MGConfig{Selection: sel, Dynamic: true}},
			}
			for _, sc := range scenarios {
				sc := sc
				t.Run(sc.name, func(t *testing.T) {
					requireSchedMatch(t, p, res.Trace, sc.cfg, sc.mg)
				})
			}
		})
	}
}

// TestSchedulerDifferentialProfiled covers the slack-profiling path: the
// profiling run drives selection, so a divergence there would silently
// change every downstream experiment. Profiles must match exactly.
func TestSchedulerDifferentialProfiled(t *testing.T) {
	w := workload.Find("comm.crc32")
	if w == nil {
		t.Fatal("workload comm.crc32 not found")
	}
	p, _, _, err := w.Build("small")
	if err != nil {
		t.Fatal(err)
	}
	res, err := emu.Run(p, emu.Options{CollectTrace: true})
	if err != nil {
		t.Fatal(err)
	}

	run := func(k SchedKind) (*Stats, *slack.Accumulator) {
		acc := slack.NewAccumulator(w.Name, p.NumInstrs())
		st, err := RunSched(p, res.Trace, Reduced(), MGConfig{}, acc, nil, k)
		if err != nil {
			t.Fatalf("%v scheduler: %v", k, err)
		}
		return st, acc
	}
	stE, accE := run(SchedEvent)
	stS, accS := run(SchedScan)
	if *stE != *stS {
		t.Errorf("profiled stats diverge:\nevent %+v\nscan  %+v", stE, stS)
	}
	// Compare the profiles through Save, which encodes NaN (unobserved
	// instructions) as a sentinel — reflect.DeepEqual would treat the NaNs
	// as unequal.
	var bufE, bufS bytes.Buffer
	if err := accE.Profile().Save(&bufE); err != nil {
		t.Fatal(err)
	}
	if err := accS.Profile().Save(&bufS); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(bufE.Bytes(), bufS.Bytes()) {
		t.Error("slack profiles diverge between schedulers")
	}
}

// TestSchedulerDefaultToggle exercises the CLI-facing switch.
func TestSchedulerDefaultToggle(t *testing.T) {
	if got := DefaultScheduler(); got != SchedEvent {
		t.Fatalf("default scheduler = %v, want %v", got, SchedEvent)
	}
	SetDefaultScheduler(SchedScan)
	if got := DefaultScheduler(); got != SchedScan {
		t.Errorf("after SetDefaultScheduler(SchedScan): %v", got)
	}
	SetDefaultScheduler(SchedEvent)
	if SchedEvent.String() != "event" || SchedScan.String() != "scan" {
		t.Errorf("String(): %q/%q", SchedEvent.String(), SchedScan.String())
	}
}
