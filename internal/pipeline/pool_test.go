package pipeline

import (
	"bytes"
	"math"
	"runtime"
	"testing"

	"repro/internal/emu"
	"repro/internal/minigraph"
	"repro/internal/obs"
	"repro/internal/slack"
	"repro/internal/workload"
)

// TestMachineReuseDeterministic is the pooling oracle: repeated runs of
// the same scenario — where every run after the first draws a reused
// machine from the pool — must produce identical stats and byte-identical
// pipetraces. A divergence means reset missed a field or a stale slot
// value leaked through makeUop's trimmed re-initialization.
func TestMachineReuseDeterministic(t *testing.T) {
	w := workload.Find("media.dct8")
	if w == nil {
		t.Fatal("workload media.dct8 not found")
	}
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

	for _, k := range []SchedKind{SchedEvent, SchedScan} {
		t.Run(k.String(), func(t *testing.T) {
			var first *Stats
			var firstTrace []byte
			// Sequential runs reuse the pooled machine; three repeats cover
			// fresh → pooled → pooled-again.
			for i := 0; i < 3; i++ {
				var buf bytes.Buffer
				watch := &obs.Observer{Trace: obs.NewPipetrace(&buf)}
				st, err := RunSched(p, res.Trace, Reduced(), MGConfig{Selection: sel}, nil, watch, k)
				if err != nil {
					t.Fatal(err)
				}
				if err := watch.Trace.Flush(); err != nil {
					t.Fatal(err)
				}
				if i == 0 {
					first, firstTrace = st, buf.Bytes()
					continue
				}
				if *st != *first {
					t.Errorf("run %d stats diverge from run 0:\n run0 %+v\n run%d %+v", i, first, i, st)
				}
				if !bytes.Equal(buf.Bytes(), firstTrace) {
					t.Errorf("run %d pipetrace diverges from run 0: first diff at byte %d",
						i, firstDiff(buf.Bytes(), firstTrace))
				}
			}
		})
	}
}

// A pooled machine must also replay identically across configurations that
// alternate (pool lookup is keyed by Config, so interleaving two configs
// exercises both pools and the per-config reset paths).
func TestMachineReuseAcrossConfigs(t *testing.T) {
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
	configs := []Config{Baseline(), Reduced()}
	var first [2]Stats
	for round := 0; round < 3; round++ {
		for ci, cfg := range configs {
			st, err := Run(p, res.Trace, cfg, MGConfig{}, nil)
			if err != nil {
				t.Fatal(err)
			}
			if round == 0 {
				first[ci] = *st
			} else if *st != first[ci] {
				t.Errorf("config %s round %d diverges:\n round0 %+v\n now    %+v",
					cfg.Name, round, first[ci], st)
			}
		}
	}
}

// TestPoolSurvivesGC: a pooled machine outlives garbage collections. After
// two runtime.GC calls, a run of a pooled config must reuse the machine it
// left in the free list, build no new one, and allocate no more than a
// steady-state run. With a sync.Pool the collections would empty the pool,
// and the run would rebuild the cache models and re-allocate its profile
// records (about 75 allocations and 1 MB here, against 4 allocations).
func TestPoolSurvivesGC(t *testing.T) {
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
	cfg := Reduced()
	cfg.Name = "pool-gc-test" // a Config, so a free list, of this test's own
	acc := slack.NewAccumulator("pool-gc-test", p.NumInstrs())
	run := func() {
		if _, err := Run(p, res.Trace, cfg, MGConfig{}, acc); err != nil {
			t.Fatal(err)
		}
	}
	pooled := func() []*machine {
		pi, ok := machinePools.Load(cfg)
		if !ok {
			return nil
		}
		mp := pi.(*machinePool)
		mp.mu.Lock()
		defer mp.mu.Unlock()
		return append([]*machine(nil), mp.free...)
	}
	steady := uint64(testing.AllocsPerRun(5, run))
	before := pooled()
	if len(before) != 1 {
		t.Fatalf("free list holds %d machines after sequential runs, want 1", len(before))
	}

	// The runtime's own post-collection cleanups can allocate while the run
	// is measured, so the check takes the fewest allocations of three
	// collect-then-run trials; a rebuilt machine would show in every one.
	fewest := uint64(math.MaxUint64)
	for trial := 0; trial < 3; trial++ {
		runtime.GC()
		runtime.GC()
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		run()
		runtime.ReadMemStats(&m1)
		fewest = min(fewest, m1.Mallocs-m0.Mallocs)
		if after := pooled(); len(after) != 1 || after[0] != before[0] {
			t.Fatalf("trial %d: the run after two GCs did not reuse the pooled machine", trial)
		}
	}
	if fewest > steady {
		t.Errorf("a run after two GCs made at least %d allocations, want at most the steady-state %d", fewest, steady)
	}

	// ReleaseMachines (core.ResetCaches) ends the pool's life: repeated
	// measurements rely on it, since a free list kept from an earlier
	// measurement would make the next one allocate less.
	ReleaseMachines()
	if n := len(pooled()); n != 0 {
		t.Fatalf("free list holds %d machines after ReleaseMachines, want 0", n)
	}
	run()
	if after := pooled(); len(after) != 1 || after[0] == before[0] {
		t.Fatal("the run after ReleaseMachines reused the released machine")
	}
}
