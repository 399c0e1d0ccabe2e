package pipeline

import (
	"bytes"
	"reflect"
	"testing"

	"repro/internal/emu"
	"repro/internal/minigraph"
	"repro/internal/prog"
	"repro/internal/slack"
)

// runBothWays runs the same simulation with uop recycling enabled and
// disabled and requires bit-identical statistics. Recycling is purely an
// allocator optimization; any architectural divergence means a recycled
// uop was reused while still referenced. Singleton scenarios also run
// profiled both ways and must produce byte-identical slack profiles: the
// profiler reaches producers through slot indices, so a recycled slot
// read through a stale index would show up here.
func runBothWays(t *testing.T, label string, p *prog.Program, tr []emu.Rec, cfg Config, mg MGConfig) {
	t.Helper()
	run := func(off bool, acc *slack.Accumulator) *Stats {
		noRecycle = off
		defer func() { noRecycle = false }()
		st, err := Run(p, tr, cfg, mg, acc)
		if err != nil {
			t.Fatalf("%s (recycle off=%v, profiled=%v): %v", label, off, acc != nil, err)
		}
		return st
	}
	withRecycle, without := run(false, nil), run(true, nil)
	if !reflect.DeepEqual(*withRecycle, *without) {
		t.Errorf("%s: stats diverge with recycling:\n on: %+v\noff: %+v", label, *withRecycle, *without)
	}
	if mg.Enabled() {
		return
	}
	var saved [2]bytes.Buffer
	for i, off := range []bool{false, true} {
		acc := slack.NewAccumulator(p.Name, p.NumInstrs())
		if st := run(off, acc); !reflect.DeepEqual(*st, *withRecycle) {
			t.Errorf("%s: profiling (recycle off=%v) changes stats:\n plain: %+v\nprofiled: %+v", label, off, *withRecycle, *st)
		}
		if err := acc.Profile().Save(&saved[i]); err != nil {
			t.Fatal(err)
		}
	}
	if !bytes.Equal(saved[0].Bytes(), saved[1].Bytes()) {
		t.Errorf("%s: slack profiles diverge with recycling (first diff at byte %d)",
			label, firstDiff(saved[0].Bytes(), saved[1].Bytes()))
	}
}

func selections(p *prog.Program, tr []emu.Rec) *minigraph.Selection {
	freq := make([]int64, p.NumInstrs())
	for _, r := range tr {
		freq[r.Index]++
	}
	sel := minigraph.Select(p, minigraph.Enumerate(p, minigraph.DefaultLimits()), freq, minigraph.DefaultSelectConfig())
	if len(sel.Instances) == 0 {
		return nil
	}
	return sel
}

func TestRecyclingIdenticalRandomPrograms(t *testing.T) {
	for seed := int64(1); seed <= 8; seed++ {
		p := genLoopProgram(seed)
		res, err := emu.Run(p, emu.Options{CollectTrace: true, MaxInstrs: 1 << 20})
		if err != nil {
			continue // degenerate program; not this test's concern
		}
		for _, cfg := range []Config{Baseline(), Reduced()} {
			runBothWays(t, "singleton", p, res.Trace, cfg, MGConfig{})
			if sel := selections(p, res.Trace); sel != nil {
				runBothWays(t, "minigraph", p, res.Trace, cfg, MGConfig{Selection: sel})
				runBothWays(t, "dynamic", p, res.Trace, cfg, MGConfig{Selection: sel, Dynamic: true})
			}
		}
	}
}

// TestRecyclingIdenticalStoreHeavy stresses the paths where committed uops
// stay referenced longest: store-to-load forwarding, StoreSets waits, and
// memory-ordering violations (pendingViol can outlive a store's commit).
func TestRecyclingIdenticalStoreHeavy(t *testing.T) {
	b := prog.NewBuilder("storeheavy")
	slot := b.Space(64)
	b.Li(1, slot)
	b.Li(2, 400)
	b.Label("loop")
	b.Stw(2, 1, 0)
	b.Ldw(3, 1, 0)
	b.Stw(3, 1, 4)
	b.Ldw(4, 1, 4)
	b.Add(0, 3, 4)
	b.Subi(2, 2, 1)
	b.Bnez(2, "loop")
	b.Halt()
	p := b.MustBuild()
	res, err := emu.Run(p, emu.Options{CollectTrace: true})
	if err != nil {
		t.Fatal(err)
	}
	runBothWays(t, "store-heavy baseline", p, res.Trace, Baseline(), MGConfig{})
	runBothWays(t, "store-heavy reduced", p, res.Trace, Reduced(), MGConfig{})

	// Tiny queues force structural stalls, flushes near-full windows.
	tiny := Baseline()
	tiny.Name = "tiny"
	tiny.IQEntries = 2
	tiny.PhysRegs = 36
	tiny.LQEntries = 2
	tiny.SQEntries = 2
	tiny.ROBEntries = 8
	runBothWays(t, "store-heavy tiny", p, res.Trace, tiny, MGConfig{})
}
