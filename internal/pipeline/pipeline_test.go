package pipeline

import (
	"testing"

	"repro/internal/emu"
	"repro/internal/isa"
	"repro/internal/minigraph"
	"repro/internal/prog"
	"repro/internal/slack"
)

func trace(t testing.TB, p *prog.Program) []emu.Rec {
	t.Helper()
	res, err := emu.Run(p, emu.Options{CollectTrace: true})
	if err != nil {
		t.Fatalf("emu: %v", err)
	}
	return res.Trace
}

func runOn(t testing.TB, p *prog.Program, cfg Config, mg MGConfig) *Stats {
	t.Helper()
	st, err := Run(p, trace(t, p), cfg, mg, nil)
	if err != nil {
		t.Fatalf("pipeline: %v", err)
	}
	return st
}

// ilpLoop builds a loop with lots of independent work per iteration.
func ilpLoop(t testing.TB, iters int64) *prog.Program {
	t.Helper()
	b := prog.NewBuilder("ilp")
	b.Li(1, iters)
	b.Li(2, 1)
	b.Li(3, 2)
	b.Li(4, 3)
	b.Li(5, 4)
	b.Label("loop")
	b.Addi(2, 2, 1)
	b.Addi(3, 3, 2)
	b.Addi(4, 4, 3)
	b.Addi(5, 5, 4)
	b.Xori(6, 2, 0x0f)
	b.Xori(7, 3, 0xf0)
	b.Add(8, 6, 7)
	b.Add(0, 0, 8)
	b.Subi(1, 1, 1)
	b.Bnez(1, "loop")
	b.Halt()
	return b.MustBuild()
}

// serialChain builds a loop whose body is one long dependence chain.
func serialChain(t testing.TB, iters int64) *prog.Program {
	t.Helper()
	b := prog.NewBuilder("serial")
	b.Li(1, iters)
	b.Li(2, 7)
	b.Label("loop")
	b.Addi(2, 2, 1)
	b.Addi(2, 2, 2)
	b.Addi(2, 2, 3)
	b.Addi(2, 2, 4)
	b.Addi(2, 2, 5)
	b.Addi(2, 2, 6)
	b.Subi(1, 1, 1)
	b.Bnez(1, "loop")
	b.Mov(0, 2)
	b.Halt()
	return b.MustBuild()
}

func TestSingletonRunCompletes(t *testing.T) {
	p := ilpLoop(t, 200)
	st := runOn(t, p, Baseline(), MGConfig{})
	tr := trace(t, p)
	if st.Instrs != int64(len(tr)) {
		t.Errorf("committed %d instrs, trace has %d", st.Instrs, len(tr))
	}
	if st.Uops != st.Instrs {
		t.Errorf("singleton run: uops %d != instrs %d", st.Uops, st.Instrs)
	}
	if st.Handles != 0 || st.EmbeddedInstrs != 0 {
		t.Error("singleton run should have no mini-graph activity")
	}
	if st.IPC() <= 0.5 {
		t.Errorf("IPC = %.3f, suspiciously low for an ILP loop", st.IPC())
	}
	if st.IPC() > 4.0 {
		t.Errorf("IPC = %.3f exceeds machine width", st.IPC())
	}
}

func TestILPBoundByWidth(t *testing.T) {
	p := ilpLoop(t, 500)
	base := runOn(t, p, Baseline(), MGConfig{})
	if base.IPC() < 2.0 {
		t.Errorf("baseline IPC = %.3f, want >= 2 for a wide ILP loop", base.IPC())
	}
}

func TestReducedSlowerOnILP(t *testing.T) {
	p := ilpLoop(t, 500)
	base := runOn(t, p, Baseline(), MGConfig{})
	red := runOn(t, p, Reduced(), MGConfig{})
	if red.Cycles <= base.Cycles {
		t.Errorf("reduced (%d cycles) should be slower than baseline (%d) on ILP code",
			red.Cycles, base.Cycles)
	}
	slow := float64(red.Cycles)/float64(base.Cycles) - 1
	if slow < 0.05 {
		t.Errorf("reduced slowdown = %.1f%%, expected noticeable", 100*slow)
	}
}

func TestSerialCodeInsensitiveToWidth(t *testing.T) {
	p := serialChain(t, 500)
	base := runOn(t, p, Baseline(), MGConfig{})
	red := runOn(t, p, Reduced(), MGConfig{})
	slow := float64(red.Cycles)/float64(base.Cycles) - 1
	if slow > 0.05 {
		t.Errorf("serial chain slowdown on reduced = %.1f%%, should be near zero", 100*slow)
	}
}

func TestDeterminism(t *testing.T) {
	p := ilpLoop(t, 300)
	a := runOn(t, p, Baseline(), MGConfig{})
	b := runOn(t, p, Baseline(), MGConfig{})
	if a.Cycles != b.Cycles || a.Instrs != b.Instrs {
		t.Errorf("nondeterministic: %d/%d vs %d/%d cycles/instrs",
			a.Cycles, a.Instrs, b.Cycles, b.Instrs)
	}
}

// selectAll selects mini-graphs with the Struct-All policy (no filtering).
func selectAll(t testing.TB, p *prog.Program) *minigraph.Selection {
	t.Helper()
	res, err := emu.Run(p, emu.Options{CollectTrace: true})
	if err != nil {
		t.Fatal(err)
	}
	freq := make([]int64, len(p.Code))
	for _, r := range res.Trace {
		freq[r.Index]++
	}
	cands := minigraph.Enumerate(p, minigraph.DefaultLimits())
	return minigraph.Select(p, cands, freq, minigraph.DefaultSelectConfig())
}

func TestMiniGraphsReduceUops(t *testing.T) {
	p := ilpLoop(t, 300)
	sel := selectAll(t, p)
	if len(sel.Instances) == 0 {
		t.Fatal("no mini-graphs selected")
	}
	st := runOn(t, p, Baseline(), MGConfig{Selection: sel})
	if st.Handles == 0 {
		t.Fatal("no handles committed")
	}
	if st.Uops >= st.Instrs {
		t.Errorf("uops %d should be < instrs %d with mini-graphs", st.Uops, st.Instrs)
	}
	if st.Coverage() <= 0 || st.Coverage() > 1 {
		t.Errorf("coverage = %f out of range", st.Coverage())
	}
	// Instruction accounting must be exact.
	tr := trace(t, p)
	if st.Instrs != int64(len(tr)) {
		t.Errorf("committed %d, trace %d", st.Instrs, len(tr))
	}
}

// mgFriendlyLoop builds a bandwidth-bound loop of independent two-instr
// dependence chains: ideal mini-graph fodder (connected, non-serializing).
func mgFriendlyLoop(t testing.TB, iters int64) *prog.Program {
	t.Helper()
	b := prog.NewBuilder("mgfriendly")
	b.Li(1, iters)
	b.Label("loop")
	for r := 2; r <= 7; r++ {
		b.Addi(isa.Reg(r), isa.Reg(r), 1)
		b.Xori(isa.Reg(r), isa.Reg(r), 0x55)
	}
	b.Subi(1, 1, 1)
	b.Bnez(1, "loop")
	b.Halt()
	return b.MustBuild()
}

func TestMiniGraphsHelpReducedMachine(t *testing.T) {
	p := mgFriendlyLoop(t, 500)
	sel := selectAll(t, p)
	if len(sel.Instances) == 0 {
		t.Fatal("nothing selected")
	}
	red := runOn(t, p, Reduced(), MGConfig{})
	redMG := runOn(t, p, Reduced(), MGConfig{Selection: sel})
	if redMG.Cycles >= red.Cycles {
		t.Errorf("mini-graphs should speed up the bandwidth-bound reduced machine: %d vs %d cycles",
			redMG.Cycles, red.Cycles)
	}
}

func TestStructAllSerializationPathology(t *testing.T) {
	// On ilpLoop, naive selection aggregates the accumulator chain with
	// independent work, creating external serialization across iterations —
	// the pathology Section 3 of the paper describes. The mini-graph run
	// must not be dramatically faster, and historically is slower.
	p := ilpLoop(t, 500)
	sel := selectAll(t, p)
	red := runOn(t, p, Reduced(), MGConfig{})
	redMG := runOn(t, p, Reduced(), MGConfig{Selection: sel})
	if redMG.Cycles < red.Cycles*9/10 {
		t.Errorf("expected serialization to blunt or reverse the benefit: %d vs %d cycles",
			redMG.Cycles, red.Cycles)
	}
}

func TestRuntimeCoverageMatchesStatic(t *testing.T) {
	p := ilpLoop(t, 300)
	sel := selectAll(t, p)
	st := runOn(t, p, Baseline(), MGConfig{Selection: sel})
	// Selection coverage is computed from the same frequencies the run
	// replays, so they must agree closely.
	diff := st.Coverage() - sel.Coverage()
	if diff < -0.02 || diff > 0.02 {
		t.Errorf("runtime coverage %.3f vs selection coverage %.3f", st.Coverage(), sel.Coverage())
	}
}

func TestBranchyCodeMispredicts(t *testing.T) {
	// Data-dependent branches from an LCG: mispredictions guaranteed.
	b := prog.NewBuilder("branchy")
	b.Li(1, 400)
	b.Li(2, 12345)
	b.Label("loop")
	b.Li(5, 1103515245)
	b.Mul(2, 2, 5)
	b.Addi(2, 2, 12345)
	b.Srli(3, 2, 16)
	b.Andi(3, 3, 1)
	b.Beqz(3, "skip")
	b.Addi(0, 0, 1)
	b.Label("skip")
	b.Subi(1, 1, 1)
	b.Bnez(1, "loop")
	b.Halt()
	p := b.MustBuild()
	st := runOn(t, p, Baseline(), MGConfig{})
	if st.BranchMispredicts < 50 {
		t.Errorf("mispredicts = %d, want many for random branches", st.BranchMispredicts)
	}
}

func TestMispredictionCostsCycles(t *testing.T) {
	mk := func(random bool) *prog.Program {
		b := prog.NewBuilder("b")
		b.Li(1, 400)
		b.Li(2, 12345)
		b.Label("loop")
		b.Li(5, 1103515245)
		b.Mul(2, 2, 5)
		b.Addi(2, 2, 12345)
		b.Srli(3, 2, 16)
		if random {
			b.Andi(3, 3, 1)
		} else {
			b.Andi(3, 3, 0) // always zero: perfectly predictable
		}
		b.Beqz(3, "skip")
		b.Addi(0, 0, 1)
		b.Label("skip")
		b.Subi(1, 1, 1)
		b.Bnez(1, "loop")
		b.Halt()
		return b.MustBuild()
	}
	hard := runOn(t, mk(true), Baseline(), MGConfig{})
	easy := runOn(t, mk(false), Baseline(), MGConfig{})
	if hard.Cycles <= easy.Cycles {
		t.Errorf("mispredicting loop (%d cycles) should be slower than predictable (%d)",
			hard.Cycles, easy.Cycles)
	}
}

func TestMemoryTrafficRuns(t *testing.T) {
	b := prog.NewBuilder("mem")
	arr := b.Space(4096)
	b.Li(1, arr)
	b.Li(2, 1024)
	b.Label("loop")
	b.Ldw(3, 1, 0)
	b.Addi(3, 3, 1)
	b.Stw(3, 1, 0)
	b.Addi(1, 1, 4)
	b.Subi(2, 2, 1)
	b.Bnez(2, "loop")
	b.Halt()
	p := b.MustBuild()
	st := runOn(t, p, Baseline(), MGConfig{})
	if st.L1DMissRate <= 0 {
		t.Error("walking 4KB should miss in the (cold) L1D")
	}
	if st.MemOrderFlushes > 50 {
		t.Errorf("unexpected flush storm: %d", st.MemOrderFlushes)
	}
}

func TestStoreLoadForwardingSameAddress(t *testing.T) {
	// Repeated store-then-load to one address: must not livelock, and the
	// StoreSets predictor should keep violations bounded.
	b := prog.NewBuilder("fwd")
	slot := b.Space(4)
	b.Li(1, slot)
	b.Li(2, 300)
	b.Label("loop")
	b.Stw(2, 1, 0)
	b.Ldw(3, 1, 0)
	b.Add(0, 0, 3)
	b.Subi(2, 2, 1)
	b.Bnez(2, "loop")
	b.Halt()
	p := b.MustBuild()
	st := runOn(t, p, Baseline(), MGConfig{})
	if st.MemOrderFlushes > 40 {
		t.Errorf("violations = %d; StoreSets should learn the dependence", st.MemOrderFlushes)
	}
}

func TestProfilingRun(t *testing.T) {
	p := serialChain(t, 100)
	acc := slack.NewAccumulator(p.Name, p.NumInstrs())
	if _, err := Run(p, trace(t, p), Reduced(), MGConfig{}, acc); err != nil {
		t.Fatal(err)
	}
	prof := acc.Profile()
	// The loop body instructions were observed ~100 times.
	loopStart := p.Labels["loop"]
	if prof.Count[loopStart] < 90 {
		t.Errorf("profile count = %d, want ~100", prof.Count[loopStart])
	}
	// In a serial chain, each addi's output is consumed immediately:
	// local slack should be ~0.
	if prof.RegSlack[loopStart] > 2 {
		t.Errorf("serial chain reg slack = %.2f, want ~0", prof.RegSlack[loopStart])
	}
	// Issue times within the block should be increasing along the chain.
	if !(prof.Issue[loopStart+1] > prof.Issue[loopStart]) {
		t.Errorf("issue times not increasing: %.2f then %.2f",
			prof.Issue[loopStart], prof.Issue[loopStart+1])
	}
}

func TestProfileSlackILP(t *testing.T) {
	// Independent adds consumed only at the end have slack > 0 for early ones.
	b := prog.NewBuilder("slackful")
	b.Li(1, 100)
	b.Label("loop")
	b.Addi(2, 2, 1) // result waits while the chain below executes
	b.Addi(3, 3, 1)
	b.Mul(4, 3, 3) // 3-cycle op
	b.Add(5, 4, 2) // consumes r2 late
	b.Add(0, 0, 5)
	b.Subi(1, 1, 1)
	b.Bnez(1, "loop")
	b.Halt()
	p := b.MustBuild()
	acc := slack.NewAccumulator(p.Name, p.NumInstrs())
	if _, err := Run(p, trace(t, p), Baseline(), MGConfig{}, acc); err != nil {
		t.Fatal(err)
	}
	prof := acc.Profile()
	loop := p.Labels["loop"]
	// r2's def (loop+0) is consumed by the add after the mul: it has more
	// slack than r4's def (the mul), which is consumed immediately.
	if !(prof.RegSlack[loop] > prof.RegSlack[loop+2]) {
		t.Errorf("slack(early op) = %.2f should exceed slack(mul) = %.2f",
			prof.RegSlack[loop], prof.RegSlack[loop+2])
	}
}

// A slack profile is defined per static singleton instruction, so a
// profiling run with mini-graphs enabled is rejected before simulating.
func TestProfilingWithMiniGraphsRejected(t *testing.T) {
	p := ilpLoop(t, 20)
	acc := slack.NewAccumulator(p.Name, p.NumInstrs())
	if _, err := Run(p, trace(t, p), Baseline(), MGConfig{Selection: selectAll(t, p)}, acc); err == nil {
		t.Error("profiling with mini-graphs enabled should error")
	}
}

func TestEmptyTraceError(t *testing.T) {
	p := ilpLoop(t, 10)
	if _, err := Run(p, nil, Baseline(), MGConfig{}, nil); err == nil {
		t.Error("empty trace should error")
	}
}

func TestOverheadJumpsOnlyWhenDisabled(t *testing.T) {
	p := ilpLoop(t, 200)
	sel := selectAll(t, p)
	st := runOn(t, p, Baseline(), MGConfig{Selection: sel})
	if st.OverheadJumps != 0 {
		t.Errorf("no dynamic disabling configured, but %d overhead jumps", st.OverheadJumps)
	}
}

func TestCallsAndReturns(t *testing.T) {
	b := prog.NewBuilder("calls")
	b.Li(1, 100)
	b.Label("loop")
	b.Jsr("fn")
	b.Subi(1, 1, 1)
	b.Bnez(1, "loop")
	b.Halt()
	b.Label("fn")
	b.Addi(0, 0, 1)
	b.Ret()
	p := b.MustBuild()
	st := runOn(t, p, Baseline(), MGConfig{})
	// The RAS should predict nearly all returns after warmup.
	if st.RASMispredicts > 5 {
		t.Errorf("RAS mispredicts = %d, want few", st.RASMispredicts)
	}
}

func TestStatsString(t *testing.T) {
	p := ilpLoop(t, 50)
	st := runOn(t, p, Baseline(), MGConfig{})
	s := st.String()
	if len(s) == 0 {
		t.Error("empty stats string")
	}
}
