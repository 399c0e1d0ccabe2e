package core

import (
	"math"
	"sync"
	"testing"

	"repro/internal/minigraph"
	"repro/internal/pipeline"
	"repro/internal/selector"
	"repro/internal/slack"
	"repro/internal/stats"
)

// smallSweepOpts restricts a sweep to one suite on the small input to keep
// cache tests fast.
func smallSweepOpts() Options {
	return Options{Input: "small", Suites: []string{"comm"}}
}

// smallSpecs covers every kind of series point: singleton, a profile-free
// selector, a self-trained profile, a cross-config profile, a cross-input
// profile (on the large input, so each workload has two benches) and
// non-default enumeration limits with a non-default MGT budget.
func smallSpecs() []SeriesSpec {
	red, w2 := pipeline.Reduced(), pipeline.Width2()
	return []SeriesSpec{
		{Label: "no mini-graphs", Cfg: red},
		{Label: "Struct-All", Cfg: red, Sel: selector.StructAll()},
		{Label: "Slack-Profile", Cfg: red, Sel: selector.SlackProfile()},
		{Label: "cross 2-way", Cfg: red, Sel: selector.SlackProfile(), ProfCfg: &w2},
		{Label: "cross-input", Cfg: red, Sel: selector.SlackProfile(), ProfInput: "large"},
		{Label: "maxlen=3 budget=16", Cfg: red, Sel: selector.SlackProfile(),
			Limits: minigraph.Limits{MaxLen: 3, MaxInputs: 2}, Budget: 16},
	}
}

// smallBenches is the number of (workload, input) benches a smallSpecs
// sweep prepares: every workload on its own input and on the cross-input
// spec's profiling input.
func smallBenches(opts Options) int64 { return 2 * int64(len(opts.workloads())) }

// TestPrepareExactlyOnceAcrossSweeps asserts the headline cache property:
// repeated sweeps (as `mgreport -exp all` issues) prepare each workload
// exactly once and re-simulate nothing.
func TestPrepareExactlyOnceAcrossSweeps(t *testing.T) {
	ResetCaches()
	opts := smallSweepOpts()
	nBenches := smallBenches(opts)
	if nBenches == 0 {
		t.Fatal("no workloads in suite")
	}

	first, err := RunSweep("first", opts, smallSpecs())
	if err != nil {
		t.Fatal(err)
	}
	c := Caches()
	if got := c.Benches.Misses; got != nBenches {
		t.Errorf("after first sweep: %d bench preparations, want %d", got, nBenches)
	}
	resultMisses := c.Results.Misses
	if resultMisses == 0 {
		t.Fatal("first sweep should populate the result cache")
	}

	second, err := RunSweep("second", opts, smallSpecs())
	if err != nil {
		t.Fatal(err)
	}
	c = Caches()
	if got := c.Benches.Misses; got != nBenches {
		t.Errorf("second sweep re-prepared workloads: %d preparations, want %d", got, nBenches)
	}
	if c.Results.Misses != resultMisses {
		t.Errorf("second sweep re-simulated: %d result misses, want %d", c.Results.Misses, resultMisses)
	}
	if c.Results.Hits == 0 {
		t.Error("second sweep should hit the result cache")
	}
	assertSweepsEqual(t, first, second)
}

// TestCachedMatchesUncached asserts the correctness property behind the
// whole service layer: caching changes nothing about the numbers. The
// cached sweep and the cache-disabled sweep (the -nocache path) are both
// checked against a reference computed directly, without the caches; the
// disabled sweep must also leave the cache counters untouched.
func TestCachedMatchesUncached(t *testing.T) {
	ResetCaches()
	opts := smallSweepOpts()
	ref := referenceSweep(t, opts, smallSpecs())
	cached, err := RunSweep("cached", opts, smallSpecs())
	if err != nil {
		t.Fatal(err)
	}
	assertSweepsEqual(t, ref, cached)

	before := Caches()
	SetCachingDisabled(true)
	defer SetCachingDisabled(false)
	uncached, err := RunSweep("uncached", opts, smallSpecs())
	if err != nil {
		t.Fatal(err)
	}
	assertSweepsEqual(t, ref, uncached)
	if after := Caches(); after != before {
		t.Errorf("cache-disabled sweep touched the caches: %+v -> %+v", before, after)
	}
}

// referenceSweep computes a sweep's numbers step by step — Prepare,
// RunSingleton on the baseline, Profile on the spec's profiling bench,
// select, Run — with no process-wide cache involved.
func referenceSweep(t *testing.T, opts Options, specs []SeriesSpec) *SweepResult {
	t.Helper()
	res := &SweepResult{Perf: &stats.Report{}, Coverage: &stats.Report{}}
	for _, sp := range specs {
		res.Perf.Add(stats.NewSeries(sp.Label))
		res.Coverage.Add(stats.NewSeries(sp.Label))
	}
	for _, w := range opts.workloads() {
		b, err := Prepare(w, opts.input())
		if err != nil {
			t.Fatal(err)
		}
		base, err := b.RunSingleton(pipeline.Baseline())
		if err != nil {
			t.Fatal(err)
		}
		for i, sp := range specs {
			st, err := referencePoint(b, sp)
			if err != nil {
				t.Fatalf("%s/%s: %v", w.Name, sp.Label, err)
			}
			res.Perf.Series[i].Add(w.Name, float64(base.Cycles)/float64(st.Cycles))
			res.Coverage.Series[i].Add(w.Name, st.Coverage())
		}
	}
	return res
}

// referencePoint simulates one series point of b from scratch, resolving
// the spec's defaults independently of the sweep code.
func referencePoint(b *Bench, sp SeriesSpec) (*pipeline.Stats, error) {
	if sp.Sel == nil {
		return b.RunSingleton(sp.Cfg)
	}
	var prof *slack.Profile
	if sp.Sel.NeedsProfile() {
		pb := b
		if sp.ProfInput != "" && sp.ProfInput != b.Input {
			var err error
			if pb, err = Prepare(b.Workload, sp.ProfInput); err != nil {
				return nil, err
			}
		}
		profCfg := sp.Cfg
		if sp.ProfCfg != nil {
			profCfg = *sp.ProfCfg
		}
		var err error
		if prof, err = pb.Profile(profCfg); err != nil {
			return nil, err
		}
	}
	cands := b.Cands
	if sp.Limits != (minigraph.Limits{}) {
		cands = minigraph.Enumerate(b.Prog, sp.Limits)
	}
	selCfg := minigraph.DefaultSelectConfig()
	if sp.Budget != 0 {
		selCfg.TemplateBudget = sp.Budget
	}
	chosen := minigraph.Select(b.Prog, sp.Sel.Pool(b.Prog, cands, prof), b.Freq, selCfg)
	return b.Run(sp.Cfg, sp.Sel, chosen)
}

// TestAblationBudgetDedupes checks the ablations' deduplication claim:
// after a default Slack-Profile sweep, AblationBudget's "budget=512" series
// (and the shared baseline) add no result-cache misses — only the three
// non-default budgets simulate.
func TestAblationBudgetDedupes(t *testing.T) {
	ResetCaches()
	opts := smallSweepOpts()
	n := int64(len(opts.workloads()))
	if _, err := RunSweep("default", opts, []SeriesSpec{
		{Label: "Slack-Profile", Cfg: pipeline.Reduced(), Sel: selector.SlackProfile()},
	}); err != nil {
		t.Fatal(err)
	}
	before := Caches().Results.Misses
	if _, err := AblationBudget(opts); err != nil {
		t.Fatal(err)
	}
	if got := Caches().Results.Misses - before; got != 3*n {
		t.Errorf("AblationBudget added %d result misses, want %d (budgets 4, 16, 64 only)", got, 3*n)
	}
}

// TestConcurrentSweepsShareCache runs two identical sweeps concurrently
// (run under -race): singleflight must dedupe their work and both must see
// identical results.
func TestConcurrentSweepsShareCache(t *testing.T) {
	ResetCaches()
	opts := smallSweepOpts()
	nBenches := smallBenches(opts)
	var wg sync.WaitGroup
	results := make([]*SweepResult, 2)
	errs := make([]error, 2)
	for i := range results {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			results[i], errs[i] = RunSweep("concurrent", opts, smallSpecs())
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("sweep %d: %v", i, err)
		}
	}
	assertSweepsEqual(t, results[0], results[1])
	c := Caches()
	if c.Benches.Misses != nBenches {
		t.Errorf("concurrent sweeps prepared %d benches, want %d (singleflight)", c.Benches.Misses, nBenches)
	}
}

func assertSweepsEqual(t *testing.T, a, b *SweepResult) {
	t.Helper()
	assertReportsEqual(t, "perf", a.Perf, b.Perf)
	assertReportsEqual(t, "coverage", a.Coverage, b.Coverage)
}

func assertReportsEqual(t *testing.T, what string, a, b *stats.Report) {
	t.Helper()
	if len(a.Series) != len(b.Series) {
		t.Fatalf("%s: series count %d != %d", what, len(a.Series), len(b.Series))
	}
	for i, sa := range a.Series {
		sb := b.Series[i]
		if sa.Label != sb.Label {
			t.Fatalf("%s[%d]: label %q != %q", what, i, sa.Label, sb.Label)
		}
		if len(sa.Values) != len(sb.Values) {
			t.Fatalf("%s[%s]: %d values != %d", what, sa.Label, len(sa.Values), len(sb.Values))
		}
		for prog, va := range sa.Values {
			vb, ok := sb.Values[prog]
			if !ok {
				t.Fatalf("%s[%s]: missing %s", what, sa.Label, prog)
			}
			// Bit-identical, not approximately equal: the simulation is
			// deterministic and the cache must not perturb it.
			if math.Float64bits(va) != math.Float64bits(vb) {
				t.Errorf("%s[%s][%s]: %v != %v", what, sa.Label, prog, va, vb)
			}
		}
	}
}
