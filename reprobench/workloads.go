package main

import (
	"fmt"
	"log"
	"math/rand"
	"sort"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/emu"
	"repro/internal/pipeline"
	"repro/internal/selector"
	"repro/internal/workload"
)

// sweepDef is one public core sweep function together with the series
// specs and workload population it evaluates. The traced pass replays the
// specs layer by layer and must reproduce every value the function
// reports, so specs that drift from core's fail the traced run rather
// than silently timing different work.
type sweepDef struct {
	name   string // the core function, also the core.<name>_ms metric
	run    func(core.Options) (*core.SweepResult, error)
	suites []string // nil = all four suites
	specs  []core.SeriesSpec
}

func (s *sweepDef) population() []*workload.Workload {
	if len(s.suites) == 0 {
		return workload.All()
	}
	var ws []*workload.Workload
	for _, suite := range s.suites {
		ws = append(ws, workload.BySuite(suite)...)
	}
	return ws
}

// limitSelectors are the static selectors the limit study compares with
// the exhaustive search, in mgreport's print order.
var limitSelectors = []string{"Struct-All", "Struct-None", "Struct-Bounded", "Slack-Profile"}

func limitSelector(name string) *selector.Selector {
	return map[string]func() *selector.Selector{
		"Struct-All": selector.StructAll, "Struct-None": selector.StructNone,
		"Struct-Bounded": selector.StructBounded, "Slack-Profile": selector.SlackProfile,
	}[name]()
}

// sweeps mirrors the specs of internal/core's figure functions.
func sweeps() map[string]*sweepDef {
	red, base := pipeline.Reduced(), pipeline.Baseline()
	w2, w8, dm := pipeline.Width2(), pipeline.Width8(), pipeline.SmallDMem()
	five := func(cfg pipeline.Config) []core.SeriesSpec {
		return []core.SeriesSpec{
			{Label: "no mini-graphs", Cfg: cfg},
			{Label: "Struct-All", Cfg: cfg, Sel: selector.StructAll()},
			{Label: "Struct-None", Cfg: cfg, Sel: selector.StructNone()},
			{Label: "Struct-Bounded", Cfg: cfg, Sel: selector.StructBounded()},
			{Label: "Slack-Profile", Cfg: cfg, Sel: selector.SlackProfile()},
			{Label: "Slack-Dynamic", Cfg: cfg, Sel: selector.SlackDynamic()},
		}
	}
	defs := []*sweepDef{
		{name: "Fig1", run: core.Fig1, specs: []core.SeriesSpec{
			{Label: "no mini-graphs", Cfg: red},
			{Label: "Struct-All", Cfg: red, Sel: selector.StructAll()},
			{Label: "Struct-None", Cfg: red, Sel: selector.StructNone()},
			{Label: "Slack-Profile", Cfg: red, Sel: selector.SlackProfile()},
		}},
		{name: "Fig3Top", run: core.Fig3Top, specs: []core.SeriesSpec{
			{Label: "no mini-graphs", Cfg: red},
			{Label: "Struct-All", Cfg: red, Sel: selector.StructAll()},
			{Label: "Struct-None", Cfg: red, Sel: selector.StructNone()},
		}},
		{name: "Fig3Bottom", run: core.Fig3Bottom, specs: []core.SeriesSpec{
			{Label: "Struct-All", Cfg: base, Sel: selector.StructAll()},
			{Label: "Struct-None", Cfg: base, Sel: selector.StructNone()},
		}},
		{name: "Fig6Top", run: core.Fig6Top, specs: five(red)},
		{name: "Fig6Middle", run: core.Fig6Middle, specs: five(base)},
		{name: "Fig7Top", run: core.Fig7Top, specs: []core.SeriesSpec{
			{Label: "Struct-All", Cfg: red, Sel: selector.StructAll()},
			{Label: "Struct-None", Cfg: red, Sel: selector.StructNone()},
			{Label: "Slack-Profile", Cfg: red, Sel: selector.SlackProfile()},
			{Label: "Slack-Profile-Delay", Cfg: red, Sel: selector.SlackProfileDelay()},
			{Label: "Slack-Profile-SIAL", Cfg: red, Sel: selector.SlackProfileSIAL()},
		}},
		{name: "Fig7Bottom", run: core.Fig7Bottom, specs: []core.SeriesSpec{
			{Label: "Struct-All", Cfg: red, Sel: selector.StructAll()},
			{Label: "Slack-Dynamic", Cfg: red, Sel: selector.SlackDynamic()},
			{Label: "Ideal-Slack-Dynamic", Cfg: red, Sel: selector.IdealSlackDynamic()},
			{Label: "Ideal-Slack-Dynamic-Delay", Cfg: red, Sel: selector.IdealSlackDynamicDelay()},
			{Label: "Ideal-Slack-Dynamic-SIAL", Cfg: red, Sel: selector.IdealSlackDynamicSIAL()},
		}},
		{name: "Fig9Top", run: core.Fig9Top, suites: []string{"media", "comm"}, specs: []core.SeriesSpec{
			{Label: "self-trained", Cfg: red, Sel: selector.SlackProfile()},
			{Label: "cross 2-way", Cfg: red, Sel: selector.SlackProfile(), ProfCfg: &w2},
			{Label: "cross 8-way", Cfg: red, Sel: selector.SlackProfile(), ProfCfg: &w8},
			{Label: "cross dmem/4", Cfg: red, Sel: selector.SlackProfile(), ProfCfg: &dm},
		}},
		{name: "Fig9Bottom", run: core.Fig9Bottom, suites: []string{"intx", "embed"}, specs: []core.SeriesSpec{
			{Label: "self-trained", Cfg: red, Sel: selector.SlackProfile()},
			{Label: "cross-input", Cfg: red, Sel: selector.SlackProfile(), ProfInput: "small"},
		}},
	}
	m := make(map[string]*sweepDef, len(defs))
	for _, d := range defs {
		m[d.name] = d
	}
	return m
}

// step is one public core call of a workload: a sweep, or the Figure 8
// limit study on one program (small input, as mgreport runs it).
type step struct {
	sweep *sweepDef
	limit string
}

func (s step) key() string {
	if s.sweep != nil {
		return s.sweep.name
	}
	return "LimitStudy:" + s.limit
}

// plan is a workload: the ordered core calls one iteration makes.
type plan struct {
	name   string
	table1 bool // reproduce prints mgreport's Table 1 first
	steps  []step
}

// limitInput is the input set mgreport's limit study runs on.
const limitInput = "small"

// reproduceLimit is the program `mgreport -exp all` runs the limit study on.
const reproduceLimit = "media.adpcm_enc"

// workloadNames lists the benchmark's workloads in BENCHMARK.json order.
var workloadNames = []string{"reproduce", "cross-train", "limit-study"}

// makePlan builds a workload. Only limit-study depends on the seed; the
// other two are the paper's fixed populations.
func makePlan(name string, seed int64, ref *reference) (*plan, error) {
	sw := sweeps()
	switch name {
	case "reproduce":
		p := &plan{name: name, table1: true}
		for _, n := range []string{"Fig1", "Fig3Top", "Fig3Bottom", "Fig6Top", "Fig6Middle", "Fig7Top", "Fig7Bottom"} {
			p.steps = append(p.steps, step{sweep: sw[n]})
		}
		p.steps = append(p.steps, step{limit: reproduceLimit}, step{sweep: sw["Fig9Top"]}, step{sweep: sw["Fig9Bottom"]})
		return p, nil
	case "cross-train":
		return &plan{name: name, steps: []step{{sweep: sw["Fig9Top"]}, {sweep: sw["Fig9Bottom"]}}}, nil
	case "limit-study":
		short, err := shortRunning(ref.limits)
		if err != nil {
			return nil, err
		}
		p := &plan{name: name}
		for _, prog := range limitPrograms(short, seed) {
			p.steps = append(p.steps, step{limit: prog})
		}
		return p, nil
	}
	return nil, fmt.Errorf("unknown workload %q (want one of %v)", name, workloadNames)
}

// limitMaxInstrs bounds the limit-study population to short-running
// programs (dynamic instructions on the small input), as the paper's limit
// study uses one. A profile's memory grows with the program's length, so
// the bound also keeps the largest program, which sets an iteration's
// peak memory, of similar size in every seed's group.
const limitMaxInstrs = 32_000

// limitGroupSize is how many programs one limit-study iteration runs
// (about 13 s). Groups of equal size make per-program overheads (the
// baseline run, the profile, collections on a small heap) the same for
// every seed.
const limitGroupSize = 5

// shortRunning keeps the reference programs within limitMaxInstrs. The
// functional runs take milliseconds and happen before any timing.
func shortRunning(limits []limitRef) ([]limitRef, error) {
	var out []limitRef
	for _, l := range limits {
		w := workload.Find(l.name)
		if w == nil {
			return nil, fmt.Errorf("reference names unknown workload %q", l.name)
		}
		p, _, _, err := w.Build(limitInput)
		if err != nil {
			return nil, err
		}
		res, err := emu.Run(p, emu.Options{})
		if err != nil {
			return nil, err
		}
		if res.DynInstrs <= limitMaxInstrs {
			out = append(out, l)
		}
	}
	return out, nil
}

// limitPrograms picks the limit-study programs for a seed: one of the
// groups limitGroups deals. Every seed thus times a different sample of
// programs but a similar amount of work, so runs with different seeds
// compare.
func limitPrograms(limits []limitRef, seed int64) []string {
	groups := limitGroups(limits)
	g := rand.New(rand.NewSource(seed)).Intn(len(groups))
	var names []string
	var ms, mb float64
	for _, l := range groups[g] {
		names = append(names, l.name)
		ms += l.costMS
		mb += l.allocMB
	}
	log.Printf("limit-study group %d of %d (reference %.1f s, %.0f MB): %v", g+1, len(groups), ms/1e3, mb, names)
	return names
}

// limitGroups deals the eligible programs into groups of limitGroupSize
// with near-equal total wall time and allocation: a snake draft in order
// of cost, then pairwise swaps between groups while a swap brings both
// closer to the mean on the two measures. The cheapest programs that do
// not fill a group are left out. The result depends only on the
// reference.
func limitGroups(limits []limitRef) [][]limitRef {
	n := max(1, len(limits)/limitGroupSize)
	byCost := append([]limitRef(nil), limits...)
	sort.SliceStable(byCost, func(i, j int) bool { return byCost[i].costMS > byCost[j].costMS })
	byCost = byCost[:min(len(byCost), n*limitGroupSize)]
	var totMS, totMB float64
	for _, l := range byCost {
		totMS += l.costMS
		totMB += l.allocMB
	}
	meanMS, meanMB := totMS/float64(n), totMB/float64(n)
	dev := func(g []limitRef) float64 {
		var ms, mb float64
		for _, l := range g {
			ms += l.costMS
			mb += l.allocMB
		}
		return (ms/meanMS-1)*(ms/meanMS-1) + (mb/meanMB-1)*(mb/meanMB-1)
	}

	groups := make([][]limitRef, n)
	for k, l := range byCost {
		g := k % n
		if (k/n)%2 == 1 {
			g = n - 1 - g
		}
		groups[g] = append(groups[g], l)
	}
	for improved := true; improved; {
		improved = false
		for x := range groups {
			for y := x + 1; y < n; y++ {
				for i := range groups[x] {
					for j := range groups[y] {
						before := dev(groups[x]) + dev(groups[y])
						groups[x][i], groups[y][j] = groups[y][j], groups[x][i]
						if dev(groups[x])+dev(groups[y]) < before-1e-12 {
							improved = true
						} else {
							groups[x][i], groups[y][j] = groups[y][j], groups[x][i]
						}
					}
				}
			}
		}
	}
	return groups
}

// benchRef is one (workload, input) preparation.
type benchRef struct{ workload, input string }

// benches lists every bench an iteration requests, in first-use order.
func (p *plan) benches() []benchRef {
	var out []benchRef
	seen := map[benchRef]bool{}
	add := func(b benchRef) {
		if !seen[b] {
			seen[b] = true
			out = append(out, b)
		}
	}
	for _, s := range p.steps {
		if s.sweep == nil {
			add(benchRef{s.limit, limitInput})
			continue
		}
		for _, w := range s.sweep.population() {
			add(benchRef{w.Name, "large"})
			for _, sp := range s.sweep.specs {
				if sp.ProfInput != "" {
					add(benchRef{w.Name, sp.ProfInput})
				}
			}
		}
	}
	return out
}

// setup prepares every bench of the plan through the process-wide bench
// cache, on the sweep's worker count, and returns the first error.
func (p *plan) setup() error {
	refs := p.benches()
	next := make(chan benchRef)
	errs := make([]error, workers)
	var wg sync.WaitGroup
	for k := 0; k < workers; k++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for b := range next {
				if _, err := core.PrepareSharedByName(b.workload, b.input); err != nil && errs[k] == nil {
					errs[k] = err
				}
			}
		}()
	}
	for _, b := range refs {
		next <- b
	}
	close(next)
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// section is the output of one core call (or of Table 1), as rendered.
type section struct {
	key   string
	fn    string    // the core function called
	def   *sweepDef // the sweep, for sweep sections
	text  string
	ops   int // (workload, series) points or limit-study subsets
	ms    float64
	sweep *core.SweepResult
	limit *core.LimitResult
	err   error
}

// run makes one timed iteration: every core call of the plan, rendered as
// mgreport renders it. A failing call is recorded in its section and the
// iteration goes on.
func (p *plan) run() []section {
	var out []section
	if p.table1 {
		out = append(out, section{key: "Table1", text: renderTable1()})
	}
	opts := core.Options{Input: "large", Workers: workers}
	for _, s := range p.steps {
		sec := section{key: s.key(), fn: "LimitStudy", def: s.sweep}
		t0 := time.Now()
		if s.sweep != nil {
			sec.fn = s.sweep.name
			sec.ops = len(s.sweep.population()) * len(s.sweep.specs)
			sec.sweep, sec.err = s.sweep.run(opts)
			if sec.err == nil {
				sec.text = renderSweep(sec.sweep.Perf, sec.sweep.Coverage)
			}
		} else {
			sec.ops = 1 << 10
			sec.limit, sec.err = core.LimitStudy(s.limit, limitInput, workers)
			if sec.err == nil {
				sec.ops = len(sec.limit.Points)
				sec.text = renderLimit(sec.limit, limitInput)
			}
		}
		sec.ms = msSince(t0)
		out = append(out, sec)
	}
	return out
}
