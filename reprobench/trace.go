package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"log"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"

	"repro/internal/core"
	"repro/internal/emu"
	"repro/internal/metrics"
	"repro/internal/minigraph"
	"repro/internal/pipeline"
	"repro/internal/prog"
	"repro/internal/selector"
	"repro/internal/simcache"
	"repro/internal/slack"
	"repro/internal/stats"
	"repro/internal/workload"
)

// The traced run answers "which layer did the time go to". It makes one
// untraced iteration through internal/core (the same calls the timed runs
// make), then replays that iteration's distinct work on one goroutine,
// calling each layer's public function directly in the order a sweep task
// does: workload.Build, emu.Run and minigraph.Enumerate per bench;
// pipeline.Run with a slack.Accumulator and Accumulator.Profile per
// profile; selector.Pool, minigraph.Select and pipeline.Run per point;
// stats rendering per sweep. Result reuse follows the program's own
// cache keys (core.TaskKey), so the replay simulates exactly what the
// sweep simulated, and it must reproduce every reported value. The
// replay runs twice, untraced and traced, and the wall-time difference is
// the tracing overhead. Spans are kept in memory and written to
// .bench_build/spans/ when the run ends.

// span is one timed call (or a task grouping calls), with its parent.
type span struct {
	ID       int32   `json:"id"`
	Parent   int32   `json:"parent"`
	Name     string  `json:"name"`
	StartUS  float64 `json:"start_us"`
	DurUS    float64 `json:"dur_us"`
	Workload string  `json:"workload,omitempty"`
	Detail   string  `json:"detail,omitempty"`
	Instrs   int64   `json:"instrs,omitempty"`
	AllocB   uint64  `json:"alloc_bytes,omitempty"`
}

// layerAgg sums the calls of one layer function.
type layerAgg struct {
	ms     []float64 // per call
	totMS  float64
	instrs int64
	alloc  uint64
}

type tracer struct {
	t0    time.Time
	spans []span
	aggs  map[string]*layerAgg
}

// tasks group layer calls in the span tree but are not layers themselves.
const taskPrefix = "task."

// lbench is a bench the replay prepared itself.
type lbench struct {
	w     *workload.Workload
	input string
	prog  *prog.Program
	trace []emu.Rec
	freq  []int64
	cands []*minigraph.Candidate
}

type profKey struct {
	b   *lbench
	cfg simcache.Key
}

type layerPass struct {
	tr       *tracer // nil for the untraced replay
	parent   int32
	benches  map[benchRef]*lbench
	results  map[simcache.Key]*pipeline.Stats
	profiles map[profKey]*slack.Profile
	// resultSims counts simulations under result-cache keys; runs counts
	// every pipeline.Run (those, profiles and limit-study subsets).
	resultSims, runs int64
}

func newLayerPass(tr *tracer) *layerPass {
	return &layerPass{tr: tr, parent: -1, benches: map[benchRef]*lbench{},
		results: map[simcache.Key]*pipeline.Stats{}, profiles: map[profKey]*slack.Profile{}}
}

// call runs f, timing it as one span of layer name when tracing. f returns
// the instructions it simulated or emulated (0 when that means nothing).
// Allocation deltas come from runtime/metrics, exact on one goroutine.
func (lp *layerPass) call(name, wl, detail string, f func() int64) {
	tr := lp.tr
	if tr == nil {
		f()
		return
	}
	id := int32(len(tr.spans))
	tr.spans = append(tr.spans, span{ID: id, Parent: lp.parent, Name: name, Workload: wl, Detail: detail})
	parent := lp.parent
	lp.parent = id
	a0, t0 := heapAllocBytes(), time.Now()
	instrs := f()
	dur, alloc := time.Since(t0), heapAllocBytes()-a0
	lp.parent = parent
	sp := &tr.spans[id]
	sp.StartUS = float64(t0.Sub(tr.t0)) / 1e3
	sp.DurUS = float64(dur) / 1e3
	sp.Instrs, sp.AllocB = instrs, alloc
	ag := tr.aggs[name]
	if ag == nil {
		ag = &layerAgg{}
		tr.aggs[name] = ag
	}
	ms := float64(dur) / 1e6
	ag.ms = append(ag.ms, ms)
	ag.totMS += ms
	ag.instrs += instrs
	ag.alloc += alloc
}

// bench mirrors core.Prepare.
func (lp *layerPass) bench(name, input string) (*lbench, error) {
	key := benchRef{name, input}
	if b := lp.benches[key]; b != nil {
		return b, nil
	}
	w := workload.Find(name)
	if w == nil {
		return nil, fmt.Errorf("unknown workload %q", name)
	}
	b := &lbench{w: w, input: input}
	var (
		want     uint32
		verified bool
		res      *emu.Result
		err      error
	)
	lp.call("workload.build", name, input, func() int64 {
		b.prog, want, verified, err = w.Build(input)
		return 0
	})
	if err != nil {
		return nil, err
	}
	lp.call("emu.run", name, input, func() int64 {
		if res, err = emu.Run(b.prog, emu.Options{CollectTrace: true}); err != nil {
			return 0
		}
		return res.DynInstrs
	})
	if err != nil {
		return nil, err
	}
	if verified && res.Checksum() != want {
		return nil, fmt.Errorf("%s/%s: checksum %#x, want %#x", name, input, res.Checksum(), want)
	}
	b.trace = res.Trace
	b.freq = make([]int64, b.prog.NumInstrs())
	for _, r := range res.Trace {
		b.freq[r.Index]++
	}
	lp.call("minigraph.enumerate", name, input, func() int64 {
		b.cands = minigraph.Enumerate(b.prog, minigraph.DefaultLimits())
		return 0
	})
	lp.benches[key] = b
	return b, nil
}

// mgConfigFor mirrors core's assembly of a run's mini-graph configuration.
func mgConfigFor(sel *selector.Selector, chosen *minigraph.Selection) pipeline.MGConfig {
	mg := pipeline.MGConfig{}
	if chosen != nil && len(chosen.Instances) > 0 {
		mg.Selection = chosen
		if sel != nil {
			mg.Dynamic = sel.Dyn.Dynamic
			mg.DynamicDelayOnly = sel.Dyn.DelayOnly
			mg.DynamicSIAL = sel.Dyn.SIAL
			mg.IdealOutlining = sel.Dyn.IdealOutlining
		}
	}
	return mg
}

// simulate is one timing run, traced as pipeline.simulate.<kind>.
func (lp *layerPass) simulate(b *lbench, cfg pipeline.Config, mg pipeline.MGConfig) (*pipeline.Stats, error) {
	kind := "minigraph"
	if mg.Selection == nil {
		kind = "singleton"
	} else if mg.Dynamic {
		kind = "slackdyn"
	}
	var st *pipeline.Stats
	var err error
	lp.call("pipeline.simulate."+kind, b.w.Name, cfg.Name, func() int64 {
		if st, err = pipeline.Run(b.prog, b.trace, cfg, mg, nil); err != nil {
			return 0
		}
		return st.Instrs
	})
	lp.runs++
	return st, err
}

func benchID(b *lbench) *core.Bench { return &core.Bench{Workload: b.w, Input: b.input} }

// singleton mirrors core's cached singleton run.
func (lp *layerPass) singleton(b *lbench, cfg pipeline.Config) (*pipeline.Stats, error) {
	key := core.TaskKey(benchID(b), nil, cfg, "", cfg, nil)
	if st := lp.results[key]; st != nil {
		return st, nil
	}
	st, err := lp.simulate(b, cfg, pipeline.MGConfig{})
	if err != nil {
		return nil, err
	}
	lp.results[key] = st
	lp.resultSims++
	return st, nil
}

// profile mirrors core.Bench.Profile: a singleton run feeding a slack
// accumulator, then the fold into a profile.
func (lp *layerPass) profile(b *lbench, cfg pipeline.Config) (*slack.Profile, error) {
	key := profKey{b, simcache.Fingerprint(cfg)}
	if p := lp.profiles[key]; p != nil {
		return p, nil
	}
	var acc *slack.Accumulator
	var err error
	lp.call("pipeline.profile", b.w.Name, cfg.Name, func() int64 {
		acc = slack.NewAccumulator(b.prog.Name, b.prog.NumInstrs())
		st, e := pipeline.Run(b.prog, b.trace, cfg, pipeline.MGConfig{}, acc)
		if err = e; err != nil {
			return 0
		}
		return st.Instrs
	})
	lp.runs++
	if err != nil {
		return nil, err
	}
	var p *slack.Profile
	lp.call("slack.fold", b.w.Name, cfg.Name, func() int64 {
		p = acc.Profile()
		return 0
	})
	lp.profiles[key] = p
	return p, nil
}

// eval mirrors core's cached series point: profile if the policy needs
// one (possibly on the other input), pool, select, simulate.
func (lp *layerPass) eval(b *lbench, sp core.SeriesSpec) (*pipeline.Stats, error) {
	profCfg := sp.Cfg
	if sp.ProfCfg != nil {
		profCfg = *sp.ProfCfg
	}
	key := core.TaskKey(benchID(b), sp.Sel, profCfg, sp.ProfInput, sp.Cfg, nil)
	if st := lp.results[key]; st != nil {
		return st, nil
	}
	var prof *slack.Profile
	if sp.Sel.NeedsProfile() {
		pb := b
		if sp.ProfInput != "" && sp.ProfInput != b.input {
			var err error
			if pb, err = lp.bench(b.w.Name, sp.ProfInput); err != nil {
				return nil, err
			}
		}
		var err error
		if prof, err = lp.profile(pb, profCfg); err != nil {
			return nil, err
		}
	}
	var pool []*minigraph.Candidate
	lp.call("selector.pool", b.w.Name, sp.Sel.Name(), func() int64 {
		pool = sp.Sel.Pool(b.prog, b.cands, prof)
		return 0
	})
	var chosen *minigraph.Selection
	lp.call("minigraph.select", b.w.Name, sp.Sel.Name(), func() int64 {
		chosen = minigraph.Select(b.prog, pool, b.freq, minigraph.DefaultSelectConfig())
		return 0
	})
	st, err := lp.simulate(b, sp.Cfg, mgConfigFor(sp.Sel, chosen))
	if err != nil {
		return nil, err
	}
	lp.results[key] = st
	lp.resultSims++
	return st, nil
}

// sweep replays one sweep task by task, (workload, spec) in the sweep's
// scheduling order, and renders it as mgreport does.
func (lp *layerPass) sweep(def *sweepDef, title string) (*core.SweepResult, string, error) {
	res := &core.SweepResult{Perf: &stats.Report{Title: title}, Coverage: &stats.Report{Title: title + " — coverage"}}
	for _, sp := range def.specs {
		res.Perf.Add(stats.NewSeries(sp.Label))
		res.Coverage.Add(stats.NewSeries(sp.Label))
	}
	var err error
	for _, w := range def.population() {
		for si, sp := range def.specs {
			lp.call(taskPrefix+"point", w.Name, sp.Label, func() int64 {
				var b *lbench
				var base, st *pipeline.Stats
				if b, err = lp.bench(w.Name, "large"); err != nil {
					return 0
				}
				if base, err = lp.singleton(b, pipeline.Baseline()); err != nil {
					return 0
				}
				if sp.Sel == nil {
					st, err = lp.singleton(b, sp.Cfg)
				} else {
					st, err = lp.eval(b, sp)
				}
				if err != nil {
					return 0
				}
				res.Perf.Series[si].Add(w.Name, float64(base.Cycles)/float64(st.Cycles))
				res.Coverage.Series[si].Add(w.Name, st.Coverage())
				return 0
			})
			if err != nil {
				return nil, "", err
			}
		}
	}
	var text string
	lp.call("stats.render", "", def.name, func() int64 {
		text = renderSweep(res.Perf, res.Coverage)
		return 0
	})
	return res, text, nil
}

// limit replays core.LimitStudy on the candidates the timed call chose.
func (lp *layerPass) limit(want *core.LimitResult) (*core.LimitResult, string, error) {
	b, err := lp.bench(want.Workload, limitInput)
	if err != nil {
		return nil, "", err
	}
	baseStats, err := lp.singleton(b, pipeline.Baseline())
	if err != nil {
		return nil, "", err
	}
	top := want.Candidates
	n := len(top)
	red := pipeline.Reduced()
	lr := &core.LimitResult{Workload: want.Workload, Candidates: top,
		Points: make([]core.LimitPoint, 1<<n), Choices: map[string]uint32{}}
	for mask := 0; mask < 1<<n; mask++ {
		lp.call(taskPrefix+"subset", b.w.Name, fmt.Sprintf("%b", mask), func() int64 {
			var subset []*minigraph.Candidate
			for i := 0; i < n; i++ {
				if mask&(1<<i) != 0 {
					subset = append(subset, top[i])
				}
			}
			var sel *minigraph.Selection
			lp.call("minigraph.select", b.w.Name, "subset", func() int64 {
				sel = minigraph.Select(b.prog, subset, b.freq, minigraph.DefaultSelectConfig())
				return 0
			})
			var st *pipeline.Stats
			if st, err = lp.simulate(b, red, mgConfigFor(nil, sel)); err != nil {
				return 0
			}
			lr.Points[mask] = core.LimitPoint{Mask: uint32(mask), Coverage: st.Coverage(),
				RelPerf: float64(baseStats.Cycles) / float64(st.Cycles)}
			return 0
		})
		if err != nil {
			return nil, "", err
		}
	}
	lr.Best = lr.Points[0]
	for _, pt := range lr.Points {
		if pt.RelPerf > lr.Best.RelPerf {
			lr.Best = pt
		}
	}
	prof, err := lp.profile(b, red)
	if err != nil {
		return nil, "", err
	}
	for _, name := range limitSelectors {
		sel := limitSelector(name)
		var pool []*minigraph.Candidate
		lp.call("selector.pool", b.w.Name, name, func() int64 {
			pool = sel.Pool(b.prog, top, prof)
			return 0
		})
		var mask uint32
		for i, c := range top {
			for _, k := range pool {
				if k == c {
					mask |= 1 << uint(i)
				}
			}
		}
		lr.Choices[name] = mask
	}
	var text string
	lp.call("stats.render", "", "LimitStudy", func() int64 {
		text = renderLimit(lr, limitInput)
		return 0
	})
	return lr, text, nil
}

// replay re-derives every section of a timed iteration and returns the
// operations whose values or rendering differ from what core reported.
func (lp *layerPass) replay(secs []section) (mismatched int, err error) {
	for _, s := range secs {
		switch {
		case s.err != nil:
		case s.sweep != nil:
			res, text, err := lp.sweep(s.def, s.sweep.Perf.Title)
			if err != nil {
				return 0, err
			}
			if digestSweep(res) != digestSweep(s.sweep) || text != s.text {
				mismatched += s.ops
			}
		case s.limit != nil:
			lr, text, err := lp.limit(s.limit)
			if err != nil {
				return 0, err
			}
			if digestLimit(lr) != digestLimit(s.limit) || text != s.text {
				mismatched += s.ops
			}
		}
	}
	return mismatched, nil
}

// traced makes the per-layer run: one untraced iteration through core
// (output-checked like a timed run), then the untraced and traced replays,
// which must reproduce it.
func traced(p *plan, ref *reference, name string, seed int64) (*result, error) {
	// The pipeline's own run counter (a counter, not a span) gives the
	// number of simulations the core iteration made.
	reg := metrics.NewRegistry()
	pipeline.InstallMetrics(reg)
	simRuns := reg.Counter("mg_sim_runs_total", "")

	res := &result{Correct: true}
	core.ResetCaches()
	runtime.GC()
	if err := p.setup(); err != nil {
		log.Print("set-up: ", err)
	}
	runtime.GC()
	runs0 := simRuns.Value()
	gc0, pause0 := gcStats()
	cpu0 := processCPU()
	secs := p.run()
	cpuS := (processCPU() - cpu0).Seconds()
	gc1, pause1 := gcStats()
	sweepRuns := simRuns.Value() - runs0
	caches := core.Caches()
	if err := res.check(p, secs, ref); err != nil {
		return nil, err
	}
	core.ResetCaches()

	replay := func(tr *tracer) (*layerPass, time.Duration, int, error) {
		runtime.GC()
		lp := newLayerPass(tr)
		t0 := time.Now()
		if tr != nil {
			tr.t0 = t0
		}
		bad, err := lp.replay(secs)
		return lp, time.Since(t0), bad, err
	}
	_, plainWall, _, err := replay(nil)
	if err != nil {
		return nil, fmt.Errorf("untraced replay: %w", err)
	}
	tr := &tracer{aggs: map[string]*layerAgg{}}
	lp, tracedWall, bad, err := replay(tr)
	if err != nil {
		return nil, fmt.Errorf("traced replay: %w", err)
	}
	if bad > 0 || lp.resultSims != caches.Results.Misses || lp.runs != sweepRuns {
		log.Printf("traced replay differs from the timed run: %d operations differ; %d result simulations vs %d result-cache misses; %d pipeline runs vs %d",
			bad, lp.resultSims, caches.Results.Misses, lp.runs, sweepRuns)
		res.Correct = false
		res.Failed += max(bad, 1)
	}
	if err := writeSpans(name, seed, tr.spans); err != nil {
		return nil, err
	}

	layer := func(n string) *layerAgg {
		if a := tr.aggs[n]; a != nil {
			return a
		}
		return &layerAgg{}
	}
	sumMS := func(ns ...string) float64 {
		t := 0.0
		for _, n := range ns {
			t += layer(n).totMS
		}
		return t
	}
	mips := func(a *layerAgg) float64 {
		if a.totMS == 0 {
			return 0
		}
		return float64(a.instrs) / (a.totMS * 1e3)
	}
	perCall := func(a *layerAgg, unit float64) float64 {
		if len(a.ms) == 0 {
			return 0
		}
		return float64(a.alloc) / float64(len(a.ms)) / unit
	}
	timing := func(prefix string, a *layerAgg) {
		s := append([]float64(nil), a.ms...)
		sort.Float64s(s)
		res.set(prefix+"_ms", a.totMS, "ms")
		res.set(prefix+"_calls", float64(len(s)), "count")
		res.set(prefix+"_p50_ms", percentile(s, 0.50), "ms")
		res.set(prefix+"_p99_ms", percentile(s, 0.99), "ms")
		res.set(prefix+"_mips", mips(a), "MIPS")
	}

	prof := layer("pipeline.profile")
	timing("pipeline.profile", prof)
	res.set("pipeline.profile_alloc_mb", perCall(prof, 1<<20), "MB")
	res.set("slack.fold_ms", layer("slack.fold").totMS, "ms")
	kinds := []string{"singleton", "minigraph", "slackdyn"}
	var simMS float64
	var simCalls int
	for _, k := range kinds {
		a := layer("pipeline.simulate." + k)
		timing("pipeline.simulate."+k, a)
		res.set("pipeline.simulate."+k+"_alloc_kb", perCall(a, 1<<10), "KB")
		simMS += a.totMS
		simCalls += len(a.ms)
	}
	res.set("pipeline.simulate_ms", simMS, "ms")
	res.set("pipeline.simulate_calls", float64(simCalls), "count")
	sel := layer("minigraph.select")
	selSorted := append([]float64(nil), sel.ms...)
	sort.Float64s(selSorted)
	res.set("minigraph.select_ms", sel.totMS, "ms")
	res.set("minigraph.select_calls", float64(len(sel.ms)), "count")
	res.set("minigraph.select_p99_ms", percentile(selSorted, 0.99), "ms")
	res.set("selector.pool_ms", layer("selector.pool").totMS, "ms")
	res.set("workload.build_ms", layer("workload.build").totMS, "ms")
	res.set("emu.run_ms", layer("emu.run").totMS, "ms")
	res.set("emu.mips", mips(layer("emu.run")), "MIPS")
	res.set("minigraph.enumerate_ms", layer("minigraph.enumerate").totMS, "ms")
	res.set("stats.render_ms", layer("stats.render").totMS, "ms")

	lookups := caches.Results.Hits + caches.Results.Shared + caches.Results.Misses
	res.set("simcache.results_misses", float64(caches.Results.Misses), "count")
	res.set("simcache.results_reuse_ratio", float64(lookups-caches.Results.Misses)/float64(max(lookups, 1)), "ratio")
	res.set("simcache.benches_misses", float64(caches.Benches.Misses), "count")
	coreMS := map[string]float64{}
	for _, s := range secs {
		if s.key != "Table1" {
			coreMS[s.fn] += s.ms
		}
	}
	for _, fn := range coreFuncs {
		res.set("core."+fn+"_ms", coreMS[fn], "ms")
	}
	res.set("runtime.gc_cycles", float64(gc1-gc0), "count")
	res.set("runtime.gc_pause_ms", float64(pause1-pause0)/1e6, "ms")

	setupMS := sumMS("workload.build", "emu.run", "minigraph.enumerate")
	profMS := sumMS("pipeline.profile", "slack.fold")
	selMS := sumMS("selector.pool", "minigraph.select")
	total := setupMS + profMS + selMS + simMS + layer("stats.render").totMS
	res.set("trace.layer_ms", total, "ms")
	res.set("trace.overhead_pct", 100*(tracedWall.Seconds()-plainWall.Seconds())/plainWall.Seconds(), "%")
	res.set("core.unattributed_cpu_s", cpuS-(total-setupMS)/1e3, "s")
	log.Printf("layer shares: set-up %.1f%%, profile %.1f%%, select %.1f%%, simulate %.1f%%",
		100*setupMS/total, 100*profMS/total, 100*selMS/total, 100*simMS/total)
	return res, nil
}

// coreFuncs are the public core calls a workload can make, one
// core.<name>_ms metric each (0 where a workload does not call it).
var coreFuncs = []string{"Fig1", "Fig3Top", "Fig3Bottom", "Fig6Top", "Fig6Middle",
	"Fig7Top", "Fig7Bottom", "LimitStudy", "Fig9Top", "Fig9Bottom"}

// writeSpans writes the traced replay's spans as JSON lines.
func writeSpans(name string, seed int64, spans []span) error {
	dir := filepath.Join(".bench_build", "spans")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	path := filepath.Join(dir, fmt.Sprintf("%s-seed%d.jsonl", name, seed))
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for i := range spans {
		if err := enc.Encode(&spans[i]); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	log.Printf("%d spans written to %s", len(spans), path)
	return f.Close()
}
