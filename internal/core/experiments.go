package core

import (
	"context"
	"fmt"
	"io"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/metrics"
	"repro/internal/minigraph"
	"repro/internal/obs"
	"repro/internal/pipeline"
	"repro/internal/selector"
	"repro/internal/simcache"
	"repro/internal/slack"
	"repro/internal/stats"
	"repro/internal/workload"
)

// Options configures an experiment sweep.
type Options struct {
	// Input is the input set to run ("large" by default).
	Input string
	// Suites restricts the workload population (nil = all four suites).
	Suites []string
	// Workloads further restricts the population to exact workload names
	// (applied after Suites; nil = no name filter).
	Workloads []string
	// Workers bounds parallelism (0 = GOMAXPROCS); the effective worker
	// count is additionally capped at the number of schedulable tasks.
	Workers int
	// Progress receives one line per completed workload when non-nil.
	Progress io.Writer
	// NoCache bypasses the process-wide simulation caches: every workload
	// is re-prepared and every series re-simulated from scratch (the
	// timing-accuracy debugging path).
	NoCache bool
	// Obs enables per-series-point observability outputs (pipetrace and
	// interval files under Obs.Dir). Observed series runs bypass the
	// result cache — the trace is a side effect a cache hit would swallow
	// — so traces are produced on every run and are byte-identical
	// regardless of worker count or cache mode (each simulation is
	// single-threaded and deterministic).
	Obs *obs.Options
	// Watchdog arms the sweep watchdog (slow-task and wedge detection on
	// /debug/sweep and the telemetry log) when non-nil. See WatchdogConfig
	// for the thresholds; the zero value selects all defaults.
	Watchdog *WatchdogConfig
}

func (o Options) input() string {
	if o.Input == "" {
		return "large"
	}
	return o.Input
}

func (o Options) workers() int {
	if o.Workers > 0 {
		return o.Workers
	}
	return runtime.GOMAXPROCS(0)
}

func (o Options) workloads() []*workload.Workload {
	ws := workload.All()
	if len(o.Suites) > 0 {
		ws = ws[:0:0]
		for _, s := range o.Suites {
			ws = append(ws, workload.BySuite(s)...)
		}
	}
	if len(o.Workloads) == 0 {
		return ws
	}
	keep := make(map[string]bool, len(o.Workloads))
	for _, n := range o.Workloads {
		keep[n] = true
	}
	var out []*workload.Workload
	for _, w := range ws {
		if keep[w.Name] {
			out = append(out, w)
		}
	}
	return out
}

// SeriesSpec describes one experiment line: a machine configuration plus a
// selection policy (nil Sel = singleton execution, no mini-graphs).
// ProfCfg overrides the profiling configuration (self-trained on the run
// configuration when nil); ProfInput overrides the profiling input set.
type SeriesSpec struct {
	Label     string
	Cfg       pipeline.Config
	Sel       *selector.Selector
	ProfCfg   *pipeline.Config
	ProfInput string
}

// SweepResult carries one experiment's outcome: performance relative to the
// fully-provisioned singleton baseline, plus coverage per series.
type SweepResult struct {
	Perf     *stats.Report
	Coverage *stats.Report
}

// RunSweep evaluates every spec on every workload. Performance is reported
// as IPC relative to the fully-provisioned baseline without mini-graphs
// (the paper's y=1 line); coverage as the fraction of dynamic instructions
// embedded in mini-graphs.
//
// Scheduling is fine-grained: a bounded worker pool drains one task per
// (workload, spec) pair, and all config-invariant work — workload
// preparation, the fully-provisioned baseline, slack profiles, whole
// repeated series — is deduplicated through the process-wide caches
// (singleflight, so two tasks needing the same profile or baseline never
// compute it twice). Series ordering in the report is deterministic
// regardless of completion order.
func RunSweep(title string, opts Options, specs []SeriesSpec) (*SweepResult, error) {
	started := time.Now()
	// Each sweep is one trace process: tid 0 is the orchestrator, worker k
	// runs as tid k+1.
	ctx := metrics.WithTask(context.Background(), metrics.NextPid(), 0)
	ctx, sweepSpan := metrics.StartSpan(ctx, "sweep",
		metrics.L("title", title), metrics.L("input", opts.input()))
	defer sweepSpan.End()
	sweepSeries.sweeps.Inc()
	if l := tlog(); l != nil {
		l.Info("sweep.start", "title", title, "input", opts.input(),
			"workers", opts.workers(), "nocache", opts.NoCache, "observed", opts.Obs.Active())
	}
	res := &SweepResult{
		Perf:     &stats.Report{Title: title},
		Coverage: &stats.Report{Title: title + " — coverage"},
	}
	perfSeries := make([]*stats.Series, len(specs))
	covSeries := make([]*stats.Series, len(specs))
	for i, sp := range specs {
		perfSeries[i] = stats.NewSeries(sp.Label)
		covSeries[i] = stats.NewSeries(sp.Label)
		res.Perf.Add(perfSeries[i])
		res.Coverage.Add(covSeries[i])
	}

	ws := opts.workloads()
	// Live-progress tracking for /debug/sweep: one entry per (workload,
	// series) task, in the same order both execution paths schedule them.
	refs := make([][2]string, 0, len(ws)*len(specs))
	for _, w := range ws {
		for _, sp := range specs {
			refs = append(refs, [2]string{w.Name, sp.Label})
		}
	}
	track := metrics.StartSweep(title, refs)
	defer track.Finish()
	if opts.Watchdog != nil {
		wd := StartWatchdog(track, title, *opts.Watchdog)
		defer wd.Stop()
	}

	if opts.NoCache {
		meta, err := runSweepUncached(ctx, title, opts, ws, specs, perfSeries, covSeries, track)
		if err != nil {
			return nil, err
		}
		if err := writeSweepManifest(title, opts, started, meta); err != nil {
			return nil, err
		}
		sweepFinishLog(title, started, len(ws)*len(specs))
		return res, nil
	}

	type task struct{ wi, si int }
	tasks := make([]task, 0, len(ws)*len(specs))
	for wi := range ws {
		for si := range specs {
			tasks = append(tasks, task{wi, si})
		}
	}
	vals := make([][2]float64, len(tasks)) // perf, coverage per task
	errs := make([]error, len(tasks))
	meta := make([]obs.ManifestTask, len(tasks))
	pending := make([]int32, len(ws)) // specs left per workload (progress)
	for i := range pending {
		pending[i] = int32(len(specs))
	}

	workers := opts.workers()
	if workers > len(tasks) {
		workers = len(tasks)
	}
	var mu sync.Mutex // guards Progress writer
	next := make(chan int)
	var wg sync.WaitGroup
	for k := 0; k < workers; k++ {
		wg.Add(1)
		go func(k int) {
			defer wg.Done()
			// Pin the worker to its OS thread so RUSAGE_THREAD deltas
			// attribute each task's CPU time exactly (sweep tasks simulate
			// single-goroutine, so nothing escapes the pinned thread).
			runtime.LockOSThread()
			defer runtime.UnlockOSThread()
			wctx := metrics.WithTid(ctx, k+1) // worker k is trace tid k+1 (same pid as the sweep)
			for ti := range next {
				t := tasks[ti]
				w := ws[t.wi]
				sp := specs[t.si]
				if l := tlog(); l != nil {
					l.Info("task.start", "sweep", title, "workload", w.Name,
						"series", sp.Label, "worker", k)
				}
				track.TaskRunning(ti, k)
				t0 := time.Now()
				um := metrics.MarkUsage()
				tctx, span := metrics.StartSpan(wctx, "task",
					metrics.L("workload", w.Name), metrics.L("series", sp.Label))
				var r specResult
				var err error
				// Label the task's goroutine so CPU profiles grabbed from
				// /debug/pprof attribute samples to (workload, spec).
				pprof.Do(tctx, pprof.Labels("workload", w.Name, "spec", sp.Label), func(ctx context.Context) {
					r, err = evalSpec(ctx, w, opts.input(), sp, opts.Obs)
				})
				use := um.Since()
				if metrics.CPUAccountingOn() {
					span.SetCPUNanos(use.CPUNanos)
				}
				span.SetAttr("cache", r.outcome)
				span.End()
				vals[ti] = [2]float64{r.perf, r.cov}
				errs[ti] = err
				meta[ti] = manifestTask(w.Name, sp.Label, k, t0, r.outcome, r.files, r.idx, err)
				appendTaskRecord(title, w.Name, sp.Label, opts.input(), r.key, r.stats, r.outcome, t0, err, use)
				track.TaskDone(ti, r.outcome, err)
				noteTaskMetrics(meta[ti])
				if l := tlog(); l != nil {
					l.Info("task.finish", "sweep", title, "workload", w.Name,
						"series", sp.Label, "worker", k,
						"wall_ms", meta[ti].WallMS, "cache", r.outcome)
				}
				if atomic.AddInt32(&pending[t.wi], -1) == 0 && opts.Progress != nil {
					mu.Lock()
					fmt.Fprintf(opts.Progress, "done %s\n", w.Name)
					mu.Unlock()
				}
			}
		}(k)
	}
	for ti := range tasks {
		next <- ti
	}
	close(next)
	wg.Wait()

	for ti, t := range tasks {
		if err := errs[ti]; err != nil {
			return nil, fmt.Errorf("%s: %w", ws[t.wi].Name, err)
		}
		perfSeries[t.si].Add(ws[t.wi].Name, vals[ti][0])
		covSeries[t.si].Add(ws[t.wi].Name, vals[ti][1])
	}
	if err := writeSweepManifest(title, opts, started, meta); err != nil {
		return nil, err
	}
	sweepFinishLog(title, started, len(tasks))
	return res, nil
}

// manifestTask assembles one manifest entry from a finished task.
func manifestTask(workload, series string, worker int, started time.Time, outcome string, files []string, idx *obs.IndexInfo, err error) obs.ManifestTask {
	mt := obs.ManifestTask{
		Workload: workload,
		Series:   series,
		Worker:   worker,
		WallMS:   float64(time.Since(started)) / float64(time.Millisecond),
		Cache:    outcome,
		Files:    files,
		Index:    idx,
	}
	if err != nil {
		mt.Error = err.Error()
	}
	return mt
}

// writeSweepManifest writes the run manifest into the observability
// directory; a no-op when observability is off.
func writeSweepManifest(title string, opts Options, started time.Time, tasks []obs.ManifestTask) error {
	if !opts.Obs.Active() {
		return nil
	}
	m := &obs.Manifest{
		Tool:    "sweep",
		Title:   title,
		Started: started.UTC().Format(time.RFC3339),
		WallMS:  float64(time.Since(started)) / float64(time.Millisecond),
		Input:   opts.input(),
		Workers: opts.workers(),
		Flags: map[string]string{
			"pipetrace":     fmt.Sprint(opts.Obs.Pipetrace),
			"pipetrace-bin": fmt.Sprint(opts.Obs.PipetraceBin),
			"intervals":     fmt.Sprint(opts.Obs.IntervalEvery),
			"index-every":   fmt.Sprint(opts.Obs.IndexEvery),
			"nocache":       fmt.Sprint(opts.NoCache),
		},
		Spans: metrics.TraceOut(),
		Tasks: tasks,
	}
	return obs.WriteManifest(filepath.Join(opts.Obs.Dir, obs.Sanitize(title)+".manifest.json"), m)
}

// sweepFinishLog emits the sweep.finish telemetry event.
func sweepFinishLog(title string, started time.Time, tasks int) {
	if l := tlog(); l != nil {
		l.Info("sweep.finish", "title", title, "tasks", tasks,
			"wall_ms", float64(time.Since(started))/float64(time.Millisecond))
	}
}

// profCfgOf resolves a spec's profiling configuration (self-trained on the
// run configuration unless overridden).
func profCfgOf(sp SeriesSpec) pipeline.Config {
	if sp.ProfCfg != nil {
		return *sp.ProfCfg
	}
	return sp.Cfg
}

// specResult carries everything one evaluated series point produces:
// the report values (relative performance, coverage), the raw simulation
// stats and cache key for the run ledger, and the cache outcome plus
// observability files for telemetry.
type specResult struct {
	perf, cov float64
	outcome   string
	files     []string
	idx       *obs.IndexInfo
	stats     *pipeline.Stats
	key       simcache.Key
}

// evalSpec computes one (workload, spec) point through the caches.
func evalSpec(ctx context.Context, w *workload.Workload, input string, sp SeriesSpec, o *obs.Options) (specResult, error) {
	var r specResult
	bench, err := PrepareSharedCtx(ctx, w, input)
	if err != nil {
		return r, err
	}
	r.key = TaskKey(bench, sp.Sel, profCfgOf(sp), sp.ProfInput, sp.Cfg, nil)
	baseStats, err := singletonStats(ctx, bench, pipeline.Baseline())
	if err != nil {
		return r, err
	}
	var st *pipeline.Stats
	if o.Active() {
		st, r.files, r.idx, err = runSpecObserved(ctx, bench, sp, o)
		r.outcome = cacheTraced
	} else if sp.Sel == nil {
		st, r.outcome, err = singletonStatsNoted(ctx, bench, sp.Cfg)
	} else {
		st, r.outcome, err = evalStatsNoted(ctx, bench, sp.Sel, profCfgOf(sp), sp.ProfInput, sp.Cfg,
			minigraph.DefaultLimits(), minigraph.DefaultSelectConfig())
	}
	if err != nil {
		return r, err
	}
	r.stats = st
	r.perf = float64(baseStats.Cycles) / float64(st.Cycles)
	r.cov = st.Coverage()
	return r, nil
}

// runSpecObserved runs one series point with an observer attached,
// bypassing the result cache (the trace is a side effect a cache hit
// would swallow). Selection derivation still goes through the shared
// caches; only the final timing run is re-executed.
func runSpecObserved(ctx context.Context, b *Bench, sp SeriesSpec, o *obs.Options) (*pipeline.Stats, []string, *obs.IndexInfo, error) {
	watch, err := obs.NewRunObserver(o, obs.Sanitize(b.Workload.Name)+"__"+obs.Sanitize(sp.Label))
	if err != nil {
		return nil, nil, nil, err
	}
	var st *pipeline.Stats
	if sp.Sel == nil {
		_, span := metrics.StartSpan(ctx, "simulate",
			metrics.L("workload", b.Workload.Name), metrics.L("config", sp.Cfg.Name))
		st, err = b.RunSingletonObserved(sp.Cfg, watch)
		span.End()
	} else {
		var chosen *minigraph.Selection
		chosen, err = deriveSelection(ctx, b, sp.Sel, profCfgOf(sp), sp.ProfInput,
			minigraph.DefaultLimits(), minigraph.DefaultSelectConfig())
		if err == nil {
			_, span := metrics.StartSpan(ctx, "simulate",
				metrics.L("workload", b.Workload.Name), metrics.L("config", sp.Cfg.Name),
				metrics.L("policy", sp.Sel.Name()))
			st, err = b.RunObserved(sp.Cfg, sp.Sel, chosen, watch)
			span.End()
		}
	}
	if cerr := watch.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return nil, watch.Files(), watch.IndexInfo(), err
	}
	return st, watch.Files(), watch.IndexInfo(), nil
}

// runSweepUncached is the -nocache path: per-workload goroutines, fresh
// preparation and simulation for every series, nothing shared across
// sweeps. It exists so timing-accuracy investigations can rule the caches
// out, and as the reference the cached path is tested against. Returns
// one manifest entry per (workload, spec), in task order.
func runSweepUncached(ctx context.Context, title string, opts Options, ws []*workload.Workload, specs []SeriesSpec, perfSeries, covSeries []*stats.Series, track *metrics.SweepProgress) ([]obs.ManifestTask, error) {
	var mu sync.Mutex
	var firstErr error
	var wg sync.WaitGroup
	workers := opts.workers()
	if workers > len(ws) {
		workers = len(ws)
	}
	meta := make([]obs.ManifestTask, len(ws)*len(specs))
	sem := make(chan struct{}, workers)
	for wi, w := range ws {
		wg.Add(1)
		go func(wi int, w *workload.Workload) {
			defer wg.Done()
			sem <- struct{}{}
			defer func() { <-sem }()

			vals, covs, tasks, err := evalWorkloadUncached(ctx, title, w, wi, opts, specs, track)
			copy(meta[wi*len(specs):], tasks)
			mu.Lock()
			defer mu.Unlock()
			if err != nil {
				if firstErr == nil {
					firstErr = fmt.Errorf("%s: %w", w.Name, err)
				}
				return
			}
			for i := range specs {
				perfSeries[i].Add(w.Name, vals[i])
				covSeries[i].Add(w.Name, covs[i])
			}
			if opts.Progress != nil {
				fmt.Fprintf(opts.Progress, "done %s\n", w.Name)
			}
		}(wi, w)
	}
	wg.Wait()
	return meta, firstErr
}

// evalWorkloadUncached runs all specs for one workload from scratch and
// returns relative performance, coverage, and a manifest entry per spec.
// wi labels this workload's goroutine in telemetry (the uncached path has
// no shared worker pool).
func evalWorkloadUncached(ctx context.Context, title string, w *workload.Workload, wi int, opts Options, specs []SeriesSpec, track *metrics.SweepProgress) ([]float64, []float64, []obs.ManifestTask, error) {
	// Each workload goroutine is one trace thread (tid wi+1) within the
	// sweep; its tasks occupy the progress slots [wi*len(specs), ...).
	// Pinned to its OS thread so per-task RUSAGE_THREAD deltas are exact.
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	ctx = metrics.WithTid(ctx, wi+1)
	_, psp := metrics.StartSpan(ctx, "prepare",
		metrics.L("workload", w.Name), metrics.L("input", opts.input()))
	bench, err := Prepare(w, opts.input())
	psp.End()
	if err != nil {
		return nil, nil, nil, err
	}
	_, bsp := metrics.StartSpan(ctx, "simulate",
		metrics.L("workload", w.Name), metrics.L("config", pipeline.Baseline().Name))
	baseStats, err := bench.RunSingleton(pipeline.Baseline())
	bsp.End()
	if err != nil {
		return nil, nil, nil, err
	}
	base := baseStats.Cycles

	// Benches for cross-input profiling are prepared lazily and shared.
	crossBenches := map[string]*Bench{}

	vals := make([]float64, len(specs))
	covs := make([]float64, len(specs))
	meta := make([]obs.ManifestTask, len(specs))
	for i, sp := range specs {
		if l := tlog(); l != nil {
			l.Info("task.start", "workload", w.Name, "series", sp.Label, "worker", wi)
		}
		track.TaskRunning(wi*len(specs)+i, wi)
		t0 := time.Now()
		um := metrics.MarkUsage()
		tctx, span := metrics.StartSpan(ctx, "task",
			metrics.L("workload", w.Name), metrics.L("series", sp.Label),
			metrics.L("cache", cacheNone))
		var st *pipeline.Stats
		var files []string
		var idx *obs.IndexInfo
		// Label the task's goroutine so CPU profiles grabbed from
		// /debug/pprof attribute samples to (workload, spec).
		pprof.Do(tctx, pprof.Labels("workload", w.Name, "spec", sp.Label), func(ctx context.Context) {
			st, files, idx, err = evalSpecUncached(ctx, bench, w, sp, opts, crossBenches)
		})
		use := um.Since()
		if metrics.CPUAccountingOn() {
			span.SetCPUNanos(use.CPUNanos)
		}
		span.End()
		meta[i] = manifestTask(w.Name, sp.Label, wi, t0, cacheNone, files, idx, err)
		appendTaskRecord(title, w.Name, sp.Label, opts.input(),
			TaskKey(bench, sp.Sel, profCfgOf(sp), sp.ProfInput, sp.Cfg, nil), st, cacheNone, t0, err, use)
		track.TaskDone(wi*len(specs)+i, cacheNone, err)
		noteTaskMetrics(meta[i])
		if l := tlog(); l != nil {
			l.Info("task.finish", "workload", w.Name, "series", sp.Label,
				"worker", wi, "wall_ms", meta[i].WallMS, "cache", cacheNone)
		}
		if err != nil {
			return nil, nil, meta, err
		}
		vals[i] = float64(base) / float64(st.Cycles)
		covs[i] = st.Coverage()
	}
	return vals, covs, meta, nil
}

// evalSpecUncached evaluates one spec for a workload entirely from
// scratch. Cross-input profiling benches are prepared on demand and
// shared through crossBenches (per-workload, single goroutine — no
// locking needed).
func evalSpecUncached(ctx context.Context, bench *Bench, w *workload.Workload, sp SeriesSpec, opts Options, crossBenches map[string]*Bench) (*pipeline.Stats, []string, *obs.IndexInfo, error) {
	if sp.Sel == nil {
		return runUncachedSingleton(bench, sp, opts.Obs)
	}
	profCfg := profCfgOf(sp)
	profBench := bench
	if sp.ProfInput != "" && sp.ProfInput != opts.input() {
		pb, ok := crossBenches[sp.ProfInput]
		if !ok {
			var err error
			pb, err = Prepare(w, sp.ProfInput)
			if err != nil {
				return nil, nil, nil, err
			}
			crossBenches[sp.ProfInput] = pb
		}
		profBench = pb
	}
	var prof *slack.Profile
	if sp.Sel.NeedsProfile() {
		// Cross-input: collect the profile on the other input's bench and
		// apply it here (static indices align — the code is identical,
		// only the data differs).
		_, prsp := metrics.StartSpan(ctx, "profile",
			metrics.L("workload", w.Name), metrics.L("config", profCfg.Name))
		p, err := profBench.Profile(profCfg)
		prsp.End()
		if err != nil {
			return nil, nil, nil, err
		}
		prof = p
	}
	return runUncachedSelected(bench, sp, prof, opts.Obs)
}

// runUncachedSingleton runs a singleton series point fresh, observed when
// o is active.
func runUncachedSingleton(b *Bench, sp SeriesSpec, o *obs.Options) (*pipeline.Stats, []string, *obs.IndexInfo, error) {
	if !o.Active() {
		st, err := b.RunSingleton(sp.Cfg)
		return st, nil, nil, err
	}
	watch, err := obs.NewRunObserver(o, obs.Sanitize(b.Workload.Name)+"__"+obs.Sanitize(sp.Label))
	if err != nil {
		return nil, nil, nil, err
	}
	st, err := b.RunSingletonObserved(sp.Cfg, watch)
	if cerr := watch.Close(); err == nil {
		err = cerr
	}
	return st, watch.Files(), watch.IndexInfo(), err
}

// runUncachedSelected selects with sp.Sel over prof and runs fresh,
// observed when o is active.
func runUncachedSelected(b *Bench, sp SeriesSpec, prof *slack.Profile, o *obs.Options) (*pipeline.Stats, []string, *obs.IndexInfo, error) {
	chosen := b.Select(sp.Sel, prof)
	if !o.Active() {
		st, err := b.Run(sp.Cfg, sp.Sel, chosen)
		return st, nil, nil, err
	}
	watch, err := obs.NewRunObserver(o, obs.Sanitize(b.Workload.Name)+"__"+obs.Sanitize(sp.Label))
	if err != nil {
		return nil, nil, nil, err
	}
	st, err := b.RunObserved(sp.Cfg, sp.Sel, chosen, watch)
	if cerr := watch.Close(); err == nil {
		err = cerr
	}
	return st, watch.Files(), watch.IndexInfo(), err
}

// --- Figure/table drivers ---

// Fig1 reproduces Figure 1: Slack-Profile vs the two naive selectors on the
// reduced machine.
func Fig1(opts Options) (*SweepResult, error) {
	red := pipeline.Reduced()
	return RunSweep("Figure 1: serialization-aware selection (reduced machine)", opts, []SeriesSpec{
		{Label: "no mini-graphs", Cfg: red},
		{Label: "Struct-All", Cfg: red, Sel: selector.StructAll()},
		{Label: "Struct-None", Cfg: red, Sel: selector.StructNone()},
		{Label: "Slack-Profile", Cfg: red, Sel: selector.SlackProfile()},
	})
}

// Fig3Top reproduces Figure 3 (top): naive selectors on the reduced machine.
func Fig3Top(opts Options) (*SweepResult, error) {
	red := pipeline.Reduced()
	return RunSweep("Figure 3 top: naive selectors (reduced machine)", opts, []SeriesSpec{
		{Label: "no mini-graphs", Cfg: red},
		{Label: "Struct-All", Cfg: red, Sel: selector.StructAll()},
		{Label: "Struct-None", Cfg: red, Sel: selector.StructNone()},
	})
}

// Fig3Bottom reproduces Figure 3 (bottom): naive selectors on the
// fully-provisioned machine, where serialization is exposed.
func Fig3Bottom(opts Options) (*SweepResult, error) {
	base := pipeline.Baseline()
	return RunSweep("Figure 3 bottom: naive selectors (fully-provisioned machine)", opts, []SeriesSpec{
		{Label: "Struct-All", Cfg: base, Sel: selector.StructAll()},
		{Label: "Struct-None", Cfg: base, Sel: selector.StructNone()},
	})
}

func allFiveSpecs(cfg pipeline.Config) []SeriesSpec {
	return []SeriesSpec{
		{Label: "no mini-graphs", Cfg: cfg},
		{Label: "Struct-All", Cfg: cfg, Sel: selector.StructAll()},
		{Label: "Struct-None", Cfg: cfg, Sel: selector.StructNone()},
		{Label: "Struct-Bounded", Cfg: cfg, Sel: selector.StructBounded()},
		{Label: "Slack-Profile", Cfg: cfg, Sel: selector.SlackProfile()},
		{Label: "Slack-Dynamic", Cfg: cfg, Sel: selector.SlackDynamic()},
	}
}

// Fig6Top reproduces Figure 6 (top): all selectors on the reduced machine.
func Fig6Top(opts Options) (*SweepResult, error) {
	return RunSweep("Figure 6 top: serialization-aware selectors (reduced machine)",
		opts, allFiveSpecs(pipeline.Reduced()))
}

// Fig6Middle reproduces Figure 6 (middle): all selectors on the
// fully-provisioned machine.
func Fig6Middle(opts Options) (*SweepResult, error) {
	return RunSweep("Figure 6 middle: serialization-aware selectors (fully-provisioned machine)",
		opts, allFiveSpecs(pipeline.Baseline()))
}

// Fig7Top reproduces Figure 7 (top): isolating the Slack-Profile model
// components.
func Fig7Top(opts Options) (*SweepResult, error) {
	red := pipeline.Reduced()
	return RunSweep("Figure 7 top: Slack-Profile model components (reduced machine)", opts, []SeriesSpec{
		{Label: "Struct-All", Cfg: red, Sel: selector.StructAll()},
		{Label: "Struct-None", Cfg: red, Sel: selector.StructNone()},
		{Label: "Slack-Profile", Cfg: red, Sel: selector.SlackProfile()},
		{Label: "Slack-Profile-Delay", Cfg: red, Sel: selector.SlackProfileDelay()},
		{Label: "Slack-Profile-SIAL", Cfg: red, Sel: selector.SlackProfileSIAL()},
	})
}

// Fig7Bottom reproduces Figure 7 (bottom): isolating the Slack-Dynamic
// model components.
func Fig7Bottom(opts Options) (*SweepResult, error) {
	red := pipeline.Reduced()
	return RunSweep("Figure 7 bottom: Slack-Dynamic model components (reduced machine)", opts, []SeriesSpec{
		{Label: "Struct-All", Cfg: red, Sel: selector.StructAll()},
		{Label: "Slack-Dynamic", Cfg: red, Sel: selector.SlackDynamic()},
		{Label: "Ideal-Slack-Dynamic", Cfg: red, Sel: selector.IdealSlackDynamic()},
		{Label: "Ideal-Slack-Dynamic-Delay", Cfg: red, Sel: selector.IdealSlackDynamicDelay()},
		{Label: "Ideal-Slack-Dynamic-SIAL", Cfg: red, Sel: selector.IdealSlackDynamicSIAL()},
	})
}

// Fig9Top reproduces Figure 9 (top): slack-profile robustness to machine
// configuration, on the MediaBench/CommBench-like suites.
func Fig9Top(opts Options) (*SweepResult, error) {
	if len(opts.Suites) == 0 {
		opts.Suites = []string{"media", "comm"}
	}
	red := pipeline.Reduced()
	w2, w8, dm := pipeline.Width2(), pipeline.Width8(), pipeline.SmallDMem()
	return RunSweep("Figure 9 top: profile robustness to machine configuration", opts, []SeriesSpec{
		{Label: "self-trained", Cfg: red, Sel: selector.SlackProfile()},
		{Label: "cross 2-way", Cfg: red, Sel: selector.SlackProfile(), ProfCfg: &w2},
		{Label: "cross 8-way", Cfg: red, Sel: selector.SlackProfile(), ProfCfg: &w8},
		{Label: "cross dmem/4", Cfg: red, Sel: selector.SlackProfile(), ProfCfg: &dm},
	})
}

// Fig9Bottom reproduces Figure 9 (bottom): slack-profile robustness to
// program input data sets, on the SPECint/MiBench-like suites.
func Fig9Bottom(opts Options) (*SweepResult, error) {
	if len(opts.Suites) == 0 {
		opts.Suites = []string{"intx", "embed"}
	}
	red := pipeline.Reduced()
	return RunSweep("Figure 9 bottom: profile robustness to input data sets", opts, []SeriesSpec{
		{Label: "self-trained", Cfg: red, Sel: selector.SlackProfile()},
		{Label: "cross-input", Cfg: red, Sel: selector.SlackProfile(), ProfInput: "small"},
	})
}

// ResourceSweep generalizes Figure 1 across machine scales: for 2-, 3- and
// 4-wide machines it contrasts singleton execution with Slack-Profile
// mini-graphs, answering the title's question — how many resources can
// mini-graphs buy back? The interesting readings are the iso-performance
// pairs (e.g. "3-wide + mini-graphs vs plain 4-wide").
func ResourceSweep(opts Options) (*SweepResult, error) {
	w2, w3, w4 := pipeline.Width2(), pipeline.Reduced(), pipeline.Baseline()
	return RunSweep("Resource sweep: machine width vs Slack-Profile mini-graphs", opts, []SeriesSpec{
		{Label: "2-wide", Cfg: w2},
		{Label: "2-wide + MG", Cfg: w2, Sel: selector.SlackProfile()},
		{Label: "3-wide", Cfg: w3},
		{Label: "3-wide + MG", Cfg: w3, Sel: selector.SlackProfile()},
		{Label: "4-wide", Cfg: w4},
		{Label: "4-wide + MG", Cfg: w4, Sel: selector.SlackProfile()},
	})
}

// --- Figure 8: limit study ---

// LimitPoint is one mini-graph combination in the exhaustive search.
type LimitPoint struct {
	Mask     uint32 // bit i set = candidate i included
	Coverage float64
	RelPerf  float64 // vs fully-provisioned singleton baseline
}

// LimitResult is the Figure 8 output: the full scatter plus each selector's
// chosen combination.
type LimitResult struct {
	Workload   string
	Candidates []*minigraph.Candidate // the 10 most frequent, disjoint
	Points     []LimitPoint
	Choices    map[string]uint32 // selector name -> mask
	Best       LimitPoint
}

// LimitStudy reproduces the Figure 8 exhaustive search: take the 10 most
// frequently executed non-overlapping candidates of one benchmark, evaluate
// all 1024 subsets on the reduced machine, and compare with what each
// selector would have chosen from the same pool.
func LimitStudy(workloadName, input string, workers int) (*LimitResult, error) {
	bench, err := PrepareSharedByName(workloadName, input)
	if err != nil {
		return nil, err
	}
	top := topDisjoint(bench, 10)
	if len(top) < 2 {
		return nil, fmt.Errorf("limit study: %s has only %d disjoint candidates", workloadName, len(top))
	}
	n := len(top)
	red := pipeline.Reduced()

	baseStats, err := singletonStats(context.Background(), bench, pipeline.Baseline())
	if err != nil {
		return nil, err
	}
	base := baseStats.Cycles

	res := &LimitResult{
		Workload:   workloadName,
		Candidates: top,
		Points:     make([]LimitPoint, 1<<n),
		Choices:    make(map[string]uint32),
	}

	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > 1<<n {
		workers = 1 << n
	}
	var wg sync.WaitGroup
	sem := make(chan struct{}, workers)
	var firstErr error
	var mu sync.Mutex
	for mask := 0; mask < 1<<n; mask++ {
		wg.Add(1)
		go func(mask int) {
			defer wg.Done()
			sem <- struct{}{}
			defer func() { <-sem }()
			var subset []*minigraph.Candidate
			for i := 0; i < n; i++ {
				if mask&(1<<i) != 0 {
					subset = append(subset, top[i])
				}
			}
			sel := minigraph.Select(bench.Prog, subset, bench.Freq, minigraph.DefaultSelectConfig())
			st, err := bench.Run(red, nil, sel)
			mu.Lock()
			defer mu.Unlock()
			if err != nil {
				if firstErr == nil {
					firstErr = err
				}
				return
			}
			res.Points[mask] = LimitPoint{
				Mask:     uint32(mask),
				Coverage: st.Coverage(),
				RelPerf:  float64(base) / float64(st.Cycles),
			}
		}(mask)
	}
	wg.Wait()
	if firstErr != nil {
		return nil, firstErr
	}

	res.Best = res.Points[0]
	for _, pt := range res.Points {
		if pt.RelPerf > res.Best.RelPerf {
			res.Best = pt
		}
	}

	// What would each static selector pick from this pool?
	prof, err := bench.Profile(red)
	if err != nil {
		return nil, err
	}
	for _, sel := range []*selector.Selector{
		selector.StructAll(), selector.StructNone(), selector.StructBounded(), selector.SlackProfile(),
	} {
		pool := sel.Pool(bench.Prog, top, prof)
		var mask uint32
		for i, c := range top {
			for _, k := range pool {
				if k == c {
					mask |= 1 << uint(i)
				}
			}
		}
		res.Choices[sel.Name()] = mask
	}
	return res, nil
}

// topDisjoint returns the k most frequently executed pairwise-disjoint
// candidates of a bench, in descending frequency order.
func topDisjoint(b *Bench, k int) []*minigraph.Candidate {
	cands := append([]*minigraph.Candidate(nil), b.Cands...)
	sort.SliceStable(cands, func(i, j int) bool {
		fi := b.Freq[cands[i].Start] * int64(cands[i].N-1)
		fj := b.Freq[cands[j].Start] * int64(cands[j].N-1)
		if fi != fj {
			return fi > fj
		}
		return cands[i].Start < cands[j].Start
	})
	var out []*minigraph.Candidate
	for _, c := range cands {
		if b.Freq[c.Start] == 0 {
			continue
		}
		ok := true
		for _, o := range out {
			if c.Overlaps(o) {
				ok = false
				break
			}
		}
		if ok {
			out = append(out, c)
			if len(out) == k {
				break
			}
		}
	}
	return out
}
