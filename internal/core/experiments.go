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

// CheckFlags rejects driver flag values no run can use, so a command can
// refuse them before its first task: an unknown input set or workload name
// in only, or a negative worker count or sampling interval. Each error
// starts with the flag it names.
func CheckFlags(input string, only []string, workers int, intervals int64) error {
	if err := workload.CheckInput(input); err != nil {
		return fmt.Errorf("-input: %w", err)
	}
	for _, name := range only {
		if workload.Find(name) == nil {
			return fmt.Errorf("-only: unknown workload %q", name)
		}
	}
	if workers < 0 {
		return fmt.Errorf("-workers %d: must not be negative", workers)
	}
	if intervals < 0 {
		return fmt.Errorf("-intervals %d: must not be negative", intervals)
	}
	return nil
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
// Limits and Budget are the ablations' knobs — candidate-enumeration limits
// and MGT template budget — where the zero value means the paper's default.
type SeriesSpec struct {
	Label     string
	Cfg       pipeline.Config
	Sel       *selector.Selector
	ProfCfg   *pipeline.Config
	ProfInput string
	Limits    minigraph.Limits
	Budget    int
}

// profCfgOf resolves a spec's profiling configuration (self-trained on the
// run configuration unless overridden).
func profCfgOf(sp SeriesSpec) pipeline.Config {
	if sp.ProfCfg != nil {
		return *sp.ProfCfg
	}
	return sp.Cfg
}

// profInput resolves the spec's profiling input on bench b (b's own input
// unless overridden).
func (sp SeriesSpec) profInput(b *Bench) string {
	if sp.ProfInput == "" {
		return b.Input
	}
	return sp.ProfInput
}

func (sp SeriesSpec) limits() minigraph.Limits {
	if sp.Limits == (minigraph.Limits{}) {
		return minigraph.DefaultLimits()
	}
	return sp.Limits
}

func (sp SeriesSpec) selectCfg() minigraph.SelectConfig {
	if sp.Budget == 0 {
		return minigraph.DefaultSelectConfig()
	}
	return minigraph.SelectConfig{TemplateBudget: sp.Budget}
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
// Scheduling is fine-grained: a bounded pool of pinned workers drains one
// task per (workload, spec) pair, and all config-invariant work — workload
// preparation, the fully-provisioned baseline, slack profiles, whole
// repeated series — is deduplicated through the process-wide caches
// (singleflight, so two tasks needing the same profile or baseline never
// compute it twice). With the caches disabled (SetCachingDisabled, the
// -nocache path) the same loop re-prepares and re-simulates everything per
// task. Series ordering in the report is deterministic regardless of
// completion order.
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
			"workers", opts.workers(), "nocache", cachingDisabled(), "observed", opts.Obs.Active())
	}

	// Task ti is (workload ti/len(specs), spec ti%len(specs)).
	ws := opts.workloads()
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

	recs := make([]taskRecord, len(refs))
	pending := make([]int32, len(ws)) // specs left per workload (progress)
	for i := range pending {
		pending[i] = int32(len(specs))
	}
	workers := min(opts.workers(), len(refs))
	var mu sync.Mutex // guards Progress writer
	next := make(chan int)
	var wg sync.WaitGroup
	for k := 0; k < workers; k++ {
		wg.Add(1)
		go func(k int) {
			defer wg.Done()
			// Pin the worker to its OS thread so thread-CPU deltas
			// attribute each task's CPU time exactly (sweep tasks simulate
			// single-goroutine, so nothing escapes the pinned thread).
			pin := metrics.PinThread()
			defer pin.Unpin()
			wctx := metrics.WithTid(ctx, k+1) // worker k is trace tid k+1 (same pid as the sweep)
			for ti := range next {
				w, sp := ws[ti/len(specs)], specs[ti%len(specs)]
				if l := tlog(); l != nil {
					l.Info("task.start", "sweep", title, "workload", w.Name,
						"series", sp.Label, "worker", k)
				}
				track.TaskRunning(ti, k)
				rec := runTask(wctx, pin, ti, k, w, sp, opts)
				recs[ti] = rec
				appendTaskRecord(title, opts.input(), &rec)
				track.TaskDone(rec.index, rec.outcome, rec.err)
				noteTaskMetrics(&rec)
				if l := tlog(); l != nil {
					l.Info("task.finish", "sweep", title, "workload", rec.workload,
						"series", rec.series, "worker", rec.worker,
						"wall_ms", rec.wallMS(), "cache", rec.outcome)
				}
				if atomic.AddInt32(&pending[rec.index/len(specs)], -1) == 0 && opts.Progress != nil {
					mu.Lock()
					fmt.Fprintf(opts.Progress, "done %s\n", rec.workload)
					mu.Unlock()
				}
			}
		}(k)
	}
	for ti := range refs {
		next <- ti
	}
	close(next)
	wg.Wait()

	res := &SweepResult{
		Perf:     &stats.Report{Title: title},
		Coverage: &stats.Report{Title: title + " — coverage"},
	}
	for _, sp := range specs {
		res.Perf.Add(stats.NewSeries(sp.Label))
		res.Coverage.Add(stats.NewSeries(sp.Label))
	}
	meta := make([]obs.ManifestTask, len(recs))
	for ti := range recs {
		rec := &recs[ti]
		if rec.err != nil {
			return nil, fmt.Errorf("%s: %w", rec.workload, rec.err)
		}
		res.Perf.Series[ti%len(specs)].Add(rec.workload, rec.perf)
		res.Coverage.Series[ti%len(specs)].Add(rec.workload, rec.cov)
		meta[ti] = rec.manifest()
	}
	if err := writeSweepManifest(title, opts, started, meta); err != nil {
		return nil, err
	}
	if l := tlog(); l != nil {
		l.Info("sweep.finish", "title", title, "tasks", len(recs),
			"wall_ms", float64(time.Since(started))/float64(time.Millisecond))
	}
	return res, nil
}

// taskRecord is one finished sweep task, built once when the task ends.
// Every view of the task derives from it: the task span's attributes,
// /debug/sweep progress, the manifest entry, the ledger record, the task
// metrics, the task.finish log and the per-workload progress line.
type taskRecord struct {
	index            int // task index: (workload index)*len(specs) + spec index
	workload, series string
	worker           int
	wall             time.Duration
	specResult       // key, outcome, stats, report values, obs files
	use              metrics.Usage
	err              error
}

func (r *taskRecord) wallMS() float64 { return float64(r.wall) / float64(time.Millisecond) }

// manifest is the record's run-manifest entry.
func (r *taskRecord) manifest() obs.ManifestTask {
	mt := obs.ManifestTask{
		Workload: r.workload,
		Series:   r.series,
		Worker:   r.worker,
		WallMS:   r.wallMS(),
		Cache:    r.outcome,
		Files:    r.files,
		Index:    r.idx,
	}
	if r.err != nil {
		mt.Error = r.err.Error()
	}
	return mt
}

// runTask evaluates task ti, (w, sp), on pinned worker k, bracketed by a
// task span, pprof labels and the thread's CPU accounting, and returns its
// record.
func runTask(ctx context.Context, pin *metrics.PinnedThread, ti, k int, w *workload.Workload, sp SeriesSpec, opts Options) taskRecord {
	rec := taskRecord{index: ti, workload: w.Name, series: sp.Label, worker: k}
	started, um := time.Now(), pin.Mark()
	tctx, span := metrics.StartSpan(ctx, "task",
		metrics.L("workload", w.Name), metrics.L("series", sp.Label))
	// Label the task's goroutine so CPU profiles grabbed from /debug/pprof
	// attribute samples to (workload, spec).
	pprof.Do(tctx, pprof.Labels("workload", w.Name, "spec", sp.Label), func(ctx context.Context) {
		rec.specResult, rec.err = evalSpec(ctx, w, opts.input(), sp, opts.Obs)
	})
	rec.use = um.Since()
	rec.wall = time.Since(started)
	if metrics.CPUAccountingOn() {
		span.SetCPUNanos(rec.use.CPUNanos)
	}
	span.SetAttr("cache", rec.outcome)
	span.End()
	return rec
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
			"nocache":       fmt.Sprint(cachingDisabled()),
		},
		Spans: metrics.TraceOut(),
		Tasks: tasks,
	}
	return obs.WriteManifest(filepath.Join(opts.Obs.Dir, obs.Sanitize(title)+".manifest.json"), m)
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

// evalSpec computes one (workload, spec) point through the caches. With
// the caches disabled every lookup computes fresh and the outcome reads
// "nocache"; observed runs read "traced" either way.
func evalSpec(ctx context.Context, w *workload.Workload, input string, sp SeriesSpec, o *obs.Options) (specResult, error) {
	var r specResult
	bench, err := PrepareSharedCtx(ctx, w, input)
	if err != nil {
		return r, err
	}
	r.key = resultKey(bench, sp)
	baseStats, err := singletonStats(ctx, bench, pipeline.Baseline())
	if err != nil {
		return r, err
	}
	var st *pipeline.Stats
	switch {
	case o.Active():
		st, r.files, r.idx, err = runSpecObserved(ctx, bench, sp, o)
		r.outcome = cacheTraced
	case cachingDisabled():
		st, _, err = seriesStats(ctx, bench, sp)
		r.outcome = cacheNone
	default:
		st, r.outcome, err = seriesStats(ctx, bench, sp)
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
		chosen, err = deriveSelection(ctx, b, sp)
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
