package core

import (
	"context"
	"fmt"
	"reflect"

	"repro/internal/emu"
	"repro/internal/metrics"
	"repro/internal/minigraph"
	"repro/internal/pipeline"
	"repro/internal/selector"
	"repro/internal/simcache"
	"repro/internal/slack"
	"repro/internal/workload"
)

// This file is the memoizing simulation service layer. Experiment figures
// overlap heavily: the same workload preparation, fully-provisioned
// baseline simulation, slack profile, and even whole series (e.g.
// Struct-All on the reduced machine) appear in several sweeps. The
// process-wide caches below make every distinct piece of work happen
// exactly once per process, concurrency-safe and singleflight-deduplicated,
// while keeping results bit-identical to uncached execution (all simulation
// paths are deterministic).

type benchKey struct {
	Workload string
	Input    string
}

var (
	// benchCache memoizes workload preparation (build, functional
	// emulation, candidate enumeration) per (workload, input).
	benchCache = simcache.Named[benchKey, *Bench]("benches")

	// resultCache memoizes timing-simulation outcomes per fingerprint of
	// everything that determines them (workload, input, machine config,
	// selector identity, profile provenance, enumeration limits, MGT
	// budget).
	resultCache = simcache.Named[simcache.Key, *pipeline.Stats]("results")

	// candsCache memoizes non-default candidate enumerations (ablations).
	candsCache = simcache.Named[simcache.Key, []*minigraph.Candidate]("cands")
)

func init() {
	recSize := int64(reflect.TypeOf(emu.Rec{}).Size())
	benchCache.SizeFunc = func(b *Bench) int64 {
		return int64(len(b.Trace))*recSize + int64(len(b.Freq))*8
	}
	statsSize := int64(reflect.TypeOf(pipeline.Stats{}).Size())
	resultCache.SizeFunc = func(*pipeline.Stats) int64 { return statsSize }
}

// CacheCounters reports the activity of the simulation caches.
type CacheCounters struct {
	Benches simcache.Counters
	Results simcache.Counters
}

// Caches returns a snapshot of the process-wide cache counters.
func Caches() CacheCounters {
	return CacheCounters{Benches: benchCache.Stats(), Results: resultCache.Stats()}
}

// ResetCaches drops all cached benches and results (tests, memory
// pressure).
func ResetCaches() {
	benchCache.Reset()
	resultCache.Reset()
	candsCache.Reset()
}

// SetCachingDisabled bypasses all process-wide caches (the -nocache escape
// hatch for timing-accuracy debugging).
func SetCachingDisabled(d bool) {
	benchCache.SetDisabled(d)
	resultCache.SetDisabled(d)
	candsCache.SetDisabled(d)
}

// cachingDisabled reports whether SetCachingDisabled is in effect.
func cachingDisabled() bool { return resultCache.Disabled() }

// PrepareShared is Prepare through the process-wide bench cache: each
// (workload, input) pair is built and functionally emulated exactly once
// per process, no matter how many sweeps request it.
func PrepareShared(w *workload.Workload, input string) (*Bench, error) {
	return PrepareSharedCtx(context.Background(), w, input)
}

// PrepareSharedCtx is PrepareShared with the caller's context threaded
// through: the bench-cache lookup and, on a miss, the preparation itself
// appear as spans in exported traces.
func PrepareSharedCtx(ctx context.Context, w *workload.Workload, input string) (*Bench, error) {
	b, _, err := benchCache.DoCtx(ctx, benchKey{w.Name, input}, func(ctx context.Context) (*Bench, error) {
		_, sp := metrics.StartSpan(ctx, "prepare",
			metrics.L("workload", w.Name), metrics.L("input", input))
		defer sp.End()
		return Prepare(w, input)
	})
	return b, err
}

// PrepareSharedByName is PrepareShared by workload name.
func PrepareSharedByName(name, input string) (*Bench, error) {
	w := workload.Find(name)
	if w == nil {
		return nil, fmt.Errorf("unknown workload %q", name)
	}
	return PrepareShared(w, input)
}

// selIdentity is the fingerprintable identity of a selection policy: the
// policy name plus its hardware-monitor options (two policies never share
// a name, but hashing Dyn too costs nothing and guards refactors).
type selIdentity struct {
	Name string
	Dyn  selector.DynOptions
}

func identityOf(sel *selector.Selector) selIdentity {
	return selIdentity{Name: sel.Name(), Dyn: sel.Dyn}
}

// resultKey is the result-cache fingerprint of series point sp on b:
// everything that determines its timing (workload, input, machine config,
// selector identity, profile provenance, enumeration limits, MGT budget).
// The one key function behind the result cache, TaskKey and the run
// ledger.
func resultKey(b *Bench, sp SeriesSpec) simcache.Key {
	if sp.Sel == nil {
		return simcache.Fingerprint("singleton", b.Workload.Name, b.Input, sp.Cfg)
	}
	return simcache.Fingerprint("eval", b.Workload.Name, b.Input,
		identityOf(sp.Sel), profCfgOf(sp), sp.profInput(b), sp.Cfg, sp.limits(), sp.selectCfg())
}

// seriesStats returns the cached timing of series point sp on b plus the
// cache outcome for telemetry: select with sp.Sel (profiling where needed)
// and run on sp.Cfg, or run singleton when sp.Sel is nil. Equal work
// dedupes across figure and ablation drivers because the key covers every
// knob.
func seriesStats(ctx context.Context, b *Bench, sp SeriesSpec) (*pipeline.Stats, string, error) {
	return resultCache.DoCtx(ctx, resultKey(b, sp), func(ctx context.Context) (*pipeline.Stats, error) {
		if sp.Sel == nil {
			_, span := metrics.StartSpan(ctx, "simulate",
				metrics.L("workload", b.Workload.Name), metrics.L("config", sp.Cfg.Name))
			defer span.End()
			return b.RunSingleton(sp.Cfg)
		}
		chosen, err := deriveSelection(ctx, b, sp)
		if err != nil {
			return nil, err
		}
		_, span := metrics.StartSpan(ctx, "simulate",
			metrics.L("workload", b.Workload.Name), metrics.L("config", sp.Cfg.Name),
			metrics.L("policy", sp.Sel.Name()))
		defer span.End()
		return b.Run(sp.Cfg, sp.Sel, chosen)
	})
}

// singletonStats returns the cached singleton (no mini-graphs) timing of
// bench b on cfg.
func singletonStats(ctx context.Context, b *Bench, cfg pipeline.Config) (*pipeline.Stats, error) {
	st, _, err := seriesStats(ctx, b, SeriesSpec{Cfg: cfg})
	return st, err
}

// deriveSelection performs the selection stage of series point sp through
// the shared caches: the slack profile (possibly on a cross-input bench),
// the candidate pool under the spec's limits, the policy filter, and the
// final budgeted selection.
func deriveSelection(ctx context.Context, b *Bench, sp SeriesSpec) (*minigraph.Selection, error) {
	var prof *slack.Profile
	if sp.Sel.NeedsProfile() {
		profCfg := profCfgOf(sp)
		pctx, psp := metrics.StartSpan(ctx, "profile",
			metrics.L("workload", b.Workload.Name), metrics.L("config", profCfg.Name))
		p, err := collectProfile(pctx, b, profCfg, sp.profInput(b))
		psp.End()
		if err != nil {
			return nil, err
		}
		prof = p
	}
	cands := b.Cands
	if limits := sp.limits(); limits != minigraph.DefaultLimits() {
		c, err := enumerateShared(ctx, b, limits)
		if err != nil {
			return nil, err
		}
		cands = c
	}
	_, ssp := metrics.StartSpan(ctx, "select",
		metrics.L("workload", b.Workload.Name), metrics.L("policy", sp.Sel.Name()))
	defer ssp.End()
	pool := sp.Sel.Pool(b.Prog, cands, prof)
	return minigraph.Select(b.Prog, pool, b.Freq, sp.selectCfg()), nil
}

// collectProfile resolves the profiling bench (possibly cross-input) and
// returns its slack profile on profCfg.
func collectProfile(ctx context.Context, b *Bench, profCfg pipeline.Config, profInput string) (*slack.Profile, error) {
	profBench := b
	if profInput != b.Input {
		// Cross-input robustness: collect the profile on the other
		// input's bench (static indices align — the code is
		// identical, only the data differs).
		pb, err := PrepareSharedCtx(ctx, b.Workload, profInput)
		if err != nil {
			return nil, err
		}
		profBench = pb
	}
	return profBench.ProfileCtx(ctx, profCfg)
}

// TaskKey returns the content-addressed fingerprint of one series point
// with default enumeration limits and MGT budget — the key the result
// cache files it under, exported so callers outside the sweep can name a
// run-ledger record. sel == nil means singleton execution; profInput == ""
// means self-trained. The last parameter must be nil; reprobench still
// passes it.
func TaskKey(b *Bench, sel *selector.Selector, profCfg pipeline.Config, profInput string, runCfg pipeline.Config, _ *struct{}) simcache.Key {
	return resultKey(b, SeriesSpec{Cfg: runCfg, Sel: sel, ProfCfg: &profCfg, ProfInput: profInput})
}

// enumerateShared returns the cached candidate pool of b under non-default
// enumeration limits.
func enumerateShared(ctx context.Context, b *Bench, limits minigraph.Limits) ([]*minigraph.Candidate, error) {
	key := simcache.Fingerprint("cands", b.Workload.Name, b.Input, limits)
	c, _, err := candsCache.DoCtx(ctx, key, func(context.Context) ([]*minigraph.Candidate, error) {
		return minigraph.Enumerate(b.Prog, limits), nil
	})
	return c, err
}
