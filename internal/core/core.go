// Package core orchestrates the full mini-graph toolchain: it prepares
// workloads (functional run, candidate enumeration), collects slack
// profiles, applies selection policies, runs the timing pipeline, and
// drives the paper's experiments.
package core

import (
	"context"
	"fmt"

	"repro/internal/emu"
	"repro/internal/minigraph"
	"repro/internal/obs"
	"repro/internal/pipeline"
	"repro/internal/prog"
	"repro/internal/selector"
	"repro/internal/simcache"
	"repro/internal/slack"
	"repro/internal/workload"
)

// Bench is a prepared workload: program, committed trace, per-static
// frequencies and the mini-graph candidate pool. Profiles are cached per
// machine configuration.
type Bench struct {
	Workload *workload.Workload
	Input    string
	Prog     *prog.Program
	Trace    []emu.Rec
	Freq     []int64
	Cands    []*minigraph.Candidate

	// profiles memoizes slack profiles per machine-configuration
	// fingerprint, deduplicating concurrent computations.
	profiles *simcache.Cache[simcache.Key, *slack.Profile]
}

// Prepare builds and functionally executes a workload, enumerates
// mini-graph candidates, and verifies the checksum when a reference exists.
func Prepare(w *workload.Workload, input string) (*Bench, error) {
	p, want, verified, err := w.Build(input)
	if err != nil {
		return nil, err
	}
	res, err := emu.Run(p, emu.Options{CollectTrace: true})
	if err != nil {
		return nil, fmt.Errorf("prepare %s/%s: %w", w.Name, input, err)
	}
	if verified && res.Checksum() != want {
		return nil, fmt.Errorf("prepare %s/%s: checksum %#x, want %#x", w.Name, input, res.Checksum(), want)
	}
	freq := make([]int64, p.NumInstrs())
	for _, r := range res.Trace {
		freq[r.Index]++
	}
	return &Bench{
		Workload: w,
		Input:    input,
		Prog:     p,
		Trace:    res.Trace,
		Freq:     freq,
		Cands:    minigraph.Enumerate(p, minigraph.DefaultLimits()),
		profiles: simcache.Named[simcache.Key, *slack.Profile]("profiles"),
	}, nil
}

// PrepareByName is Prepare by workload name.
func PrepareByName(name, input string) (*Bench, error) {
	w := workload.Find(name)
	if w == nil {
		return nil, fmt.Errorf("unknown workload %q", name)
	}
	return Prepare(w, input)
}

// Profile returns the slack profile of a singleton run on cfg, caching by
// a fingerprint of the whole configuration (so variants sharing a name
// cannot collide). This matches the paper: profiles are collected from
// non-mini-graph executions. Concurrent callers share one computation.
func (b *Bench) Profile(cfg pipeline.Config) (*slack.Profile, error) {
	return b.ProfileCtx(context.Background(), cfg)
}

// ProfileCtx is Profile with the caller's context threaded through, so the
// per-bench profile-cache lookup (and, on a miss, the profiling run)
// appears as a nested span in exported traces.
func (b *Bench) ProfileCtx(ctx context.Context, cfg pipeline.Config) (*slack.Profile, error) {
	prof, _, err := b.profiles.DoCtx(ctx, simcache.Fingerprint(cfg), func(context.Context) (*slack.Profile, error) {
		acc := slack.NewAccumulator(b.Prog.Name, b.Prog.NumInstrs())
		if _, err := pipeline.Run(b.Prog, b.Trace, cfg, pipeline.MGConfig{}, acc); err != nil {
			return nil, fmt.Errorf("profiling %s on %s: %w", b.Prog.Name, cfg.Name, err)
		}
		return acc.Profile(), nil
	})
	return prof, err
}

// Select applies a selection policy, producing the mini-graph set. prof may
// be nil for policies that don't need one.
func (b *Bench) Select(sel *selector.Selector, prof *slack.Profile) *minigraph.Selection {
	pool := sel.Pool(b.Prog, b.Cands, prof)
	return minigraph.Select(b.Prog, pool, b.Freq, minigraph.DefaultSelectConfig())
}

// mgConfigFor assembles the pipeline mini-graph configuration for a
// selection (nil for singleton execution) under the policy's
// dynamic-monitor options.
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

// Run executes the timing pipeline on cfg with the given selection (nil for
// singleton execution) under the policy's dynamic-monitor options.
func (b *Bench) Run(cfg pipeline.Config, sel *selector.Selector, chosen *minigraph.Selection) (*pipeline.Stats, error) {
	return pipeline.Run(b.Prog, b.Trace, cfg, mgConfigFor(sel, chosen), nil)
}

// RunObserved is Run with an observer attached collecting pipetrace
// records and/or interval samples. Observed runs never go through the
// result cache — the trace is a side effect a cache hit would swallow.
func (b *Bench) RunObserved(cfg pipeline.Config, sel *selector.Selector, chosen *minigraph.Selection, watch *obs.Observer) (*pipeline.Stats, error) {
	return pipeline.RunObserved(b.Prog, b.Trace, cfg, mgConfigFor(sel, chosen), nil, watch)
}

// RunSingleton executes the timing pipeline without mini-graphs.
func (b *Bench) RunSingleton(cfg pipeline.Config) (*pipeline.Stats, error) {
	return pipeline.Run(b.Prog, b.Trace, cfg, pipeline.MGConfig{}, nil)
}

// RunSingletonObserved is RunSingleton with an observer attached.
func (b *Bench) RunSingletonObserved(cfg pipeline.Config, watch *obs.Observer) (*pipeline.Stats, error) {
	return pipeline.RunObserved(b.Prog, b.Trace, cfg, pipeline.MGConfig{}, nil, watch)
}

// ProfileObserved collects a slack profile like Profile but with an
// observer attached to the profiling run. It bypasses the per-bench
// profile cache (the trace is the point) and does not populate it.
func (b *Bench) ProfileObserved(cfg pipeline.Config, watch *obs.Observer) (*slack.Profile, error) {
	acc := slack.NewAccumulator(b.Prog.Name, b.Prog.NumInstrs())
	if _, err := pipeline.RunObserved(b.Prog, b.Trace, cfg, pipeline.MGConfig{}, acc, watch); err != nil {
		return nil, fmt.Errorf("profiling %s on %s: %w", b.Prog.Name, cfg.Name, err)
	}
	return acc.Profile(), nil
}

// Evaluate is the one-stop path used by the experiment drivers: profile on
// profCfg if the policy needs it, select, and run on runCfg.
func (b *Bench) Evaluate(sel *selector.Selector, profCfg, runCfg pipeline.Config) (*pipeline.Stats, *minigraph.Selection, error) {
	var prof *slack.Profile
	if sel.NeedsProfile() {
		var err error
		prof, err = b.Profile(profCfg)
		if err != nil {
			return nil, nil, err
		}
	}
	return b.EvaluateWith(sel, prof, runCfg)
}

// EvaluateWith is Evaluate with an externally supplied profile — the
// cross-input and cross-configuration robustness experiments collect the
// profile on a different bench and apply it here (static indices align:
// the code is identical, only the data differs).
func (b *Bench) EvaluateWith(sel *selector.Selector, prof *slack.Profile, runCfg pipeline.Config) (*pipeline.Stats, *minigraph.Selection, error) {
	chosen := b.Select(sel, prof)
	st, err := b.Run(runCfg, sel, chosen)
	return st, chosen, err
}
