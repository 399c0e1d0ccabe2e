package core

import (
	"context"
	"fmt"
	"sync"

	"repro/internal/minigraph"
	"repro/internal/pipeline"
	"repro/internal/selector"
	"repro/internal/stats"
	"repro/internal/workload"
)

// AblationVariant is one point in a design-choice sweep. Unlike SeriesSpec,
// it can vary candidate-enumeration limits, the MGT template budget, and
// the machine's mini-graph issue constraints.
type AblationVariant struct {
	Label  string
	Cfg    pipeline.Config
	Sel    *selector.Selector
	Limits minigraph.Limits // zero value -> DefaultLimits
	Budget int              // 0 -> DefaultSelectConfig
}

func (v *AblationVariant) limits() minigraph.Limits {
	if v.Limits.MaxLen == 0 {
		return minigraph.DefaultLimits()
	}
	return v.Limits
}

func (v *AblationVariant) selectCfg() minigraph.SelectConfig {
	if v.Budget == 0 {
		return minigraph.DefaultSelectConfig()
	}
	return minigraph.SelectConfig{TemplateBudget: v.Budget}
}

// RunAblation evaluates every variant over the workload population,
// reporting performance relative to the fully-provisioned singleton
// baseline and coverage, like RunSweep. Variants route through the same
// process-wide caches as RunSweep, so a variant that coincides with the
// defaults (e.g. "budget=512" equals the figures' Slack-Profile series) is
// not re-simulated.
func RunAblation(title string, opts Options, variants []AblationVariant) (*SweepResult, error) {
	res := &SweepResult{
		Perf:     &stats.Report{Title: title},
		Coverage: &stats.Report{Title: title + " — coverage"},
	}
	perfSeries := make([]*stats.Series, len(variants))
	covSeries := make([]*stats.Series, len(variants))
	for i, v := range variants {
		perfSeries[i] = stats.NewSeries(v.Label)
		covSeries[i] = stats.NewSeries(v.Label)
		res.Perf.Add(perfSeries[i])
		res.Coverage.Add(covSeries[i])
	}

	var mu sync.Mutex
	var firstErr error
	var wg sync.WaitGroup
	ws := opts.workloads()
	workers := opts.workers()
	if workers > len(ws) {
		workers = len(ws)
	}
	sem := make(chan struct{}, workers)
	for _, w := range ws {
		wg.Add(1)
		go func(w *workload.Workload) {
			defer wg.Done()
			sem <- struct{}{}
			defer func() { <-sem }()

			vals, covs, err := evalAblation(w, opts, variants)
			mu.Lock()
			defer mu.Unlock()
			if err != nil {
				if firstErr == nil {
					firstErr = fmt.Errorf("%s: %w", w.Name, err)
				}
				return
			}
			for i := range variants {
				perfSeries[i].Add(w.Name, vals[i])
				covSeries[i].Add(w.Name, covs[i])
			}
			if opts.Progress != nil {
				fmt.Fprintf(opts.Progress, "done %s\n", w.Name)
			}
		}(w)
	}
	wg.Wait()
	if firstErr != nil {
		return nil, firstErr
	}
	return res, nil
}

func evalAblation(w *workload.Workload, opts Options, variants []AblationVariant) ([]float64, []float64, error) {
	ctx := context.Background()
	bench, err := PrepareSharedCtx(ctx, w, opts.input())
	if err != nil {
		return nil, nil, err
	}
	baseStats, err := singletonStats(ctx, bench, pipeline.Baseline())
	if err != nil {
		return nil, nil, err
	}
	base := baseStats.Cycles

	vals := make([]float64, len(variants))
	covs := make([]float64, len(variants))
	for i, v := range variants {
		st, err := evalStats(ctx, bench, v.Sel, v.Cfg, "", v.Cfg, v.limits(), v.selectCfg())
		if err != nil {
			return nil, nil, err
		}
		vals[i] = float64(base) / float64(st.Cycles)
		covs[i] = st.Coverage()
	}
	return vals, covs, nil
}

// AblationMaxLen sweeps the mini-graph size limit (2–4 constituents) under
// Slack-Profile on the reduced machine: how much of the benefit needs
// longer aggregates?
func AblationMaxLen(opts Options) (*SweepResult, error) {
	red := pipeline.Reduced()
	var vs []AblationVariant
	for _, n := range []int{2, 3, 4} {
		vs = append(vs, AblationVariant{
			Label:  fmt.Sprintf("maxlen=%d", n),
			Cfg:    red,
			Sel:    selector.SlackProfile(),
			Limits: minigraph.Limits{MaxLen: n, MaxInputs: 3},
		})
	}
	return RunAblation("Ablation: mini-graph size limit (Slack-Profile, reduced machine)", opts, vs)
}

// AblationMaxInputs contrasts the original two-input mini-graphs (MICRO-04)
// with this paper's three-input extension (Section 2's design change).
func AblationMaxInputs(opts Options) (*SweepResult, error) {
	red := pipeline.Reduced()
	return RunAblation("Ablation: external register inputs (Slack-Profile, reduced machine)", opts, []AblationVariant{
		{Label: "2 inputs (MICRO-04)", Cfg: red, Sel: selector.SlackProfile(), Limits: minigraph.Limits{MaxLen: 4, MaxInputs: 2}},
		{Label: "3 inputs (this paper)", Cfg: red, Sel: selector.SlackProfile(), Limits: minigraph.Limits{MaxLen: 4, MaxInputs: 3}},
	})
}

// AblationBudget sweeps the MGT template budget: how many templates does a
// program actually need?
func AblationBudget(opts Options) (*SweepResult, error) {
	red := pipeline.Reduced()
	var vs []AblationVariant
	for _, b := range []int{4, 16, 64, 512} {
		vs = append(vs, AblationVariant{
			Label:  fmt.Sprintf("budget=%d", b),
			Cfg:    red,
			Sel:    selector.SlackProfile(),
			Budget: b,
		})
	}
	return RunAblation("Ablation: MGT template budget (Slack-Profile, reduced machine)", opts, vs)
}

// AblationMGIssue sweeps the mini-graph issue constraints (Table 1 allows
// 2 per cycle, 1 with memory): is mini-graph issue bandwidth a bottleneck?
func AblationMGIssue(opts Options) (*SweepResult, error) {
	one := pipeline.Reduced()
	one.Name = "reduced-1mg"
	one.MaxMGIssue = 1
	two := pipeline.Reduced()
	four := pipeline.Reduced()
	four.Name = "reduced-4mg"
	four.MaxMGIssue = 4
	four.MaxMemMGIssue = 2
	return RunAblation("Ablation: mini-graph issue bandwidth (Slack-Profile)", opts, []AblationVariant{
		{Label: "1 MG/cycle", Cfg: one, Sel: selector.SlackProfile()},
		{Label: "2 MG/cycle (Table 1)", Cfg: two, Sel: selector.SlackProfile()},
		{Label: "4 MG/cycle", Cfg: four, Sel: selector.SlackProfile()},
	})
}

// AblationSlackScope tests Section 4.3's "think globally, act locally"
// argument: rule #4 with local slack vs global slack budgets.
func AblationSlackScope(opts Options) (*SweepResult, error) {
	red := pipeline.Reduced()
	return RunAblation("Ablation: local vs global slack in rule #4 (reduced machine)", opts, []AblationVariant{
		{Label: "local slack (paper)", Cfg: red, Sel: selector.SlackProfile()},
		{Label: "global slack", Cfg: red, Sel: selector.SlackProfileGlobal()},
	})
}

// AblationLatencyModel contrasts the paper's optimistic rule-#2 latencies
// with profiled cache-aware latencies (the mcf footnote's future work).
func AblationLatencyModel(opts Options) (*SweepResult, error) {
	red := pipeline.Reduced()
	return RunAblation("Ablation: rule #2 latency model (reduced machine)", opts, []AblationVariant{
		{Label: "optimistic (paper)", Cfg: red, Sel: selector.SlackProfile()},
		{Label: "profiled (future work)", Cfg: red, Sel: selector.SlackProfileMem()},
	})
}
