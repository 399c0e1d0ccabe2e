package main

import (
	"fmt"
	"strings"

	"repro/internal/core"
	"repro/internal/pipeline"
	"repro/internal/stats"
)

// The renderers below print what cmd/mgreport prints for the same result,
// byte for byte, so the reproduce workload can be checked against the
// committed docs/report_large.txt. They live here because mgreport's are
// in a main package.

// renderTable1 is mgreport's Table 1 (the simulated machines).
func renderTable1() string {
	var w strings.Builder
	fmt.Fprintln(&w, "Table 1: simulated processors")
	for _, cfg := range []pipeline.Config{pipeline.Baseline(), pipeline.Reduced()} {
		fmt.Fprintf(&w, "\n%s:\n", cfg.Name)
		fmt.Fprintf(&w, "  %d-way fetch/issue/commit, %d-entry issue queue, %d physical registers\n",
			cfg.FetchWidth, cfg.IQEntries, cfg.PhysRegs)
		fmt.Fprintf(&w, "  %d-entry ROB, %d-entry load queue, %d-entry store queue\n",
			cfg.ROBEntries, cfg.LQEntries, cfg.SQEntries)
		fmt.Fprintf(&w, "  issue ports: %d simple int, %d complex, %d load, %d store\n",
			cfg.SimplePorts, cfg.ComplexPorts, cfg.LoadPorts, cfg.StorePorts)
		fmt.Fprintf(&w, "  mini-graphs: <=4 instrs, <=%d per cycle (<=%d with memory), 512-entry MGT\n",
			cfg.MaxMGIssue, cfg.MaxMemMGIssue)
		h := cfg.Hier
		fmt.Fprintf(&w, "  memory: %dKB/%d-way/%dc L1s, %dKB L1D, %dMB/%d-way/%dc L2, %dc memory\n",
			h.L1I.Size>>10, h.L1I.Assoc, h.L1I.Latency, h.L1D.Size>>10,
			h.L2.Size>>20, h.L2.Assoc, h.L2.Latency, h.MemLatency)
		fmt.Fprintf(&w, "  branch prediction: hybrid bimodal/gshare (24Kb), 2K-entry 4-way BTB, 32-entry RAS\n")
	}
	fmt.Fprintln(&w)
	return w.String()
}

// renderSweep is mgreport's rendering of one sweep: summary table,
// S-curve plot and coverage table.
func renderSweep(perf, cov *stats.Report) string {
	var w strings.Builder
	fmt.Fprintln(&w, perf.SummaryTable())
	fmt.Fprintln(&w, perf.SCurvePlot(78, 16, 0.5, 1.6))
	fmt.Fprintln(&w, cov.SummaryTable())
	return w.String()
}

// renderLimit is mgreport's rendering of the Figure 8 limit study.
func renderLimit(lr *core.LimitResult, input string) string {
	var w strings.Builder
	fmt.Fprintf(&w, "Figure 8: limit study on %s (%s input): all %d combinations of %d mini-graphs\n",
		lr.Workload, input, len(lr.Points), len(lr.Candidates))
	fmt.Fprintf(&w, "%-18s %12s %10s %8s\n", "set", "mask", "coverage", "perf")
	fmt.Fprintf(&w, "%-18s %12b %10.3f %8.3f\n", "exhaustive-best", lr.Best.Mask, lr.Best.Coverage, lr.Best.RelPerf)
	for _, name := range limitSelectors {
		mask := lr.Choices[name]
		pt := lr.Points[mask]
		fmt.Fprintf(&w, "%-18s %12b %10.3f %8.3f\n", name, mask, pt.Coverage, pt.RelPerf)
	}
	fmt.Fprintln(&w, "\nscatter (x=coverage, y=relative performance, *=combinations):")
	const W, H = 64, 16
	var grid [H][W]byte
	for i := range grid {
		for j := range grid[i] {
			grid[i][j] = ' '
		}
	}
	minP, maxP := lr.Points[0].RelPerf, lr.Points[0].RelPerf
	maxC := 0.0
	for _, pt := range lr.Points {
		minP = min(minP, pt.RelPerf)
		maxP = max(maxP, pt.RelPerf)
		maxC = max(maxC, pt.Coverage)
	}
	if maxP == minP {
		maxP = minP + 1e-9
	}
	if maxC == 0 {
		maxC = 1e-9
	}
	cell := func(pt core.LimitPoint) (int, int) {
		return H - 1 - int((pt.RelPerf-minP)/(maxP-minP)*(H-1)), int(pt.Coverage / maxC * (W - 1))
	}
	for _, pt := range lr.Points {
		y, x := cell(pt)
		grid[y][x] = '*'
	}
	for i, name := range limitSelectors {
		y, x := cell(lr.Points[lr.Choices[name]])
		grid[y][x] = "ANBP"[i]
	}
	y, x := cell(lr.Points[lr.Best.Mask])
	grid[y][x] = 'X'
	for i := 0; i < H; i++ {
		yVal := maxP - float64(i)*(maxP-minP)/float64(H-1)
		fmt.Fprintf(&w, "%6.3f |%s|\n", yVal, string(grid[i][:]))
	}
	fmt.Fprintf(&w, "        coverage 0 .. %.2f   A=Struct-All N=Struct-None B=Struct-Bounded P=Slack-Profile X=best\n\n", maxC)
	return w.String()
}
