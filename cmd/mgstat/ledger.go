package main

import (
	"fmt"
	"io"
	"os"
	"sort"
	"strings"

	"repro/internal/ledger"
)

// This file is mgstat's run-history mode: with -ledger DIR the command
// queries the persistent run ledger instead of characterizing workloads —
// printing the recorded history, diffing two revisions per series point
// (-compare revA,revB), and gating CI on regressions (-gate / -gate-wall /
// -gate-cpu, non-zero exit when any point regressed beyond tolerance).

// ledgerMode runs the history/compare/gate queries. Returns the process
// exit code.
func ledgerMode(w io.Writer, dir string, history bool, compareSpec string, gatePct, gateWallPct, gateCPUPct float64) int {
	recs, skipped, err := ledger.ReadDir(dir)
	if err != nil {
		fmt.Fprintln(os.Stderr, "mgstat:", err)
		return 1
	}
	if skipped > 0 {
		fmt.Fprintf(os.Stderr, "mgstat: %d damaged ledger line(s) skipped\n", skipped)
	}
	if compareSpec != "" {
		return compareMode(w, recs, compareSpec, gatePct, gateWallPct, gateCPUPct)
	}
	if history {
		printHistory(w, recs)
	} else {
		printRuns(w, recs)
	}
	return 0
}

// compareMode diffs two recorded revisions and optionally gates.
func compareMode(w io.Writer, recs []ledger.Record, spec string, gatePct, gateWallPct, gateCPUPct float64) int {
	revA, revB, ok := strings.Cut(spec, ",")
	if !ok || revA == "" || revB == "" {
		fmt.Fprintln(os.Stderr, `mgstat: -compare wants "revA,revB"`)
		return 2
	}
	deltas := ledger.Compare(recs, revA, revB)
	if err := ledger.WriteCompareText(w, revA, revB, deltas); err != nil {
		fmt.Fprintln(os.Stderr, "mgstat:", err)
		return 1
	}
	if gatePct <= 0 && gateWallPct <= 0 && gateCPUPct <= 0 {
		return 0
	}
	fails := ledger.Gate(deltas, gatePct/100, gateWallPct/100, gateCPUPct/100)
	if len(fails) > 0 {
		for _, f := range fails {
			fmt.Fprintln(os.Stderr, "mgstat: GATE:", f)
		}
		fmt.Fprintf(os.Stderr, "mgstat: gate FAILED: %d regression(s) beyond tolerance (ipc %.1f%%, wall %.1f%%, cpu %.1f%%)\n",
			len(fails), gatePct, gateWallPct, gateCPUPct)
		return 1
	}
	fmt.Fprintf(w, "gate: clean — %d comparable point(s) within tolerance (ipc %.1f%%, wall %.1f%%, cpu %.1f%%)\n",
		len(deltas), gatePct, gateWallPct, gateCPUPct)
	return 0
}

// printHistory lists every record, oldest first (the append order).
func printHistory(w io.Writer, recs []ledger.Record) {
	if len(recs) == 0 {
		fmt.Fprintln(w, "ledger is empty")
		return
	}
	fmt.Fprintf(w, "%-24s %-12s %-9s %-18s %-26s %-6s %-7s %7s %10s %10s\n",
		"time", "rev", "tool", "workload", "series", "input", "cache", "ipc", "wall ms", "cpu ms")
	for _, r := range recs {
		t := r.Time
		if len(t) > 24 {
			t = t[:24]
		}
		cpu := fmt.Sprintf("%10s", "–") // record predates CPU accounting
		if r.CPUMS > 0 {
			cpu = fmt.Sprintf("%10.1f", r.CPUMS)
		}
		fmt.Fprintf(w, "%-24s %-12s %-9s %-18s %-26s %-6s %-7s %7.4f %10.1f %s",
			t, r.Rev, r.Tool, r.Workload, r.Series, r.Input, r.Cache, r.IPC, r.WallMS, cpu)
		if r.Error != "" {
			fmt.Fprintf(w, "  ERROR: %s", r.Error)
		}
		fmt.Fprintln(w)
	}
	fmt.Fprintf(w, "\n%d record(s)\n", len(recs))
}

// printRuns summarizes the history one line per process invocation: when
// it ran, at what revision, how many tasks, the cache hit rate, errors,
// and total recorded wall time.
func printRuns(w io.Writer, recs []ledger.Record) {
	if len(recs) == 0 {
		fmt.Fprintln(w, "ledger is empty (run a sweep with -ledger to record history; -history lists records, -compare revA,revB diffs revisions)")
		return
	}
	type runSum struct {
		first                 string
		rev, tool, host       string
		records, hits, looked int
		errors                int
		wallMS                float64
		cpuMS                 float64
	}
	byRun := map[string]*runSum{}
	var order []string
	for _, r := range recs {
		s := byRun[r.RunID]
		if s == nil {
			s = &runSum{first: r.Time, rev: r.Rev, tool: r.Tool, host: r.Host.Hostname}
			byRun[r.RunID] = s
			order = append(order, r.RunID)
		}
		s.records++
		s.wallMS += r.WallMS
		s.cpuMS += r.CPUMS
		switch r.Cache {
		case "hit", "shared":
			s.hits++
			s.looked++
		case "miss":
			s.looked++
		}
		if r.Error != "" {
			s.errors++
		}
	}
	sort.SliceStable(order, func(i, j int) bool {
		return byRun[order[i]].first < byRun[order[j]].first
	})
	fmt.Fprintf(w, "%-24s %-12s %-9s %-14s %7s %7s %7s %10s %10s\n",
		"started", "rev", "tool", "host", "records", "hit%", "errors", "wall s", "cpu s")
	for _, id := range order {
		s := byRun[id]
		t := s.first
		if len(t) > 24 {
			t = t[:24]
		}
		hitPct := "-"
		if s.looked > 0 {
			hitPct = fmt.Sprintf("%.1f", 100*float64(s.hits)/float64(s.looked))
		}
		cpu := fmt.Sprintf("%10s", "–") // run predates CPU accounting
		if s.cpuMS > 0 {
			cpu = fmt.Sprintf("%10.1f", s.cpuMS/1e3)
		}
		fmt.Fprintf(w, "%-24s %-12s %-9s %-14s %7d %7s %7d %10.1f %s\n",
			t, s.rev, s.tool, s.host, s.records, hitPct, s.errors, s.wallMS/1e3, cpu)
	}
	fmt.Fprintf(w, "\n%d run(s), %d record(s); -history lists records, -compare revA,revB diffs revisions\n",
		len(order), len(recs))
}
