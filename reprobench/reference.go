package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"hash"
	"log"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/stats"
	"repro/internal/workload"
)

const (
	benchDir   = "reprobench"
	refFile    = "reference.txt"
	reportFile = "docs/report_large.txt" // mgreport -exp all, as committed
)

// reference is the benchmark's record of correct outputs for the
// cross-train and limit-study workloads: a digest of every simulated
// value each core call returns. reproduce is checked against the
// repository's committed report instead.
type reference struct {
	sweeps map[string]string // sweep name -> digest
	limits []limitRef        // every program with ten disjoint candidates
}

// limitRef is one limit-study program. Its wall time and allocation, as
// measured when the file was written, balance the seed groups.
type limitRef struct {
	name    string
	costMS  float64
	allocMB float64
	digest  string
}

// loadReference reads reprobench/reference.txt. Lines are
// "sweep <name> <digest>" or "limit <program> <ms> <MB> <digest>".
func loadReference() (*reference, error) {
	path := filepath.Join(benchDir, refFile)
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	ref := &reference{sweeps: map[string]string{}}
	sc := bufio.NewScanner(f)
	for n := 1; sc.Scan(); n++ {
		fs := strings.Fields(sc.Text())
		switch {
		case len(fs) == 0 || strings.HasPrefix(fs[0], "#"):
		case fs[0] == "sweep" && len(fs) == 3:
			ref.sweeps[fs[1]] = fs[2]
		case fs[0] == "limit" && len(fs) == 5:
			cost, err1 := strconv.ParseFloat(fs[2], 64)
			alloc, err2 := strconv.ParseFloat(fs[3], 64)
			if err1 != nil || err2 != nil || cost <= 0 || alloc <= 0 {
				return nil, fmt.Errorf("%s:%d: bad cost", path, n)
			}
			ref.limits = append(ref.limits, limitRef{fs[1], cost, alloc, fs[4]})
		default:
			return nil, fmt.Errorf("%s:%d: malformed line", path, n)
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if len(ref.limits) == 0 {
		return nil, fmt.Errorf("%s: no limit-study programs", path)
	}
	return ref, nil
}

// digestSweep hashes every (series, program) relative performance and
// coverage a sweep reports, bit for bit.
func digestSweep(res *core.SweepResult) string {
	h := sha256.New()
	hashReport(h, "perf", res.Perf.Series)
	hashReport(h, "coverage", res.Coverage.Series)
	return hex.EncodeToString(h.Sum(nil))
}

// digestLimit hashes a limit study's candidates, all subset points, the
// selectors' choices and the best subset, bit for bit.
func digestLimit(lr *core.LimitResult) string {
	h := sha256.New()
	fmt.Fprintf(h, "%s\n", lr.Workload)
	for _, c := range lr.Candidates {
		fmt.Fprintf(h, "cand %d %d\n", c.Start, c.N)
	}
	for _, pt := range lr.Points {
		fmt.Fprintf(h, "%d %016x %016x\n", pt.Mask, math.Float64bits(pt.Coverage), math.Float64bits(pt.RelPerf))
	}
	for _, name := range limitSelectors {
		fmt.Fprintf(h, "%s %d\n", name, lr.Choices[name])
	}
	fmt.Fprintf(h, "best %d\n", lr.Best.Mask)
	return hex.EncodeToString(h.Sum(nil))
}

var banner = regexp.MustCompile(`\n\[all completed in [^\]\n]*\]\n?$`)

// checkOutputs compares one iteration's sections with the reference and
// returns the operations that failed (every operation of a section that
// errored or differs) and whether the whole output is correct.
func checkOutputs(p *plan, secs []section, ref *reference) (failed int, correct bool, err error) {
	expect := make([]string, len(secs))
	if p.name == "reproduce" {
		data, err := os.ReadFile(reportFile)
		if err != nil {
			return 0, false, err
		}
		want := banner.ReplaceAllString(string(data), "")
		var got strings.Builder
		for _, s := range secs {
			got.WriteString(s.text)
		}
		correct = got.String() == want
		expect = splitReport(want, secs)
	} else {
		correct = true
	}
	for i, s := range secs {
		ok := s.err == nil
		switch {
		case !ok:
		case p.name == "reproduce":
			ok = s.text == expect[i]
		case s.sweep != nil:
			ok = ref.sweeps[s.key] != "" && digestSweep(s.sweep) == ref.sweeps[s.key]
		case s.limit != nil:
			ok = false
			for _, l := range ref.limits {
				if l.name == s.limit.Workload {
					ok = digestLimit(s.limit) == l.digest
				}
			}
		}
		if !ok {
			log.Printf("%s: output differs from the reference (%d operations)", s.key, s.ops)
			failed += s.ops
			correct = false
		}
	}
	return failed, correct, nil
}

// splitReport cuts the reference report into the stretch each section
// should print: from the section's first line to the next section's. A
// section whose first line is not found expects nothing, so it fails.
func splitReport(want string, secs []section) []string {
	pos := make([]int, len(secs))
	from := 0
	for i, s := range secs {
		pos[i] = -1
		header, _, ok := strings.Cut(s.text, "\n")
		if !ok {
			continue
		}
		header += "\n"
		if strings.HasPrefix(want[from:], header) {
			pos[i] = from
		} else if k := strings.Index(want[from:], "\n"+header); k >= 0 {
			pos[i] = from + k + 1
		} else {
			continue
		}
		from = pos[i] + len(header)
	}
	out := make([]string, len(secs))
	for i := range secs {
		if pos[i] < 0 {
			continue
		}
		end := len(want)
		for k := i + 1; k < len(secs); k++ {
			if pos[k] >= 0 {
				end = pos[k]
				break
			}
		}
		out[i] = want[pos[i]:end]
	}
	return out
}

// refPasses is how many times writeReference times each limit study.
const refPasses = 3

// writeReference regenerates reprobench/reference.txt from the current
// program: digests of the cross-train sweeps and, for every program with
// ten disjoint candidates, the limit study's digest and wall time.
func writeReference() error {
	var b strings.Builder
	fmt.Fprintln(&b, "# Reference outputs of the cross-train and limit-study workloads.")
	fmt.Fprintln(&b, "# Regenerate with: bash reprobench/run.sh --write-reference")
	fmt.Fprintln(&b, "# sweep <core function> <sha256 of every reported value>")
	fmt.Fprintln(&b, "# limit <program> <wall ms, 2 workers> <allocated MB> <sha256 of every subset point>")
	sw := sweeps()
	core.ResetCaches()
	for _, name := range []string{"Fig9Top", "Fig9Bottom"} {
		res, err := sw[name].run(core.Options{Input: "large", Workers: workers})
		if err != nil {
			return err
		}
		fmt.Fprintf(&b, "sweep %s %s\n", name, digestSweep(res))
	}
	// Wall time is the minimum of refPasses interleaved passes, so that a
	// burst of host contention does not skew the seed groups.
	var limits []limitRef
	for pass := 0; pass < refPasses; pass++ {
		progs := workload.All()
		if pass > 0 {
			progs = progs[:0]
			for _, l := range limits {
				progs = append(progs, workload.Find(l.name))
			}
		}
		for i, w := range progs {
			// Measure as a timed iteration runs: empty caches, the bench
			// prepared, freed heap returned. A larger live heap means fewer
			// collections and less allocation, which would skew the groups.
			core.ResetCaches()
			if _, err := core.PrepareShared(w, limitInput); err != nil {
				return err
			}
			debug.FreeOSMemory()
			a0, t0 := heapAllocBytes(), time.Now()
			lr, err := core.LimitStudy(w.Name, limitInput, workers)
			if err != nil {
				return err
			}
			ms, mb := msSince(t0), float64(heapAllocBytes()-a0)/(1<<20)
			switch {
			case pass > 0:
				limits[i].costMS = min(limits[i].costMS, ms)
			case len(lr.Candidates) == 10:
				limits = append(limits, limitRef{w.Name, ms, mb, digestLimit(lr)})
			}
		}
	}
	for _, l := range limits {
		fmt.Fprintf(&b, "limit %s %.0f %.1f %s\n", l.name, l.costMS, l.allocMB, l.digest)
	}
	return os.WriteFile(filepath.Join(benchDir, refFile), []byte(b.String()), 0o644)
}

// hashReport writes every value of a report's series to h.
func hashReport(h hash.Hash, tag string, series []*stats.Series) {
	for _, s := range series {
		progs := make([]string, 0, len(s.Values))
		for p := range s.Values {
			progs = append(progs, p)
		}
		sort.Strings(progs)
		for _, p := range progs {
			fmt.Fprintf(h, "%s\t%s\t%s\t%016x\n", tag, s.Label, p, math.Float64bits(s.Values[p]))
		}
	}
}
