// Command reprobench is the repository's end-to-end benchmark. It runs a
// workload (the full paper reproduction, the Figure 9 cross-training
// sweeps, or the Figure 8 limit study on seed-picked programs) through
// the public internal/core entry points cmd/mgreport uses, checks every
// simulated output against the repository's reference, and prints one
// JSON result line. With --trace 1 it instead replays the same work layer
// by layer from its own code and reports per-layer costs. See README.md.
//
// Run it from the repository root through the launcher, which builds it:
//
//	bash reprobench/run.sh --workload reproduce --seed 1 --seconds 30 --trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"os"
	"runtime"
	"sort"
	"time"

	"repro/internal/core"
)

// workers is the sweep worker count and GOMAXPROCS of every run.
const workers = 2

// setupReps extra set-ups run before the timed loop, so that setup_s is a
// median of several samples even when one iteration fills the budget.
const setupReps = 4

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func (r *result) set(name string, v float64, unit string) {
	if r.Metrics == nil {
		r.Metrics = map[string]metric{}
	}
	r.Metrics[name] = metric{v, unit}
}

func main() {
	log.SetFlags(0)
	log.SetPrefix("reprobench: ")
	var (
		name     = flag.String("workload", "", "workload: reproduce, cross-train or limit-study")
		seed     = flag.Int64("seed", 1, "seed; picks the limit-study programs")
		seconds  = flag.Float64("seconds", 30, "measurement budget of a run, in seconds")
		trace    = flag.Int("trace", 0, "0 = end-to-end metrics, 1 = traced per-layer pass")
		writeRef = flag.Bool("write-reference", false, "regenerate "+benchDir+"/"+refFile+" from the current program and exit")
	)
	flag.Parse()
	runtime.GOMAXPROCS(workers)
	if *writeRef {
		if err := writeReference(); err != nil {
			log.Fatal(err)
		}
		return
	}
	if *trace != 0 && *trace != 1 {
		log.Fatalf("--trace must be 0 or 1, not %d", *trace)
	}
	ref, err := loadReference()
	if err != nil {
		log.Fatal(err)
	}
	p, err := makePlan(*name, *seed, ref)
	if err != nil {
		log.Fatal(err)
	}
	var res *result
	var iters int
	if *trace == 1 {
		res, err = traced(p, ref, *name, *seed)
		iters = 1
	} else {
		res, iters, err = measure(p, ref, time.Duration(*seconds*float64(time.Second)))
	}
	if err != nil {
		log.Fatal(err)
	}

	var progs []string
	for _, s := range p.steps {
		if s.sweep == nil {
			progs = append(progs, s.limit)
		}
	}
	host, _ := json.Marshal(map[string]any{
		"benchmark": benchDir, "workload": p.name, "seed": *seed, "trace": *trace,
		"rev": sourceRev(), "cpu": cpuModel(), "nproc": runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0), "go": runtime.Version(), "workers": workers,
		"iterations": iters, "limit_programs": progs,
	})
	fmt.Println(string(host))
	names := make([]string, 0, len(res.Metrics))
	for n := range res.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(os.Stderr, "%-36s %14.4f %s\n", n, res.Metrics[n].Value, res.Metrics[n].Unit)
	}
	fmt.Fprintf(os.Stderr, "%-36s %14.4f %s\n", "fail_ratio", float64(res.Failed)/float64(res.Attempted), "ratio")
	out, err := json.Marshal(res)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println(string(out))
}

// measure runs the untraced end-to-end measurement: set-up, then timed
// iterations while the budget lasts, each starting from empty caches with
// every bench prepared. Metrics are medians over iterations.
func measure(p *plan, ref *reference, budget time.Duration) (*result, int, error) {
	var setupS, wallS, cpuS, rssMB, allocMB []float64
	setup := func() {
		core.ResetCaches()
		runtime.GC()
		t0 := time.Now()
		if err := p.setup(); err != nil {
			// The timed phase meets the same error and counts it.
			log.Print("set-up: ", err)
		}
		setupS = append(setupS, time.Since(t0).Seconds())
	}
	for i := 0; i < setupReps; i++ {
		setup()
	}
	res := &result{Correct: true}
	start := time.Now()
	for time.Since(start) < budget || len(wallS) == 0 {
		setup()
		rss := startPeakRSS()
		alloc0, cpu0, wall0 := heapAllocBytes(), processCPU(), time.Now()
		secs := p.run()
		wallS = append(wallS, time.Since(wall0).Seconds())
		cpuS = append(cpuS, (processCPU() - cpu0).Seconds())
		allocMB = append(allocMB, float64(heapAllocBytes()-alloc0)/(1<<20))
		rssMB = append(rssMB, rss.MB())
		i := len(wallS) - 1
		log.Printf("iteration %d: wall %.3f s, cpu %.3f s, peak rss %.1f MB, alloc %.1f MB, set-up %.4f s",
			i+1, wallS[i], cpuS[i], rssMB[i], allocMB[i], setupS[len(setupS)-1])
		if err := res.check(p, secs, ref); err != nil {
			return nil, 0, err
		}
	}
	res.set("wall_s", median(wallS), "s")
	res.set("cpu_s", median(cpuS), "s")
	res.set("setup_s", median(setupS), "s")
	res.set("peak_rss_mb", median(rssMB), "MB")
	res.set("alloc_mb", median(allocMB), "MB")
	return res, len(wallS), nil
}

// check adds one iteration's operations and output check to the result.
func (r *result) check(p *plan, secs []section, ref *reference) error {
	failed, ok, err := checkOutputs(p, secs, ref)
	if err != nil {
		return err
	}
	for _, s := range secs {
		r.Attempted += s.ops
		if s.err != nil {
			log.Printf("%s: %v", s.key, s.err)
		}
	}
	if !ok {
		log.Printf("output check failed: %d operations differ from the reference", failed)
	}
	r.Failed += failed
	r.Correct = r.Correct && ok
	return nil
}

func msSince(t time.Time) float64 { return float64(time.Since(t)) / float64(time.Millisecond) }
