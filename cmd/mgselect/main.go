// Command mgselect runs a mini-graph selection policy over a workload and
// prints the chosen mini-graphs: template groups, instances, coverage, and
// the serialization classification of each candidate.
//
// Usage:
//
//	mgselect -workload comm.crc32 [-input large] -selector Slack-Profile [-config reduced]
package main

import (
	"context"
	"flag"
	"fmt"
	"log/slog"
	"os"
	"runtime"
	"time"

	"repro/internal/core"
	"repro/internal/ledger"
	"repro/internal/metrics"
	"repro/internal/obs"
	"repro/internal/pipeline"
	"repro/internal/selector"
	"repro/internal/slack"
)

func main() {
	var (
		wName      = flag.String("workload", "", "workload name")
		input      = flag.String("input", "large", "input set")
		selName    = flag.String("selector", "Struct-All", "selection policy")
		cfgName    = flag.String("config", "reduced", "profiling machine for slack-based policies")
		workers    = flag.Int("workers", 0, "max concurrent simulations (0 = GOMAXPROCS)")
		cacheStats = flag.Bool("cachestats", false, "print simulation-cache counters to stderr")
		pipetrace  = flag.Bool("pipetrace", false, "write a per-uop pipetrace JSONL of the profiling run")
		ptraceBin  = flag.Bool("pipetrace-bin", false, "write the pipetrace in the compact binary encoding (with a .mgidx seek index) instead of JSONL")
		intervals  = flag.Int64("intervals", 0, "sample interval metrics of the profiling run every N cycles (0 = off)")
		tracedir   = flag.String("tracedir", "", "observability output directory (default \"obs\")")
		verbose    = flag.Bool("v", false, "structured telemetry on stderr")
		httpaddr   = flag.String("httpaddr", "", "serve expvar, pprof, /metrics and /debug/sweep on this address during the run")
		traceOut   = flag.String("trace-out", "", "write a Chrome trace (and FILE.spans.jsonl) of the run's spans to FILE")
		refsched   = flag.Bool("refsched", false, "use the reference per-cycle scan scheduler instead of the event-driven one")
		ledgerDir  = flag.String("ledger", "", "append a selection record to the persistent ledger in this directory")
		ledgerRev  = flag.String("ledger-rev", "", "revision label for ledger records (default: MG_REV or the binary's vcs revision)")
	)
	flag.Parse()
	if *refsched {
		pipeline.SetDefaultScheduler(pipeline.SchedScan)
	}
	if *ledgerDir != "" {
		led, err := ledger.Open(*ledgerDir, *ledgerRev)
		if err != nil {
			fmt.Fprintln(os.Stderr, "mgselect:", err)
			os.Exit(1)
		}
		defer led.Close()
		core.SetLedger(led)
	}
	if *wName == "" {
		fmt.Fprintln(os.Stderr, "mgselect: -workload required")
		os.Exit(2)
	}
	if *workers > 0 {
		// One workload is prepared here, but preparation and profiling can
		// fan out internally; bound the process like core.Options.Workers.
		runtime.GOMAXPROCS(*workers)
	}
	if *verbose {
		core.SetTelemetry(slog.New(slog.NewTextHandler(os.Stderr, nil)))
	}
	if *httpaddr != "" {
		core.EnableMetrics()
		addr, err := obs.ServeDebug(*httpaddr)
		if err != nil {
			fmt.Fprintln(os.Stderr, "mgselect:", err)
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "debug server on http://%s — /debug/vars /debug/pprof/ /metrics /debug/sweep\n", addr)
		metrics.StartHealth(0)
	}
	var tracer *metrics.Tracer
	if *traceOut != "" {
		core.EnableMetrics()
		tracer = metrics.NewTracer()
		metrics.InstallTracer(tracer)
		metrics.SetTraceOut(*traceOut)
		metrics.SetCPUAccounting(true)
	}

	var sel *selector.Selector
	switch *selName {
	case "Struct-All":
		sel = selector.StructAll()
	case "Struct-None":
		sel = selector.StructNone()
	case "Struct-Bounded":
		sel = selector.StructBounded()
	case "Slack-Profile":
		sel = selector.SlackProfile()
	case "Slack-Profile-Delay":
		sel = selector.SlackProfileDelay()
	case "Slack-Profile-SIAL":
		sel = selector.SlackProfileSIAL()
	case "Slack-Dynamic":
		sel = selector.SlackDynamic()
	default:
		fmt.Fprintf(os.Stderr, "mgselect: unknown selector %q\n", *selName)
		os.Exit(2)
	}
	// cfg is the profiling machine for slack-based policies.
	var cfg pipeline.Config
	switch *cfgName {
	case "baseline":
		cfg = pipeline.Baseline()
	case "reduced":
		cfg = pipeline.Reduced()
	default:
		fmt.Fprintf(os.Stderr, "mgselect: unknown config %q\n", *cfgName)
		os.Exit(2)
	}

	t0 := time.Now()
	// Whole-process deltas, not per-thread: the run is not pinned to an OS
	// thread, so a thread-local reading would miss time after a migration.
	cpu0 := metrics.ProcessCPUNanos()
	gc0 := metrics.GCCycleCount()
	ctx, runSpan := metrics.StartSpan(context.Background(), "mgselect.run",
		metrics.L("workload", *wName), metrics.L("selector", *selName))
	bench, err := core.PrepareSharedByName(*wName, *input)
	if err != nil {
		fmt.Fprintln(os.Stderr, "mgselect:", err)
		os.Exit(1)
	}
	var prof *slack.Profile
	if sel.NeedsProfile() {
		if o := obs.FlagOptions(*pipetrace, *ptraceBin, *intervals, *tracedir); o.Active() {
			// Trace the profiling run itself: the singleton execution the
			// slack profile is collected from.
			base := fmt.Sprintf("%s_%s_%s_profile", *wName, *input, cfg.Name)
			watch, werr := obs.NewRunObserver(o, base)
			if werr != nil {
				fmt.Fprintln(os.Stderr, "mgselect:", werr)
				os.Exit(1)
			}
			prof, err = bench.ProfileObserved(cfg, watch)
			if cerr := watch.Close(); cerr != nil && err == nil {
				err = cerr
			}
			if err == nil {
				fmt.Fprintf(os.Stderr, "observability files: %v\n", watch.Files())
			}
		} else {
			pctx, prsp := metrics.StartSpan(ctx, "profile", metrics.L("config", cfg.Name))
			prof, err = bench.ProfileCtx(pctx, cfg)
			prsp.End()
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, "mgselect:", err)
			os.Exit(1)
		}
	}

	_, ssp := metrics.StartSpan(ctx, "select", metrics.L("policy", sel.Name()))
	chosen := bench.Select(sel, prof)
	ssp.End()
	runSpan.End()
	if tracer != nil {
		jsonl, terr := metrics.WriteTraceFiles(*traceOut, tracer)
		if terr != nil {
			fmt.Fprintln(os.Stderr, "mgselect:", terr)
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "trace: %s (Chrome/Perfetto), %s (JSONL)\n", *traceOut, jsonl)
	}
	if led := core.RunLedger(); led != nil {
		// Selection-only record: Cycles stays 0, so history queries list it
		// but the compare gate never treats it as a timing point.
		if aerr := led.Append(ledger.Record{
			Tool: "mgselect", Workload: *wName, Series: sel.Name(), Input: *input,
			Cache:    "run",
			WallMS:   float64(time.Since(t0)) / float64(time.Millisecond),
			CPUMS:    float64(metrics.ProcessCPUNanos()-cpu0) / 1e6,
			MaxRSSKB: metrics.MaxRSSKB(),
			GCCycles: metrics.GCCycleCount() - gc0,
			Coverage: chosen.Coverage(),
		}); aerr != nil {
			fmt.Fprintln(os.Stderr, "mgselect: ledger:", aerr)
		}
	}
	fmt.Printf("workload=%s selector=%s candidates=%d\n", *wName, sel.Name(), len(bench.Cands))
	fmt.Printf("selected: %d instances, %d templates, %.1f%% dynamic coverage\n",
		len(chosen.Instances), chosen.NumTemplates, 100*chosen.Coverage())
	for _, in := range chosen.Instances {
		c := in.Cand
		kind := "plain"
		switch {
		case c.Serializing() && !c.BoundedSerialization():
			kind = "serializing(unbounded)"
		case c.Serializing():
			kind = "serializing(bounded)"
		}
		fmt.Printf("\ntemplate %d @ %d (freq %d, %s):\n", in.Template, in.Start, bench.Freq[in.Start], kind)
		for k := 0; k < in.N; k++ {
			fmt.Printf("  %4d  %s\n", in.Start+k, bench.Prog.Code[in.Start+k])
		}
	}
	if *cacheStats {
		core.FprintCacheStats(os.Stderr)
	}
	fmt.Fprintln(os.Stderr, metrics.FormatResources(time.Since(t0)))
}
