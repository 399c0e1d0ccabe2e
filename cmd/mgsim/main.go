// Command mgsim runs one workload through the cycle-level simulator on a
// chosen machine configuration and mini-graph selection policy, printing
// IPC and pipeline statistics.
//
// Usage:
//
//	mgsim -workload comm.crc32 [-input large] [-config reduced] [-selector Slack-Profile] [-v]
//
// With -selector none (the default), the run is a pure singleton execution.
package main

import (
	"context"
	"flag"
	"fmt"
	"log/slog"
	"os"
	"time"

	"repro/internal/core"
	"repro/internal/ledger"
	"repro/internal/metrics"
	"repro/internal/obs"
	"repro/internal/pipeline"
	"repro/internal/selector"
	"repro/internal/slack"
	"repro/internal/workload"
)

func configByName(name string) (pipeline.Config, error) {
	switch name {
	case "baseline", "full", "4way":
		return pipeline.Baseline(), nil
	case "reduced", "3way":
		return pipeline.Reduced(), nil
	case "2way":
		return pipeline.Width2(), nil
	case "8way":
		return pipeline.Width8(), nil
	case "dmem4":
		return pipeline.SmallDMem(), nil
	}
	return pipeline.Config{}, fmt.Errorf("unknown config %q (baseline, reduced, 2way, 8way, dmem4)", name)
}

func selectorByName(name string) (*selector.Selector, error) {
	switch name {
	case "none", "":
		return nil, nil
	case "Struct-All":
		return selector.StructAll(), nil
	case "Struct-None":
		return selector.StructNone(), nil
	case "Struct-Bounded":
		return selector.StructBounded(), nil
	case "Slack-Profile":
		return selector.SlackProfile(), nil
	case "Slack-Profile-Delay":
		return selector.SlackProfileDelay(), nil
	case "Slack-Profile-SIAL":
		return selector.SlackProfileSIAL(), nil
	case "Slack-Dynamic":
		return selector.SlackDynamic(), nil
	case "Ideal-Slack-Dynamic":
		return selector.IdealSlackDynamic(), nil
	}
	return nil, fmt.Errorf("unknown selector %q", name)
}

func main() {
	var (
		wName     = flag.String("workload", "", "workload name (see -list)")
		input     = flag.String("input", "large", "input set: small or large")
		cfgName   = flag.String("config", "baseline", "machine: baseline, reduced, 2way, 8way, dmem4")
		selName   = flag.String("selector", "none", "selection policy (or none)")
		list      = flag.Bool("list", false, "list workloads and exit")
		verbose   = flag.Bool("v", false, "print the mini-graph selection and structured telemetry")
		pipetrace = flag.Bool("pipetrace", false, "write a per-uop pipetrace JSONL of the run")
		ptraceBin = flag.Bool("pipetrace-bin", false, "write the pipetrace in the compact binary encoding (with a .mgidx seek index) instead of JSONL")
		intervals = flag.Int64("intervals", 0, "sample interval metrics every N cycles (0 = off)")
		tracedir  = flag.String("tracedir", "", "observability output directory (default \"obs\")")
		httpaddr  = flag.String("httpaddr", "", "serve expvar, pprof, /metrics and /debug/sweep on this address during the run")
		traceOut  = flag.String("trace-out", "", "write a Chrome trace (and FILE.spans.jsonl) of the run's spans to FILE")
		refsched  = flag.Bool("refsched", false, "use the reference per-cycle scan scheduler instead of the event-driven one")
		ledgerDir = flag.String("ledger", "", "append a run record to the persistent ledger in this directory")
		ledgerRev = flag.String("ledger-rev", "", "revision label for ledger records (default: MG_REV or the binary's vcs revision)")
	)
	flag.Parse()
	runStart := metrics.StartRun()
	if err := core.CheckFlags(*input, nil, 0, *intervals); err != nil {
		fmt.Fprintln(os.Stderr, "mgsim:", err)
		os.Exit(2)
	}
	if *refsched {
		pipeline.SetDefaultScheduler(pipeline.SchedScan)
	}
	if *ledgerDir != "" {
		led, err := ledger.Open(*ledgerDir, *ledgerRev)
		if err != nil {
			fmt.Fprintln(os.Stderr, "mgsim:", err)
			os.Exit(1)
		}
		defer led.Close()
		core.SetLedger(led)
	}

	if *list {
		for _, w := range workload.All() {
			fmt.Printf("%-18s %s\n", w.Name, w.Suite)
		}
		return
	}
	if *wName == "" {
		fmt.Fprintln(os.Stderr, "mgsim: -workload required (use -list to see names)")
		os.Exit(2)
	}
	cfg, err := configByName(*cfgName)
	if err != nil {
		fmt.Fprintln(os.Stderr, "mgsim:", err)
		os.Exit(2)
	}
	sel, err := selectorByName(*selName)
	if err != nil {
		fmt.Fprintln(os.Stderr, "mgsim:", err)
		os.Exit(2)
	}
	if *verbose {
		core.SetTelemetry(slog.New(slog.NewTextHandler(os.Stderr, nil)))
	}
	if *httpaddr != "" {
		core.EnableMetrics()
		addr, err := obs.ServeDebug(*httpaddr)
		if err != nil {
			fmt.Fprintln(os.Stderr, "mgsim:", err)
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

	ctx, runSpan := metrics.StartSpan(context.Background(), "mgsim.run",
		metrics.L("workload", *wName), metrics.L("config", *cfgName), metrics.L("selector", *selName))
	_, psp := metrics.StartSpan(ctx, "prepare",
		metrics.L("workload", *wName), metrics.L("input", *input))
	bench, err := core.PrepareByName(*wName, *input)
	psp.End()
	if err != nil {
		fmt.Fprintln(os.Stderr, "mgsim:", err)
		os.Exit(1)
	}

	t0 := time.Now()
	// Whole-process deltas, not per-thread: the run is not pinned to an OS
	// thread, so a thread-local reading would miss time after a migration.
	cpu0 := metrics.ProcessCPUNanos()
	gc0 := metrics.GCCycleCount()
	var watch *obs.Observer
	if o := obs.FlagOptions(*pipetrace, *ptraceBin, *intervals, *tracedir); o.Active() {
		base := fmt.Sprintf("%s_%s_%s_%s", *wName, *input, cfg.Name, *selName)
		if watch, err = obs.NewRunObserver(o, base); err != nil {
			fmt.Fprintln(os.Stderr, "mgsim:", err)
			os.Exit(1)
		}
	}

	var st *pipeline.Stats
	if sel == nil {
		_, ssp := metrics.StartSpan(ctx, "simulate", metrics.L("config", cfg.Name))
		if watch != nil {
			st, err = bench.RunSingletonObserved(cfg, watch)
		} else {
			st, err = bench.RunSingleton(cfg)
		}
		ssp.End()
	} else {
		var prof *slack.Profile
		if sel.NeedsProfile() {
			pctx, prsp := metrics.StartSpan(ctx, "profile", metrics.L("config", cfg.Name))
			prof, err = bench.ProfileCtx(pctx, cfg)
			prsp.End()
			if err != nil {
				fmt.Fprintln(os.Stderr, "mgsim:", err)
				os.Exit(1)
			}
		}
		_, sesp := metrics.StartSpan(ctx, "select", metrics.L("policy", sel.Name()))
		chosen := bench.Select(sel, prof)
		sesp.End()
		if *verbose {
			fmt.Printf("selection coverage (static estimate): %.1f%%\n", 100*chosen.Coverage())
		}
		_, ssp := metrics.StartSpan(ctx, "simulate",
			metrics.L("config", cfg.Name), metrics.L("policy", sel.Name()))
		if watch != nil {
			st, err = bench.RunObserved(cfg, sel, chosen, watch)
		} else {
			st, err = bench.Run(cfg, sel, chosen)
		}
		ssp.End()
	}
	runSpan.End()
	if tracer != nil {
		if jsonl, terr := metrics.WriteTraceFiles(*traceOut, tracer); terr != nil {
			fmt.Fprintln(os.Stderr, "mgsim:", terr)
			os.Exit(1)
		} else {
			fmt.Fprintf(os.Stderr, "trace: %s (Chrome/Perfetto), %s (JSONL)\n", *traceOut, jsonl)
		}
	}
	if watch != nil {
		if cerr := watch.Close(); cerr != nil && err == nil {
			err = cerr
		}
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "mgsim:", err)
		os.Exit(1)
	}
	if led := core.RunLedger(); led != nil {
		cache := "run"
		if watch != nil {
			cache = "traced"
		}
		if aerr := led.Append(ledger.Record{
			Tool: "mgsim", Workload: *wName, Series: cfg.Name + "/" + *selName, Input: *input,
			Key:      core.TaskKey(bench, sel, cfg, "", cfg, nil).Short(),
			Cache:    cache,
			WallMS:   float64(time.Since(t0)) / float64(time.Millisecond),
			CPUMS:    float64(metrics.ProcessCPUNanos()-cpu0) / 1e6,
			MaxRSSKB: metrics.MaxRSSKB(),
			GCCycles: metrics.GCCycleCount() - gc0,
			Cycles:   st.Cycles, Instrs: st.Instrs, Uops: st.Uops,
			IPC: st.IPC(), UPC: st.UPC(), Coverage: st.Coverage(),
		}); aerr != nil {
			fmt.Fprintln(os.Stderr, "mgsim: ledger:", aerr)
		}
	}
	if watch != nil {
		fmt.Fprintf(os.Stderr, "observability files: %v\n", watch.Files())
		if ix := watch.IndexInfo(); ix != nil {
			fmt.Fprintf(os.Stderr, "trace index: %s — %d records, commit cycles %d..%d (query with mgtrace -window)\n",
				ix.File, ix.Records, ix.MinCycle, ix.MaxCycle)
		}
	}

	fmt.Printf("workload=%s input=%s config=%s selector=%s\n", *wName, *input, cfg.Name, *selName)
	fmt.Print(st)
	fmt.Fprintln(os.Stderr, metrics.FormatResources(runStart))
}
