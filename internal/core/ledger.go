package core

import (
	"sync/atomic"

	"repro/internal/ledger"
	"repro/internal/obs"
)

// This file bridges the sweep engine to the persistent run ledger. The
// ledger follows the telemetry idiom: a process-wide atomic pointer that
// is nil by default, so recording costs one atomic load when off and the
// simulation paths stay byte-identical either way.

// runLedger is the installed run-history ledger; nil disables recording.
var runLedger atomic.Pointer[ledger.Ledger]

// SetLedger installs (or, with nil, removes) the run ledger that receives
// one record per completed simulation task, and wires the /debug/dash
// observatory to it. Drivers call this once at startup for -ledger runs.
func SetLedger(l *ledger.Ledger) {
	runLedger.Store(l)
	if l != nil {
		obs.SetDashHandler(ledger.DashHandler(RunLedger))
	}
}

// RunLedger returns the installed run ledger, or nil when recording is
// off.
func RunLedger() *ledger.Ledger { return runLedger.Load() }

// appendTaskRecord writes one finished sweep task into the run ledger; a
// no-op when no ledger is installed. Append failures are reported through
// telemetry rather than failing the sweep: history is an observability
// concern, never a correctness one.
func appendTaskRecord(sweep, input string, t *taskRecord) {
	l := runLedger.Load()
	if l == nil {
		return
	}
	r := ledger.Record{
		Tool:     "sweep",
		Sweep:    sweep,
		Workload: t.workload,
		Series:   t.series,
		Input:    input,
		Key:      t.key.Short(),
		Cache:    t.outcome,
		WallMS:   t.wallMS(),
		CPUMS:    float64(t.use.CPUNanos) / 1e6,
		MaxRSSKB: t.use.MaxRSSKB,
		GCCycles: t.use.GCCycles,
	}
	if st := t.stats; st != nil {
		r.Cycles, r.Instrs, r.Uops = st.Cycles, st.Instrs, st.Uops
		r.IPC, r.UPC, r.Coverage = st.IPC(), st.UPC(), st.Coverage()
	}
	if t.err != nil {
		r.Error = t.err.Error()
	}
	if werr := l.Append(r); werr != nil {
		if log := tlog(); log != nil {
			log.Warn("ledger.append", "error", werr)
		}
	}
}
