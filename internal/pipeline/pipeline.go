package pipeline

import (
	"fmt"
	"math"

	"repro/internal/bpred"
	"repro/internal/cache"
	"repro/internal/emu"
	"repro/internal/isa"
	"repro/internal/minigraph"
	"repro/internal/obs"
	"repro/internal/prog"
	"repro/internal/slack"
	"repro/internal/storesets"
)

type uopKind uint8

const (
	kindSingleton    uopKind = iota
	kindHandle               // mini-graph handle
	kindOverheadJump         // outlining jump of a disabled mini-graph
)

const never = int64(math.MaxInt64)

// uop is one in-flight micro-op: a singleton instruction, a mini-graph
// handle (one uop standing for up to four instructions), or an outlining
// overhead jump.
//
// Fields the scheduler touches every cycle — issue/ready/resolve times,
// wait counts, wakeup chains, dependence slots, squash/commit flags — live
// in the machine's hotState arrays (see soa.go), indexed by slot. The
// struct keeps the per-uop state read at most a handful of times per uop:
// decode/fetch-time facts, memory/branch bookkeeping, recycling state and
// profiling extras.
type uop struct {
	slot     int32 // index into the machine's hotState arrays (permanent)
	seq      int64
	traceIdx int // first trace record index (overhead jumps borrow their MG's)
	nRecs    int // trace records this uop accounts for (0 for overhead jumps)
	static   int // static index of the (first) instruction
	kind     uopKind
	mg       *minigraph.Instance

	op    isa.Op
	class isa.Class

	fetchCycle  int64
	renameReady int64
	renameCycle int64 // actual rename cycle (-1 until renamed; pipetrace)

	nSrc      int
	srcReg    [3]isa.Reg
	srcReadyC [3]int64

	writesReg  bool
	dstReg     isa.Reg
	prevWriter *uop

	isLoad, isStore bool
	memAddr         uint32
	memCycle        int64 // cycle the load's memory access begins
	forwardedFrom   *uop

	hasBranch bool // this uop resolves a control transfer
	mispred   bool
	actualTkn bool
	replays   uint16 // wasted issue attempts (pipetrace)

	// Recycling state (see reclaim): refBarrier is the machine seq at this
	// uop's commit — once every older uop has left the window, no in-flight
	// uop can still hold a pointer to this one. writerDead marks a committed
	// register writer whose successor writer has also committed (it can no
	// longer be re-captured through lastWriter, even across a flush).
	// parked marks a writer that cleared its barrier while still live in
	// the rename table.
	refBarrier int64
	writerDead bool
	parked     bool

	// Slack-Dynamic per-instance detection state.
	serialized bool

	// Pipetrace-only dependence/serialization observables (populated only
	// when an observer with an active trace is attached; stay zero and cost
	// nothing otherwise).
	serLat int64 // completion delay vs. the dataflow-feasible internal schedule
	serOut int64 // register-output delay vs. that schedule
	memLat int64 // load cycles beyond the L1-hit path
	serExt bool  // issued data-bound on a serializing external input

	// Profiling: isHead marks a basic-block head (the Issue/Ready base of
	// every uop up to the next head), fwdConsExec is the earliest memory
	// cycle of a load forwarding from this store, and nCons counts executed
	// consumer sources up to maxTrackedConsumers.
	isHead      bool
	nCons       uint8
	fwdConsExec int64
}

// fetchItem is a prepared fetch unit awaiting its fetch cycle.
type fetchItem struct {
	kind      uopKind
	static    int
	traceIdx  int
	nRecs     int
	addr      uint32
	mg        *minigraph.Instance
	endsGroup bool // taken control transfer: ends the fetch group
}

type violation struct {
	atCycle int64
	load    *uop
	store   *uop
}

type machine struct {
	cfg Config
	mgc MGConfig
	p   *prog.Program
	tr  []emu.Rec

	hier *cache.Hierarchy
	bp   *bpred.Predictor
	ss   *storesets.Predictor
	mon  *mgMonitor

	stats Stats
	prof  *slack.Accumulator
	watch *obs.Observer // nil when observability is off (the common case)

	// Flight-recorder sink (see obs/flight.go): captured once per run from
	// the process-wide recorder, so the hot path tests one machine field.
	// emitUops is true when any sink (trace file or flight ring) wants uop
	// records; obsSrcs is the reused source-list scratch for those records.
	flight    *obs.FlightRecorder
	flightRun string
	emitUops  bool
	obsSrcs   [3]int

	cycle int64
	seq   int64

	fetchIdx       int
	fetchStall     int64 // no fetch before this cycle
	pendingBranch  *uop  // unresolved mispredicted control transfer
	fetchPending   ring[fetchItem]
	fetchQ         ring[*uop]
	window         ring[*uop] // ROB, oldest first
	iq             []*uop     // issue queue, oldest first
	inflightStores ring[*uop] // renamed stores, oldest first
	inflightLoads  ring[*uop] // renamed loads, oldest first
	pendingViol    []violation
	freeRegs       int
	lqUsed, sqUsed int
	lastWriter     [isa.NumRegs]*uop
	layout         *minigraph.Layout

	// Slack profiling (prof != nil): one record per trace record (see
	// profRec), kept across pooling; bbOpen is false until the first rename
	// and after a flush, making the next renamed uop a block head; headIssue
	// is the issue cycle of the last committed head.
	profRecs  []profRec
	bbOpen    bool
	headIssue int64

	// Last computed layout, kept across pooling: layouts are immutable and
	// depend only on (program, selection), and a pooled machine almost
	// always re-runs the same workload. Pooled machines live as long as the
	// process, so each pins its last program, selection and layout until
	// its next run replaces them.
	layoutP   *prog.Program
	layoutSel *minigraph.Selection
	layoutC   *minigraph.Layout

	// Uop recycling: committed uops queue in retired until provably
	// unreferenced, then return to freeUops for reuse by makeUop.
	recycle       bool
	freeUops      []*uop
	retired       ring[*uop]
	squashScratch []*uop

	// Slot-indexed structure-of-arrays for the fields the scheduler hot
	// loops touch every cycle (see soa.go). Both schedulers use it.
	hot hotState

	// Event-scheduler state (see sched.go): the ready-queue heap of issue
	// candidates keyed by earliest-issue cycle, the flat list of candidates
	// waking exactly next cycle (the dominant case, kept off the heap), the
	// per-cycle candidate scratch, and the issue-queue occupancy (the scan
	// scheduler reads len(iq) instead). Wakeup chains thread through the
	// wakeNodes pool; freed nodes chain off wakeFree for reuse.
	sched        SchedKind
	readyQ       []readyEnt
	readyNext    []int32
	issueScratch []int32
	iqCount      int
	wakeNodes    []wakeNode
	wakeFree     int32

	// Calendar wheel for wakes within wheelSize cycles: slot s chains the
	// uops waking at cycles ≡ s (mod wheelSize) through hot.link, with an
	// occupancy bitmap so the idle-skip logic finds the earliest pending
	// wake in a few word scans.
	wheelHead [wheelSize]int32
	wheelBits [wheelSize / 64]uint64
	wheelCnt  int
}

// iqLen returns the issue-queue occupancy under either scheduler.
func (m *machine) iqLen() int {
	if m.sched == SchedScan {
		return len(m.iq)
	}
	return m.iqCount
}

// noRecycle disables uop recycling; tests flip it to verify recycling
// changes no architectural outcome and no slack profile.
var noRecycle bool

// Run replays the committed trace of program p on the configured machine
// and returns timing statistics. mg configures mini-graph processing (zero
// MGConfig = singleton execution). When prof is non-nil the run records a
// slack profile into it; profiles are per static singleton instruction
// (the paper's non-mini-graph profiles), so profiling with mini-graphs
// enabled is an error.
func Run(p *prog.Program, tr []emu.Rec, cfg Config, mg MGConfig, prof *slack.Accumulator) (*Stats, error) {
	return RunSched(p, tr, cfg, mg, prof, nil, DefaultScheduler())
}

// RunObserved is Run with an attached observer collecting pipetrace
// records and/or interval samples (see internal/obs). A nil or inactive
// observer makes it exactly Run: the hot loop pays one nil check per
// cycle and per committed uop.
func RunObserved(p *prog.Program, tr []emu.Rec, cfg Config, mg MGConfig, prof *slack.Accumulator, watch *obs.Observer) (*Stats, error) {
	return RunSched(p, tr, cfg, mg, prof, watch, DefaultScheduler())
}

// RunSched is RunObserved with an explicit scheduler choice, bypassing the
// process-wide default. The differential tests use it to run both
// schedulers side by side; results are byte-identical either way.
func RunSched(p *prog.Program, tr []emu.Rec, cfg Config, mg MGConfig, prof *slack.Accumulator, watch *obs.Observer, sched SchedKind) (*Stats, error) {
	if len(tr) == 0 {
		return nil, fmt.Errorf("pipeline: empty trace")
	}
	if watch != nil && !watch.Active() {
		watch = nil
	}
	if cfg.PhysRegs-isa.NumRegs <= 0 {
		return nil, fmt.Errorf("pipeline: config %q has no rename registers", cfg.Name)
	}
	if prof != nil && mg.Enabled() {
		return nil, fmt.Errorf("pipeline: slack profiling requires a singleton run (mini-graphs enabled)")
	}
	m := getMachine(cfg)
	m.mgc = mg
	m.p = p
	m.tr = tr
	m.watch = watch
	m.flight = obs.Flight()
	if m.flight != nil {
		m.flightRun = p.Name + "/" + cfg.Name
	}
	m.emitUops = m.flight != nil || (watch != nil && watch.Trace != nil)
	m.sched = sched
	m.prof = prof
	m.recycle = !noRecycle
	if prof != nil {
		if cap(m.profRecs) < len(tr) {
			m.profRecs = make([]profRec, len(tr))
		}
		m.profRecs = m.profRecs[:len(tr)]
	}
	if mg.Enabled() {
		m.layout = mg.Layout
		if m.layout == nil {
			if m.layoutP == p && m.layoutSel == mg.Selection {
				m.layout = m.layoutC
			} else {
				m.layout = minigraph.NewLayout(p, mg.Selection)
				m.layoutP, m.layoutSel, m.layoutC = p, mg.Selection, m.layout
			}
		}
		m.mon = newMGMonitor(&mg, mg.Selection.NumTemplates, &m.stats)
		if watch != nil {
			m.mon.trace = watch.Trace
		}
	} else if m.layoutP == p && m.layoutSel == nil {
		m.layout = m.layoutC
	} else {
		m.layout = minigraph.IdentityLayout(p)
		m.layoutP, m.layoutSel, m.layoutC = p, nil, m.layout
	}
	maxCycles := cfg.MaxCycles
	if maxCycles == 0 {
		maxCycles = DefaultMaxCycles
	}
	return m.mainLoop(maxCycles)
}

// mainLoop runs the simulation to completion and returns the detached stats,
// pooling the machine on success.
func (m *machine) mainLoop(maxCycles int64) (*Stats, error) {
	p := m.p
	event := m.sched != SchedScan
	for {
		if m.done() {
			break
		}
		if m.cycle > maxCycles {
			return nil, fmt.Errorf("pipeline: %s on %s exceeded %d cycles (deadlock?)", p.Name, m.cfg.Name, maxCycles)
		}
		m.checkViolations()
		m.commit()
		m.resolvePendingBranch()
		if event {
			m.issueEvent()
		} else {
			m.issue()
		}
		m.rename()
		m.fetch()
		if m.mon != nil && m.mgc.Dynamic {
			m.mon.tick(m.cycle)
		}
		if m.watch != nil {
			m.sampleInterval()
		}
		if event {
			m.advanceCycle(maxCycles)
		} else {
			m.cycle++
		}
	}

	if m.watch != nil && m.watch.Intervals != nil {
		m.watch.Intervals.Final(m.snapshot())
	}
	m.drainProfile()
	m.stats.Cycles = m.cycle
	m.stats.BranchMispredicts = m.bp.DirMisses + m.stats.RASMispredicts
	m.stats.BTBMisses = m.bp.BTBMisses
	m.stats.L1IMissRate = m.hier.L1I.MissRate()
	m.stats.L1DMissRate = m.hier.L1D.MissRate()
	m.stats.L2MissRate = m.hier.L2.MissRate()
	m.stats.MemAccesses = m.hier.MemAccesses
	m.stats.ITLBMisses = m.hier.ITLB.Misses()
	m.stats.DTLBMisses = m.hier.DTLB.Misses()
	noteRun(&m.stats)
	// Copy the stats out and pool the machine: the caller's *Stats must not
	// alias state a later run will overwrite. Error paths above skip the
	// pool — a deadlocked machine's structures are not provably clean.
	st := m.stats
	putMachine(m)
	return &st, nil
}

func (m *machine) done() bool {
	return m.fetchIdx >= len(m.tr) && m.fetchPending.len() == 0 &&
		m.fetchQ.len() == 0 && m.window.len() == 0
}

// --- commit ---

func (m *machine) commit() {
	h := &m.hot
	for n := 0; n < m.cfg.CommitWidth && m.window.len() > 0; n++ {
		u := m.window.at(0)
		s := u.slot
		if h.issue[s] < 0 || h.execDone[s] > m.cycle {
			break
		}
		h.committed[s] = true
		m.window.popFront()
		m.stats.Uops++
		switch u.kind {
		case kindSingleton:
			m.stats.Instrs++
		case kindHandle:
			m.stats.Instrs += int64(u.nRecs)
			m.stats.EmbeddedInstrs += int64(u.nRecs)
			m.stats.Handles++
		case kindOverheadJump:
			m.stats.OverheadJumps++
		}
		if u.writesReg {
			m.freeRegs++ // the previous mapping of dstReg dies
			if pw := u.prevWriter; pw != nil {
				// pw is the previous committed writer of dstReg. With this
				// commit it can never be restored into lastWriter by a flush
				// (that would require squashing u), and rename order
				// guarantees every consumer that captured pw has already
				// committed — pw is now recyclable.
				pw.writerDead = true
				if pw.parked {
					pw.parked = false
					m.freeUops = append(m.freeUops, pw)
				}
				u.prevWriter = nil
			}
		}
		if u.isLoad {
			m.lqUsed--
			removeInflight(&m.inflightLoads, u)
		}
		if u.isStore {
			m.sqUsed--
			removeInflight(&m.inflightStores, u)
			m.ss.CompleteStore(m.storePC(u), u.seq)
			// The store's write updates cache state at commit.
			m.hier.AccessD(m.cycle, u.memAddr, true)
		}
		if m.emitUops {
			m.observeUop(u, m.cycle, false)
		}
		if m.prof != nil {
			m.foldProfile(u)
		}
		if m.recycle {
			u.refBarrier = m.seq
			m.retired.pushBack(u)
		}
	}
	if m.recycle {
		m.reclaim()
	}
}

// reclaim returns committed uops to the free list once nothing can still
// reference them. References to a uop live in younger in-flight uops
// (srcProd, waitStore, forwardedFrom — all captured before its commit, so
// holders have seq < refBarrier), in the rename table (lastWriter /
// prevWriter chains — dead once a younger same-register writer commits,
// tracked by writerDead), in the pending-violation list, and in
// pendingBranch. Commit is in-order, so the retired queue clears its
// barriers in FIFO order; only live register writers park out of order.
func (m *machine) reclaim() {
	for m.retired.len() > 0 {
		h := m.retired.at(0)
		if m.window.len() > 0 && m.window.at(0).seq < h.refBarrier {
			break // an older uop is still in flight and may reference h
		}
		if h == m.pendingBranch || m.referencedByViolation(h) {
			break // transient: clears within a cycle or two
		}
		m.retired.popFront()
		if h.writesReg && !h.writerDead {
			h.parked = true // freed later, when its successor writer commits
			continue
		}
		m.freeUops = append(m.freeUops, h)
	}
}

func (m *machine) referencedByViolation(h *uop) bool {
	for i := range m.pendingViol {
		if m.pendingViol[i].load == h || m.pendingViol[i].store == h {
			return true
		}
	}
	return false
}

// removeInflight drops u from an in-flight ring. Commit removes the oldest
// live entry (in-order commit puts u at the front); flushFrom removes a
// youngest suffix young-to-old (u at the back); the shift fallback keeps
// this robust to any other caller.
func removeInflight(r *ring[*uop], u *uop) {
	n := r.len()
	switch {
	case n == 0:
	case r.at(0) == u:
		r.popFront()
	case r.at(n-1) == u:
		r.popBack()
	default:
		for i := 1; i < n-1; i++ {
			if r.at(i) == u {
				r.removeAt(i)
				return
			}
		}
	}
}

// findInflightStore locates the in-flight store with the given seq tag
// (unique, so search direction is immaterial; backward finds the usually
// recent StoreSets match sooner). Returns nil when the store already left
// the window.
func (m *machine) findInflightStore(tag int64) *uop {
	for i := m.inflightStores.len() - 1; i >= 0; i-- {
		if st := m.inflightStores.at(i); st.seq == tag {
			return st
		}
	}
	return nil
}

// storePC returns the PC used for StoreSets indexing of u's store.
func (m *machine) storePC(u *uop) uint32 {
	if u.kind == kindHandle {
		return prog.PCOf(u.static + u.mg.Cand.MemIdx)
	}
	return prog.PCOf(u.static)
}

func (m *machine) loadPC(u *uop) uint32 { return m.storePC(u) }

// --- branch resolution / fetch unblocking ---

func (m *machine) resolvePendingBranch() {
	b := m.pendingBranch
	if b == nil {
		return
	}
	h := &m.hot
	s := b.slot
	if h.squashed[s] {
		m.pendingBranch = nil
		return
	}
	if h.issue[s] >= 0 && m.cycle >= h.resolve[s] {
		m.pendingBranch = nil
		if m.fetchStall < h.resolve[s]+1 {
			m.fetchStall = h.resolve[s] + 1
		}
	}
}

// --- issue ---

func (m *machine) issue() {
	h := &m.hot
	bud := m.newIssueBudget()
	kept := m.iq[:0]
	for qi := 0; qi < len(m.iq); qi++ {
		u := m.iq[qi]
		if bud.width == 0 {
			kept = append(kept, m.iq[qi:]...)
			break
		}
		if !m.ready(u) {
			kept = append(kept, u)
			continue
		}
		meta := h.meta[u.slot]
		if !bud.admits(meta) {
			kept = append(kept, u)
			continue
		}
		bud.consume(meta)
		// Register read: if a speculatively-woken source turns out to be a
		// missed load, this issue attempt is wasted and the uop replays
		// when the value truly arrives.
		if latest := m.latestSrcReady(u.slot); latest > m.cycle {
			m.stats.Replays++
			u.replays++
			h.earliest[u.slot] = latest
			kept = append(kept, u)
			continue
		}
		m.execute(u)
	}
	m.iq = kept
}

// ready reports whether u may attempt to issue this cycle. Consumers of
// loads wake on the L1-hit-speculative ready time; if the load actually
// missed, the attempt is caught at register read and replayed — consuming
// issue bandwidth, per Table 1's "cache miss replays are modeled".
func (m *machine) ready(u *uop) bool {
	h := &m.hot
	s := u.slot
	if m.cycle < h.earliest[s] {
		return false
	}
	src := h.srcs[s]
	for i := 0; i < u.nSrc; i++ {
		p := src[i]
		if p < 0 {
			continue
		}
		if h.issue[p] < 0 {
			return false
		}
		wake := h.readyOut[p]
		// specReady is written only by singleton-load execution, so gate the
		// read on the producer kind rather than resetting the slot per uop.
		if h.meta[p]&(metaLoad|metaHandle) == metaLoad {
			if sp := h.specReady[p]; sp > 0 && sp < wake {
				wake = sp // speculative load-hit wakeup
			}
		}
		if wake > m.cycle {
			return false
		}
	}
	if w := h.waitSlot[s]; w >= 0 && !h.squashed[w] && !h.committed[w] {
		if h.issue[w] < 0 || h.resolve[w] > m.cycle {
			return false
		}
	}
	return true
}

// latestSrcReady returns the cycle at which every source value of slot s
// truly exists (the register-read check that triggers replays).
func (m *machine) latestSrcReady(s int32) int64 {
	h := &m.hot
	src := h.srcs[s]
	n := int(h.meta[s] >> metaNSrcShift)
	var latest int64
	for i := 0; i < n; i++ {
		if p := src[i]; p >= 0 && h.readyOut[p] > latest {
			latest = h.readyOut[p]
		}
	}
	return latest
}

// recordSrcReady returns the latest source-value ready cycle (for
// Slack-Dynamic detection) and records per-source ready cycles.
func (m *machine) recordSrcReady(u *uop) (lastReady int64, lastIdx int) {
	h := &m.hot
	src := h.srcs[u.slot]
	lastReady, lastIdx = 0, -1
	for i := 0; i < u.nSrc; i++ {
		var r int64
		if p := src[i]; p >= 0 {
			r = h.readyOut[p]
		}
		u.srcReadyC[i] = r
		if r >= lastReady {
			lastReady, lastIdx = r, i
		}
	}
	return lastReady, lastIdx
}

// execute computes all post-issue timing for u at the current cycle.
func (m *machine) execute(u *uop) {
	h := &m.hot
	s := u.slot
	h.issue[s] = m.cycle
	lastReady, lastIdx := m.recordSrcReady(u)

	// Consumers record slack edges to their producers (profiling) and feed
	// the Slack-Dynamic consumer-delay detector (rule #4's hardware
	// analogue).
	src := h.srcs[s]
	for i := 0; i < u.nSrc; i++ {
		p := src[i]
		if p < 0 {
			continue
		}
		if m.prof != nil {
			m.noteConsumer(u, h.uops[p])
		}
		if h.meta[p]&metaHandle != 0 {
			m.noteConsumerOfHandle(m.cycle, h.uops[p])
		}
	}

	exec := m.cycle + int64(m.cfg.IssueToExec)
	switch u.kind {
	case kindHandle:
		m.executeHandle(u, exec, lastReady, lastIdx)
	case kindOverheadJump:
		h.resolve[s] = exec + 1
		h.execDone[s] = exec + 1
		h.readyOut[s] = exec + 1
	default:
		m.executeSingleton(u, exec)
	}
}

func (m *machine) executeSingleton(u *uop, exec int64) {
	h := &m.hot
	s := u.slot
	in := m.p.Code[u.static]
	switch {
	case u.isLoad:
		u.memCycle = exec + 1 // address generation
		ro := m.loadAccess(u, u.memCycle)
		h.readyOut[s] = ro
		h.execDone[s] = ro
		// Consumers wake assuming an L1 hit; a miss triggers replays.
		sp := u.memCycle + int64(m.hier.L1DHitLatency())
		if sp > ro {
			sp = ro
		}
		h.specReady[s] = sp
		m.loadIssueChecks(u)
	case u.isStore:
		h.resolve[s] = exec // address and data resolved
		h.execDone[s] = exec
		h.readyOut[s] = 0 // no register output (pipetrace reads this)
		m.storeIssueChecks(u)
	case u.hasBranch:
		h.resolve[s] = exec + 1
		h.execDone[s] = exec + 1
		h.readyOut[s] = exec + 1 // calls write the return address
	default:
		lat := int64(isa.Latency(in.Op))
		h.readyOut[s] = exec + lat
		h.execDone[s] = exec + lat
	}
}

// executeHandle models MGT-driven execution on an ALU pipeline: constituent
// k issues one cycle after constituent k-1 finishes (forward-only interior
// network, micro-code style), which realizes internal serialization.
func (m *machine) executeHandle(u *uop, exec int64, lastReady int64, lastIdx int) {
	h := &m.hot
	s := u.slot
	c := u.mg.Cand
	t := h.issue[s]   // constituent-k issue time (rule #2 of the paper)
	h.readyOut[s] = 0 // stays 0 for output-less handles (pipetrace reads this)
	var maxDone int64
	var lats [4]int64 // per-constituent latencies (pipetrace attribution)
	for k := 0; k < u.mg.N; k++ {
		in := m.p.Code[u.static+k]
		ek := t + int64(m.cfg.IssueToExec)
		var rk int64
		var lat int64
		switch {
		case in.IsLoad():
			u.memCycle = ek + 1
			rk = m.loadAccess(u, u.memCycle)
			lat = rk - ek
			if m.emitUops {
				u.memLat = rk - (u.memCycle + int64(m.hier.L1DHitLatency()))
				if u.memLat < 0 {
					u.memLat = 0
				}
			}
		case in.IsStore():
			h.resolve[s] = ek
			rk = ek
			lat = 1
		case in.IsBranch():
			rk = ek + 1
			h.resolve[s] = rk
			lat = 1
		default:
			lat = int64(isa.Latency(in.Op))
			rk = ek + lat
		}
		if k == c.OutputIdx {
			h.readyOut[s] = rk
		}
		if rk > maxDone {
			maxDone = rk
		}
		lats[k] = lat
		t += lat
	}
	h.execDone[s] = maxDone
	if u.isLoad {
		m.loadIssueChecks(u)
	}
	if u.isStore {
		m.storeIssueChecks(u)
	}

	// Pipetrace attribution: measure the handle's serialization delay
	// against the dataflow-feasible internal schedule — constituent k could
	// have started once its internal producers finished, so any completion
	// beyond that is the serial ALU pipeline's doing. A pure dependence
	// chain measures 0; independent constituents measure the induced delay.
	if m.emitUops {
		var f [4]int64
		var maxF int64
		for k := 0; k < u.mg.N; k++ {
			var start int64
			deps := c.InternalDeps(k)
			for j := 0; j < k; j++ {
				if deps&(1<<uint(j)) != 0 && f[j] > start {
					start = f[j]
				}
			}
			f[k] = start + lats[k]
			if f[k] > maxF {
				maxF = f[k]
			}
		}
		u.serLat = h.execDone[s] - (exec + maxF)
		if u.serLat < 0 {
			u.serLat = 0
		}
		if c.OutputIdx >= 0 {
			u.serOut = h.readyOut[s] - (exec + f[c.OutputIdx])
			if u.serOut < 0 {
				u.serOut = 0
			}
		}
		u.serExt = lastIdx >= 0 && c.FirstUse[lastIdx] > 0 && h.issue[s] == lastReady
	}

	// Slack-Dynamic serialization detection. An instance suffered
	// serialization delay if either
	//   - external: its last-arriving operand is a serializing operand and
	//     (unless using the SIAL heuristic) the mini-graph issued as soon
	//     as that operand arrived (it was data-bound on it), or
	// Internal serialization is not detected (matching the paper's
	// hardware, which tracks operand arrivals only); in this workload
	// regime an internal-delay detector disables templates whose
	// amplification value exceeds their serialization cost.
	if m.mon != nil && m.mgc.Dynamic && lastIdx >= 0 {
		serInput := c.FirstUse[lastIdx] > 0
		dataBound := h.issue[s] == lastReady
		if serInput && (m.mgc.DynamicSIAL || dataBound) {
			u.serialized = true
			m.stats.MGSerializedEvents++
			if m.mgc.DynamicDelayOnly || m.mgc.DynamicSIAL {
				m.mon.harmful(m.cycle, u.mg.Template)
			}
		} else {
			m.mon.clean(u.mg.Template)
		}
	}
}

// consumerDelayed is called when a consumer of a serialized mini-graph's
// output issues exactly when that output arrived: the serialization delay
// propagated (full Slack-Dynamic model).
func (m *machine) noteConsumerOfHandle(consumerIssue int64, producer *uop) {
	if m.mon == nil || !m.mgc.Dynamic || !producer.serialized {
		return
	}
	if m.mgc.DynamicDelayOnly || m.mgc.DynamicSIAL {
		return // already counted at the producer
	}
	if consumerIssue == m.hot.readyOut[producer.slot] {
		m.mon.harmful(consumerIssue, producer.mg.Template)
	} else {
		// The consumer issued later for its own reasons: the serialization
		// delay was absorbed. Count the instance as clean so templates
		// whose delay is usually absorbed stay enabled.
		m.mon.clean(producer.mg.Template)
	}
}

// loadAccess models the load's cache access (with store forwarding) and
// returns the value-ready cycle.
func (m *machine) loadAccess(u *uop, memCycle int64) int64 {
	// Find the youngest older resolved store to the same word.
	h := &m.hot
	word := u.memAddr >> 2
	var match *uop
	for i := m.inflightStores.len() - 1; i >= 0; i-- {
		st := m.inflightStores.at(i)
		if st.seq >= u.seq {
			continue
		}
		if st.memAddr>>2 != word {
			continue
		}
		if h.issue[st.slot] >= 0 && h.resolve[st.slot] <= memCycle {
			match = st
		}
		break // only the youngest older same-word store matters
	}
	if match != nil {
		u.forwardedFrom = match
		if m.prof != nil && memCycle < match.fwdConsExec {
			match.fwdConsExec = memCycle
		}
		m.noteConsumerOfHandle(h.issue[u.slot], matchRoot(match))
		return memCycle + 1 // SQ forwarding latency
	}
	return m.hier.AccessD(memCycle, u.memAddr, false)
}

// matchRoot exists for symmetry: forwarding producers are uops already.
func matchRoot(s *uop) *uop { return s }

// loadIssueChecks schedules a future memory-ordering violation if an older
// same-address store has issued but resolves only after this load's access.
func (m *machine) loadIssueChecks(u *uop) {
	h := &m.hot
	word := u.memAddr >> 2
	for i := m.inflightStores.len() - 1; i >= 0; i-- {
		st := m.inflightStores.at(i)
		if st.seq >= u.seq || st.memAddr>>2 != word {
			continue
		}
		if h.issue[st.slot] >= 0 && h.resolve[st.slot] > u.memCycle {
			m.pendingViol = append(m.pendingViol, violation{atCycle: h.resolve[st.slot], load: u, store: st})
		}
		break
	}
}

// storeIssueChecks detects younger loads that already executed past this
// store (they read stale data): a violation fires when the store resolves.
func (m *machine) storeIssueChecks(u *uop) {
	h := &m.hot
	res := h.resolve[u.slot]
	word := u.memAddr >> 2
	for i := 0; i < m.inflightLoads.len(); i++ {
		l := m.inflightLoads.at(i)
		if l.seq <= u.seq || h.issue[l.slot] < 0 {
			continue
		}
		if l.memAddr>>2 != word || l.memCycle >= res {
			continue
		}
		// The load read memory (or an older store) before this store's
		// data existed. If it forwarded from a store younger than u, it is
		// still correct.
		if f := l.forwardedFrom; f != nil && f.seq > u.seq {
			continue
		}
		m.pendingViol = append(m.pendingViol, violation{atCycle: res, load: l, store: u})
	}
}

// --- memory-ordering violations ---

func (m *machine) checkViolations() {
	if len(m.pendingViol) == 0 {
		return
	}
	h := &m.hot
	var fire *violation
	kept := m.pendingViol[:0]
	for i := range m.pendingViol {
		v := &m.pendingViol[i]
		if h.squashed[v.load.slot] || h.squashed[v.store.slot] {
			continue
		}
		if v.atCycle <= m.cycle {
			if fire == nil || v.load.seq < fire.load.seq {
				if fire != nil {
					kept = append(kept, *fire)
				}
				fire = v
				continue
			}
		}
		kept = append(kept, *v)
	}
	m.pendingViol = kept
	if fire == nil {
		return
	}
	m.stats.MemOrderFlushes++
	if m.watch != nil && m.watch.Trace != nil {
		m.watch.Trace.Event(m.cycle, obs.EvFlush, -1, fire.load.seq)
	}
	if debugViolationHook != nil {
		debugViolationHook(m.loadPC(fire.load), m.storePC(fire.store))
	}
	m.ss.Violation(m.loadPC(fire.load), m.storePC(fire.store))
	m.flushFrom(fire.load)
}

// flushFrom squashes the violating load and everything younger, restoring
// rename state, and redirects fetch to refetch from the load.
func (m *machine) flushFrom(v *uop) {
	h := &m.hot
	// Squash fetchQ and pending items entirely (all younger than v).
	m.squashScratch = m.squashScratch[:0]
	for i := 0; i < m.fetchQ.len(); i++ {
		u := m.fetchQ.at(i)
		h.squashed[u.slot] = true
		m.squashScratch = append(m.squashScratch, u)
	}
	m.fetchQ.clear()
	m.fetchPending.clear()

	// Squash window uops young -> old.
	cut := m.window.len()
	for i := m.window.len() - 1; i >= 0; i-- {
		u := m.window.at(i)
		if u.seq < v.seq {
			break
		}
		cut = i
		h.squashed[u.slot] = true
		m.squashScratch = append(m.squashScratch, u)
		if m.sched != SchedScan && h.issue[u.slot] < 0 {
			// Unissued: leave no event-scheduler references behind. Uops
			// waiting on a producer are scrubbed from its wakeup list;
			// ready-queue entries are purged wholesale below.
			m.iqCount--
			m.unregisterWaiter(u)
		}
		if u.writesReg {
			if m.lastWriter[u.dstReg] == u {
				m.lastWriter[u.dstReg] = u.prevWriter
			}
			m.freeRegs++
		}
		if u.isLoad {
			m.lqUsed--
			removeInflight(&m.inflightLoads, u)
		}
		if u.isStore {
			m.sqUsed--
			removeInflight(&m.inflightStores, u)
			m.ss.CompleteStore(m.storePC(u), u.seq)
		}
	}
	m.window.truncBack(cut)

	// Purge squashed uops from the IQ and violation list.
	if m.sched == SchedScan {
		kept := m.iq[:0]
		for _, u := range m.iq {
			if !h.squashed[u.slot] {
				kept = append(kept, u)
			}
		}
		m.iq = kept
	} else {
		m.purgeReadyQ()
	}
	keptV := m.pendingViol[:0]
	for _, pv := range m.pendingViol {
		if !h.squashed[pv.load.slot] && !h.squashed[pv.store.slot] {
			keptV = append(keptV, pv)
		}
	}
	m.pendingViol = keptV
	if m.pendingBranch != nil && h.squashed[m.pendingBranch.slot] {
		m.pendingBranch = nil
	}
	m.bbOpen = false

	// Redirect fetch: refetch from the load's first trace record.
	m.fetchIdx = v.traceIdx
	if m.fetchStall < m.cycle+1 {
		m.fetchStall = m.cycle + 1
	}

	if m.emitUops {
		for _, u := range m.squashScratch {
			m.observeUop(u, m.cycle, true)
		}
	}

	// Squashed uops are dead immediately: they were the youngest suffix, so
	// no surviving uop can hold a pointer to one (srcProd, waitStore and
	// forwardedFrom all point at strictly older uops), and every structure
	// that indexed them (IQ, violations, rename table, pendingBranch) was
	// purged above.
	if m.recycle {
		m.freeUops = append(m.freeUops, m.squashScratch...)
		m.squashScratch = m.squashScratch[:0]
	}
}

// --- rename ---

func (m *machine) rename() {
	for n := 0; n < m.cfg.FetchWidth && m.fetchQ.len() > 0; n++ {
		u := m.fetchQ.at(0)
		if u.renameReady > m.cycle {
			return
		}
		// Structural resources (the check order is shared with the event
		// scheduler's bulk stall accounting; see renameStallCounter).
		if ctr := m.renameStallCounter(u); ctr != nil {
			*ctr++
			return
		}
		m.fetchQ.popFront()
		u.renameCycle = m.cycle
		h := &m.hot
		s := u.slot
		// First cycle issue sees a renamed uop (replay back-off raises it).
		h.earliest[s] = m.cycle + 1

		// Dataflow linking.
		for i := 0; i < u.nSrc; i++ {
			if p := m.lastWriter[u.srcReg[i]]; p != nil {
				h.srcs[s][i] = p.slot
			}
		}
		if u.writesReg {
			u.prevWriter = m.lastWriter[u.dstReg]
			m.lastWriter[u.dstReg] = u
			m.freeRegs--
		}
		if u.isLoad {
			m.lqUsed++
			m.inflightLoads.pushBack(u)
			if tag := m.ss.RenameLoad(m.loadPC(u)); tag >= 0 {
				if st := m.findInflightStore(tag); st != nil {
					h.waitSlot[s] = st.slot
				}
			}
		}
		if u.isStore {
			m.sqUsed++
			m.inflightStores.pushBack(u)
			if prev := m.ss.RenameStore(m.storePC(u), u.seq); prev >= 0 {
				if st := m.findInflightStore(prev); st != nil {
					h.waitSlot[s] = st.slot
				}
			}
		}

		// Basic-block head tracking for slack profiling.
		if m.prof != nil && (!m.bbOpen || m.p.Blocks[m.p.BlockOf[u.static]].Start == u.static) {
			u.isHead = true
			m.bbOpen = true
		}

		m.window.pushBack(u)
		if m.sched == SchedScan {
			m.iq = append(m.iq, u)
		} else {
			m.admitEvent(u)
		}
	}
}

// --- fetch ---

func (m *machine) fetch() {
	if m.pendingBranch != nil || m.cycle < m.fetchStall {
		return
	}
	if m.fetchQ.len() >= m.cfg.FetchWidth*8 {
		return
	}
	var curLine uint32 = math.MaxUint32
	for n := 0; n < m.cfg.FetchWidth; n++ {
		var it fetchItem
		direct := false // it came straight from prepareNext, not the ring
		if m.fetchPending.len() > 0 {
			it = m.fetchPending.at(0)
		} else if m.prepareNext(&it) {
			direct = true
		} else {
			return
		}
		// Instruction cache access, one per line per cycle.
		line := it.addr >> 5
		if line != curLine {
			done := m.hier.AccessI(m.cycle, it.addr)
			if done > m.cycle+int64(m.cfg.Hier.L1I.Latency) {
				// Miss: stall fetch until the line arrives.
				m.fetchStall = done
				if direct {
					m.fetchPending.pushFront(it)
				}
				return
			}
			curLine = line
		}
		if !direct {
			m.fetchPending.popFront()
		}
		u := m.makeUop(it)
		m.fetchQ.pushBack(u)
		if u.mispred {
			m.pendingBranch = u
			return
		}
		if it.endsGroup {
			return
		}
	}
}

// prepareNext converts the next trace record(s) into fetch items, writing
// the first into *it — the common singleton/handle case never round-trips
// through the pending ring (or a return-value copy) — and queueing any
// remainder (outlined mini-graph expansions). Returns false when the trace
// is exhausted. Only called with an empty pending ring.
func (m *machine) prepareNext(it *fetchItem) bool {
	if m.fetchIdx >= len(m.tr) {
		return false
	}
	rec := m.tr[m.fetchIdx]
	static := int(rec.Index)

	if m.mgc.Enabled() {
		if inst := m.mgc.Selection.InstanceAt(static); inst != nil && m.fetchIdx+inst.N <= len(m.tr) {
			if m.mon != nil && m.mon.isDisabled(inst.Template) {
				if m.mgc.IdealOutlining {
					m.prepareInlineSingletons(inst)
				} else {
					m.prepareOutlined(inst)
				}
				*it = m.fetchPending.popFront()
				return true
			}
			last := m.tr[m.fetchIdx+inst.N-1]
			*it = fetchItem{
				kind:      kindHandle,
				static:    static,
				traceIdx:  m.fetchIdx,
				nRecs:     inst.N,
				addr:      m.layout.InlineAddr(static),
				mg:        inst,
				endsGroup: inst.Cand.CtrlIdx >= 0 && last.Taken,
			}
			m.fetchIdx += inst.N
			return true
		}
	}

	*it = fetchItem{
		kind:      kindSingleton,
		static:    static,
		traceIdx:  m.fetchIdx,
		nRecs:     1,
		addr:      m.layout.InlineAddr(static),
		endsGroup: rec.Taken,
	}
	m.fetchIdx++
	return true
}

// prepareOutlined queues the outlined (disabled) execution of a mini-graph:
// jump to the outline region, the constituents as singletons, and a jump
// back (unless the final constituent is a taken branch).
func (m *machine) prepareOutlined(inst *minigraph.Instance) {
	start := inst.Start
	m.fetchPending.pushBack(fetchItem{
		kind:      kindOverheadJump,
		static:    start,
		traceIdx:  m.fetchIdx,
		nRecs:     0,
		addr:      m.layout.InlineAddr(start),
		mg:        inst,
		endsGroup: true, // the outlining jump is always taken
	})
	lastTaken := false
	for k := 0; k < inst.N; k++ {
		rec := m.tr[m.fetchIdx+k]
		ends := rec.Taken
		if k == inst.N-1 {
			lastTaken = rec.Taken
		}
		m.fetchPending.pushBack(fetchItem{
			kind:      kindSingleton,
			static:    inst.Start + k,
			traceIdx:  m.fetchIdx + k,
			nRecs:     1,
			addr:      m.layout.OutlineAddr(inst.Start + k),
			endsGroup: ends,
		})
	}
	if !lastTaken {
		m.fetchPending.pushBack(fetchItem{
			kind:      kindOverheadJump,
			static:    start,
			traceIdx:  m.fetchIdx + inst.N - 1,
			nRecs:     0,
			addr:      m.layout.JumpBackAddr(start),
			mg:        inst,
			endsGroup: true,
		})
	}
	m.fetchIdx += inst.N
}

// prepareInlineSingletons queues ideal (penalty-free) disabled execution:
// the constituents as inline singletons.
func (m *machine) prepareInlineSingletons(inst *minigraph.Instance) {
	for k := 0; k < inst.N; k++ {
		rec := m.tr[m.fetchIdx+k]
		m.fetchPending.pushBack(fetchItem{
			kind:      kindSingleton,
			static:    inst.Start + k,
			traceIdx:  m.fetchIdx + k,
			nRecs:     1,
			addr:      m.layout.InlineAddr(inst.Start), // share the handle slot
			endsGroup: rec.Taken,
		})
	}
	m.fetchIdx += inst.N
}

// uopSlabSize is how many uops one arena allocation holds.
const uopSlabSize = 256

// newUop returns a fully zeroed uop, from the free list when recycling has
// returned one, else carving a fresh arena slab (which also extends the
// hotState arrays with the new slots). Total live uops are bounded by the
// window, fetch queue and retired queue, so steady state allocates nothing.
func (m *machine) newUop() *uop {
	if n := len(m.freeUops); n > 0 {
		u := m.freeUops[n-1]
		m.freeUops = m.freeUops[:n-1]
		slot := u.slot
		*u = uop{slot: slot} // full reset: recycled uops carry no history
		return u
	}
	base := len(m.hot.uops)
	m.hot.grow(uopSlabSize)
	slab := make([]uop, uopSlabSize)
	for i := range slab {
		slab[i].slot = int32(base + i)
		m.hot.uops[base+i] = &slab[i]
	}
	for i := 1; i < len(slab); i++ {
		m.freeUops = append(m.freeUops, &slab[i])
	}
	return &slab[0]
}

// makeUop builds the uop for a fetch item, running branch prediction, and
// re-initializes the uop's hotState slot.
func (m *machine) makeUop(it fetchItem) *uop {
	u := m.newUop()
	u.seq = m.seq
	u.traceIdx = it.traceIdx
	u.nRecs = it.nRecs
	u.static = it.static
	u.kind = it.kind
	u.mg = it.mg
	u.fetchCycle = m.cycle
	u.renameReady = m.cycle + int64(m.cfg.FetchToRename)
	u.renameCycle = -1
	u.fwdConsExec = never
	m.seq++

	// Re-arm only the hot fields a reused slot could expose stale: issue
	// gates every read of execDone/readyOut/resolve (all written at execute),
	// earliest is written at rename before any read, waitCnt is assigned by
	// admitEvent, specReady reads are gated on singleton-load producers, and
	// wakeHead/link are -1 by invariant whenever a slot is free (broadcast
	// drains wake chains; the wheel and purge reset links).
	h := &m.hot
	s := u.slot
	h.seq[s] = u.seq
	h.issue[s] = -1
	h.waitSlot[s] = -1
	h.srcs[s] = [3]int32{-1, -1, -1}
	h.squashed[s] = false
	h.committed[s] = false

	switch it.kind {
	case kindOverheadJump:
		u.class = isa.ClassJump
		u.op = isa.OpBr
		m.predictOverheadJump(u, it)
		h.meta[s] = packMeta(u)
		return u
	case kindHandle:
		c := it.mg.Cand
		u.class = isa.ClassSimple
		u.op = m.p.Code[it.static].Op
		for i, r := range c.ExternalIns {
			u.srcReg[i] = r
		}
		u.nSrc = len(c.ExternalIns)
		if c.OutputReg != isa.NoReg {
			u.writesReg = true
			u.dstReg = c.OutputReg
		}
		if c.MemIdx >= 0 {
			in := m.p.Code[it.static+c.MemIdx]
			u.isLoad = in.IsLoad()
			u.isStore = in.IsStore()
			u.memAddr = m.tr[it.traceIdx+c.MemIdx].Addr
		}
		if c.CtrlIdx >= 0 {
			u.hasBranch = true
			m.predictBranch(u, it.static+c.CtrlIdx, it.traceIdx+c.CtrlIdx)
		}
		h.meta[s] = packMeta(u)
		return u
	}

	in := m.p.Code[it.static]
	rec := m.tr[it.traceIdx]
	u.op = in.Op
	u.class = isa.ClassOf(in.Op)
	u.nSrc = len(in.AppendSources(u.srcReg[:0]))
	if in.WritesReg() {
		u.writesReg = true
		u.dstReg = in.Rd
	}
	if in.IsMem() {
		u.isLoad = in.IsLoad()
		u.isStore = in.IsStore()
		u.memAddr = rec.Addr
	}
	if in.IsBranch() {
		u.hasBranch = true
		m.predictBranch(u, it.static, it.traceIdx)
	}
	h.meta[s] = packMeta(u)
	if m.prof != nil {
		// A refetch after a flush overwrites the squashed instance's record.
		r := profRec{regSlack: slack.BigSlack, gslack: slack.BigSlack, writesReg: u.writesReg}
		if u.mispred {
			r.gslack = 0 // delaying a mispredicted branch delays everything
		}
		m.profRecs[it.traceIdx] = r
	}
	return u
}

// predictBranch runs the front-end predictors for the control transfer at
// trace record ti (static index static) at fetch time and marks the uop
// mispredicted when the machine would have fetched down the wrong path.
func (m *machine) predictBranch(u *uop, static, ti int) {
	in := m.p.Code[static]
	pc := prog.PCOf(static)
	actualTaken := m.tr[ti].Taken
	u.actualTkn = actualTaken
	actualNext := -1 // past the halt record
	if ti+1 < len(m.tr) {
		actualNext = int(m.tr[ti+1].Index)
	}

	switch {
	case in.IsCondBranch():
		pred := m.bp.PredictDirection(pc)
		m.bp.UpdateDirection(pc, actualTaken)
		if pred != actualTaken {
			u.mispred = true
			return
		}
		if actualTaken {
			m.predictTakenTarget(u, pc, actualNext, false)
		}
	case in.Op == isa.OpBr:
		m.predictTakenTarget(u, pc, actualNext, true)
	case in.Op == isa.OpJsr:
		m.bp.PushRAS(prog.PCOf(static + 1))
		m.predictTakenTarget(u, pc, actualNext, true)
	case in.Op == isa.OpJsrI:
		m.bp.PushRAS(prog.PCOf(static + 1))
		m.predictTakenTarget(u, pc, actualNext, false)
	case in.IsReturn():
		top, ok := m.bp.PopRAS()
		if !ok || (actualNext >= 0 && top != prog.PCOf(actualNext)) {
			u.mispred = true
			m.bp.NoteRASWrong()
			m.stats.RASMispredicts++
		}
	default: // indirect jmp
		m.predictTakenTarget(u, pc, actualNext, false)
	}
}

// predictTakenTarget models BTB behavior for a taken transfer. Direct
// transfers recover a BTB miss at decode (a 2-cycle fetch bubble); indirect
// transfers mispredict on a BTB miss or wrong target.
func (m *machine) predictTakenTarget(u *uop, pc uint32, actualNext int, direct bool) {
	if actualNext < 0 {
		return
	}
	want := prog.PCOf(actualNext)
	got, ok := m.bp.PredictTarget(pc)
	m.bp.UpdateTarget(pc, want)
	if ok && got == want {
		return
	}
	if direct {
		// Decode-time target computation: small fetch bubble.
		if m.fetchStall < m.cycle+2 {
			m.fetchStall = m.cycle + 2
		}
		return
	}
	u.mispred = true
}

// predictOverheadJump models the outlining jumps: direct, always taken.
func (m *machine) predictOverheadJump(u *uop, it fetchItem) {
	pc := it.addr
	if got, ok := m.bp.PredictTarget(pc); !ok || got == 0 {
		if m.fetchStall < m.cycle+2 {
			m.fetchStall = m.cycle + 2
		}
	}
	m.bp.UpdateTarget(pc, pc+4)
}

// --- slack profiling ---

// maxTrackedConsumers caps the consumer edges per value that feed the
// global-slack pass (capping can only overestimate global slack).
const maxTrackedConsumers = 16

// profRec is the part of one committed uop's profile that is not final at
// its commit. Profiling runs are singleton runs, so uops commit in trace
// order and a uop's record index is its trace index: consumers reach their
// producer's record through the producer's traceIdx, before or after the
// producer commits. All slacks are capped at slack.BigSlack, which fits a
// byte: global slack never exceeds its BigSlack start, so capping an edge
// delay there changes no minimum.
type profRec struct {
	prod      [3]int32 // producer record of each recorded consumer edge
	delay     [3]uint8 // edge delay: issue − producer readyOut, in [0, BigSlack]
	nEdges    uint8
	regSlack  uint8 // local register slack: min edge delay over every executed consumer
	gslack    uint8 // global register slack (final after drainProfile's reverse pass)
	writesReg bool
}

// noteConsumer records, as u executes, one source edge to producer pu: it
// lowers the producer's local register slack and, for the first
// maxTrackedConsumers consumer sources pu sees (squashed ones included),
// adds the edge to u's record for the global-slack pass. A squashed u
// never commits; its refetch resets the record, dropping the edge.
func (m *machine) noteConsumer(u, pu *uop) {
	d := m.cycle - m.hot.readyOut[pu.slot]
	d = max(0, min(d, slack.BigSlack))
	pr := &m.profRecs[pu.traceIdx]
	pr.regSlack = min(pr.regSlack, uint8(d))
	if pu.nCons >= maxTrackedConsumers {
		return
	}
	pu.nCons++
	r := &m.profRecs[u.traceIdx]
	r.prod[r.nEdges] = int32(pu.traceIdx)
	r.delay[r.nEdges] = uint8(d)
	r.nEdges++
}

// drainProfile finishes the register slacks. Global slack of a value is
// the delay it tolerates without lengthening the whole execution,
// propagated through the dataflow graph: gs[p] = min over its edges of
// delay + gs[consumer]. Consumers are younger and commit later, so one
// reverse sweep over the records finalizes each consumer's global slack
// before pushing it to its producers.
func (m *machine) drainProfile() {
	if m.prof == nil {
		return
	}
	recs := m.profRecs
	for i := len(recs) - 1; i >= 0; i-- {
		r := &recs[i]
		for k := uint8(0); k < r.nEdges; k++ {
			p := &recs[r.prod[k]]
			p.gslack = min(p.gslack, r.delay[k]+r.gslack)
		}
		if r.writesReg {
			m.prof.AddRegSlack(int(m.tr[i].Index), float64(r.regSlack), float64(r.gslack))
		}
	}
}

// foldProfile converts a committed uop's timing into a slack Observation.
// Everything but the register slacks is final at commit (stores forward
// only while in flight); drainProfile adds those.
func (m *machine) foldProfile(u *uop) {
	h := &m.hot
	s := u.slot
	if u.isHead {
		m.headIssue = h.issue[s]
	}
	base := float64(m.headIssue)
	in := m.p.Code[u.static]

	obs := slack.Observation{
		Issue:          float64(h.issue[s]) - base,
		Ready:          float64(h.readyOut[s]) - base,
		ExecLat:        float64(h.execDone[s] - h.issue[s] - int64(m.cfg.IssueToExec)),
		Src1Ready:      slack.NaN(),
		Src2Ready:      slack.NaN(),
		RegSlack:       slack.NaN(),
		StoreSlack:     slack.NaN(),
		BranchSlack:    slack.NaN(),
		GlobalRegSlack: slack.NaN(),
	}
	// Map the uop's dynamic sources back to the instruction's operand slots.
	slot := 0
	if in.Rs1 != isa.NoReg && in.Rs1 != isa.ZeroReg && in.Rs1.Valid() {
		obs.Src1Ready = float64(u.srcReadyC[slot]) - base
		slot++
	}
	if in.Rs2 != isa.NoReg && in.Rs2 != isa.ZeroReg && in.Rs2.Valid() {
		obs.Src2Ready = float64(u.srcReadyC[slot]) - base
	}
	if u.isStore {
		if u.fwdConsExec == never {
			obs.StoreSlack = slack.BigSlack
		} else {
			sl := float64(u.fwdConsExec - h.resolve[s])
			if sl < 0 {
				sl = 0
			}
			obs.StoreSlack = math.Min(sl, slack.BigSlack)
		}
	}
	if u.hasBranch {
		if u.mispred {
			obs.BranchSlack = 0
		} else {
			obs.BranchSlack = slack.BigSlack
		}
	}
	m.prof.Add(u.static, obs)
}

// --- observability hooks (see internal/obs) ---

var uopKindNames = [...]string{
	kindSingleton:    "singleton",
	kindHandle:       "handle",
	kindOverheadJump: "ovh-jump",
}

// observeUop builds the pipetrace record for u at commit (cycle = commit
// cycle) or squash (squashed = true, no commit cycle) and feeds every
// active uop sink: the pipetrace writer and/or the flight-recorder ring.
// Only called when emitUops is set. Neither sink retains the record's
// Srcs slice, which aliases the machine's scratch array.
func (m *machine) observeUop(u *uop, cycle int64, squashed bool) {
	h := &m.hot
	s := u.slot
	r := obs.UopTrace{
		Seq:      u.seq,
		Static:   u.static,
		Kind:     uopKindNames[u.kind],
		Op:       u.op.String(),
		N:        u.nRecs,
		Fetch:    u.fetchCycle,
		Rename:   u.renameCycle,
		Issue:    h.issue[s],
		Done:     h.execDone[s],
		Ready:    h.readyOut[s],
		Commit:   cycle,
		Replays:  int(u.replays),
		Mispred:  u.mispred,
		Squashed: squashed,

		Dst:    -1,
		Tmpl:   -1,
		SerLat: u.serLat,
		SerOut: u.serOut,
		MemLat: u.memLat,
		SerExt: u.serExt,
	}
	if u.writesReg {
		r.Dst = int(u.dstReg)
	}
	if u.nSrc > 0 {
		r.Srcs = m.obsSrcs[:u.nSrc]
		for i := 0; i < u.nSrc; i++ {
			r.Srcs[i] = int(u.srcReg[i])
		}
	}
	if u.kind == kindHandle {
		r.Tmpl = u.mg.Template
	}
	switch {
	case u.isLoad:
		r.Mem = obs.MemLoad
	case u.isStore:
		r.Mem = obs.MemStore
	}
	if r.Mem != obs.MemNone && h.issue[s] >= 0 {
		r.Addr = u.memAddr
	}
	// Singleton loads: cycles beyond the L1-hit wakeup the consumers saw
	// (specReady is capped at readyOut, so this is never negative).
	if u.kind != kindHandle && u.isLoad && h.issue[s] >= 0 {
		r.MemLat = h.readyOut[s] - h.specReady[s]
	}
	if squashed {
		r.Commit = -1
	}
	if h.issue[s] < 0 {
		r.Done, r.Ready = -1, -1
	}
	if m.watch != nil && m.watch.Trace != nil {
		m.watch.Trace.Uop(r)
	}
	if m.flight != nil {
		m.flight.RecordUop(m.flightRun, &r)
	}
}

// sampleInterval records a time-series sample when the current cycle is a
// sampling point. Called once per cycle when an observer is attached.
func (m *machine) sampleInterval() {
	iv := m.watch.Intervals
	if iv == nil || !iv.Due(m.cycle) {
		return
	}
	iv.Sample(m.snapshot())
}

// snapshot captures the cumulative counters and instantaneous occupancies
// the interval sampler differentiates.
func (m *machine) snapshot() obs.CycleSnapshot {
	disabled := 0
	if m.mon != nil {
		disabled = m.mon.disabledCount()
	}
	return obs.CycleSnapshot{
		Cycle:          m.cycle,
		Instrs:         m.stats.Instrs,
		Uops:           m.stats.Uops,
		EmbeddedInstrs: m.stats.EmbeddedInstrs,

		StallIQ:   m.stats.StallIQ,
		StallROB:  m.stats.StallROB,
		StallRegs: m.stats.StallRegs,
		StallLQ:   m.stats.StallLQ,
		StallSQ:   m.stats.StallSQ,

		Replays:    m.stats.Replays,
		Serialized: m.stats.MGSerializedEvents,
		Harmful:    m.stats.MGHarmfulEvents,
		Disables:   m.stats.MGDisables,
		Reenables:  m.stats.MGReenables,

		IQOcc:             m.iqLen(),
		ROBOcc:            m.window.len(),
		LQOcc:             m.lqUsed,
		SQOcc:             m.sqUsed,
		FreeRegs:          m.freeRegs,
		DisabledTemplates: disabled,
	}
}

// RunDebugViolations is a diagnostic entry point: it runs like Run (no
// mini-graphs, no profiling) and invokes cb for every memory-ordering
// violation's (load PC, store PC) pair.
func RunDebugViolations(p *prog.Program, tr []emu.Rec, cfg Config, cb func(loadPC, storePC uint32)) (*Stats, error) {
	debugViolationHook = cb
	defer func() { debugViolationHook = nil }()
	return Run(p, tr, cfg, MGConfig{}, nil)
}

var debugViolationHook func(loadPC, storePC uint32)
