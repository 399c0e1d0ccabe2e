package pipeline

import (
	"runtime"
	"sync"

	"repro/internal/bpred"
	"repro/internal/cache"
	"repro/internal/isa"
	"repro/internal/storesets"
)

// Machine pooling. A machine's backing state — caches, predictor tables,
// rings, slot arrays, uop slabs, profile records — depends only on its
// Config, and a full simulation run leaves all of it allocated at
// steady-state size. Pooling finished machines per Config and resetting
// them in place makes repeated runs (sweeps, benchmarks) allocation-free
// after the first: RunSched draws from the pool, simulates, copies the
// stats out and returns the machine.
//
// Each Config keeps a bounded free list, not a sync.Pool: a sync.Pool is
// emptied by garbage collections, and each emptying turns into rebuilt
// cache models and re-allocated profile records. On the reproduction
// benchmark's cross-train workload that was 12 of its 55 MB allocated and
// 8 of its 124 MB peak RSS (DESIGN.md §4). The free list holds at most
// GOMAXPROCS machines per Config — as many as can run at once — and keeps
// them until ReleaseMachines.
//
// Correctness does not ride on which pooled machine a run gets: no
// simulated outcome depends on slot numbering or pointer identity (the
// ready heap orders by (wake, seq), issue candidates sort by seq), and
// reset restores every field makeUop does not, so a reused machine is
// indistinguishable from a fresh one. TestMachineReuseDeterministic holds
// this invariant.
var machinePools sync.Map // Config -> *machinePool

type machinePool struct {
	mu   sync.Mutex
	free []*machine
}

// ReleaseMachines empties every Config's free list, so later runs build
// fresh machines. core.ResetCaches calls it: a pooled machine pins its
// cache models, profile records and last layout, and a reset leaves the
// process as a fresh one would be, so repeated measurements each start
// from the same state.
func ReleaseMachines() {
	machinePools.Range(func(cfg, _ any) bool {
		machinePools.Delete(cfg)
		return true
	})
}

// poolableSlots bounds the slot-array size a machine may retain in the
// pool. Recycling keeps every run, profiling included, well under the
// initial capacity; a run that outgrew it (e.g. with recycling disabled by
// a test) would pin megabytes for the rest of the process, so it is
// simulated and dropped.
const poolableSlots = 4096

func getMachine(cfg Config) *machine {
	if pi, ok := machinePools.Load(cfg); ok {
		mp := pi.(*machinePool)
		mp.mu.Lock()
		var m *machine
		if n := len(mp.free); n > 0 {
			m = mp.free[n-1]
			mp.free[n-1] = nil
			mp.free = mp.free[:n-1]
		}
		mp.mu.Unlock()
		if m != nil {
			m.reset()
			return m
		}
	}
	return newMachine(cfg)
}

// putMachine returns a successfully-finished machine to its Config's free
// list, or drops it when the list is full. Per-run references (trace,
// observer, profile, current layout) are dropped first so pooling a
// machine never extends their lifetime; the layout cache (layoutP and
// friends) is kept on purpose.
func putMachine(m *machine) {
	if len(m.hot.uops) > poolableSlots {
		return
	}
	m.p = nil
	m.tr = nil
	m.watch = nil
	m.flight = nil
	m.flightRun = ""
	m.emitUops = false
	m.prof = nil
	m.mon = nil
	m.layout = nil
	m.mgc = MGConfig{}
	pi, _ := machinePools.LoadOrStore(m.cfg, &machinePool{})
	mp := pi.(*machinePool)
	mp.mu.Lock()
	if len(mp.free) < runtime.GOMAXPROCS(0) {
		mp.free = append(mp.free, m)
	}
	mp.mu.Unlock()
}

// newMachine builds a machine with every queue sized from the config up
// front: the structural-hazard checks in rename and fetch bound their
// occupancy, so the hot loop never grows them. Both schedulers' structures
// are allocated so a pooled machine can serve either.
func newMachine(cfg Config) *machine {
	m := &machine{
		cfg:      cfg,
		hier:     cache.NewHierarchy(cfg.Hier),
		bp:       bpred.New(cfg.Bpred),
		ss:       storesets.New(cfg.StoreSetEntries),
		freeRegs: cfg.PhysRegs - isa.NumRegs,

		fetchPending:   newRing[fetchItem](8),
		fetchQ:         newRing[*uop](cfg.FetchWidth * 9),
		window:         newRing[*uop](cfg.ROBEntries),
		inflightLoads:  newRing[*uop](cfg.LQEntries),
		inflightStores: newRing[*uop](cfg.SQEntries),
		pendingViol:    make([]violation, 0, 16),
		retired:        newRing[*uop](cfg.ROBEntries),

		iq:           make([]*uop, 0, cfg.IQEntries),
		readyQ:       make([]readyEnt, 0, cfg.IQEntries),
		readyNext:    make([]int32, 0, cfg.IQEntries),
		issueScratch: make([]int32, 0, cfg.IQEntries),
		// A consumer waits on at most four producers (three sources plus a
		// StoreSets store), and waiters are a subset of the issue queue.
		wakeNodes: make([]wakeNode, 0, 4*cfg.IQEntries),
		wakeFree:  -1,
	}
	// Size the slot arrays for the worst-case live-uop count: the window
	// and retired queue (ROB each), the fetch queue, parked register
	// writers, and slack for transients. Recycling keeps runs inside it.
	m.hot = newHotState(cfg.ROBEntries*2 + cfg.FetchWidth*9 + isa.NumRegs + 64)
	for i := range m.wheelHead {
		m.wheelHead[i] = -1
	}
	return m
}

// reset restores a pooled machine to its post-newMachine state. Everything
// makeUop re-initializes per slot is left stale; everything else the run
// mutated is restored here.
func (m *machine) reset() {
	m.hier.Reset()
	m.bp.Reset()
	m.ss.Reset()

	m.stats = Stats{}
	m.cycle = 0
	m.seq = 0
	m.fetchIdx = 0
	m.fetchStall = 0
	m.pendingBranch = nil
	m.fetchPending.clear()
	m.fetchQ.clear()
	m.window.clear()
	m.iq = m.iq[:0]
	m.inflightLoads.clear()
	m.inflightStores.clear()
	m.pendingViol = m.pendingViol[:0]
	m.freeRegs = m.cfg.PhysRegs - isa.NumRegs
	m.lqUsed, m.sqUsed = 0, 0
	m.lastWriter = [isa.NumRegs]*uop{}
	m.bbOpen = false
	m.headIssue = 0
	m.retired.clear()
	m.squashScratch = m.squashScratch[:0]

	m.readyQ = m.readyQ[:0]
	m.readyNext = m.readyNext[:0]
	m.issueScratch = m.issueScratch[:0]
	m.iqCount = 0
	m.wakeNodes = m.wakeNodes[:0]
	m.wakeFree = -1
	for i := range m.wheelHead {
		m.wheelHead[i] = -1
	}
	m.wheelBits = [wheelSize / 64]uint64{}
	m.wheelCnt = 0

	// Every slot returns to the free list; a finished run holds uops only
	// in the retired queue, rename table and free list, all cleared above.
	m.freeUops = m.freeUops[:0]
	for _, u := range m.hot.uops {
		m.freeUops = append(m.freeUops, u)
	}
}
