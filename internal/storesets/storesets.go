// Package storesets implements the StoreSets memory-dependence predictor
// (Chrysos & Emer, ISCA 1998) at the configuration in the paper's Table 1:
// a 1K-entry predictor. Loads are scheduled aggressively; the predictor
// learns which (load, store) static pairs conflict and forces the load to
// wait for the store on subsequent encounters.
//
// The implementation follows the SSIT/LFST design:
//   - SSIT (Store Set ID Table): maps instruction PCs to store-set IDs.
//   - LFST (Last Fetched Store Table): maps a store-set ID to the most
//     recently renamed in-flight store in that set.
//
// On a memory-ordering violation, the offending load and store are placed
// in a common store set (merging existing sets by the lower ID, per the
// original paper's rule).
package storesets

const invalidSSID = -1

// Predictor is the StoreSets predictor. It is used at rename: stores call
// RenameStore, loads call RenameLoad to learn which in-flight store (if
// any) they must wait for. Violations call Violation to train.
type Predictor struct {
	ssit []int32 // pc hash -> store set id, or invalidSSID
	lfst []int64 // ssid -> tag of last fetched store (caller-defined), -1 if none

	idxMask  uint32 // len(ssit)-1 when the table is a power of two, else 0
	nextSSID int32

	// Stats.
	Violations  int64
	Predictions int64 // loads told to wait
}

// New builds a predictor with the given SSIT entry count (power of two).
func New(entries int) *Predictor {
	if entries <= 0 {
		entries = 1024
	}
	p := &Predictor{
		ssit: make([]int32, entries),
		lfst: make([]int64, entries),
	}
	for i := range p.ssit {
		p.ssit[i] = invalidSSID
	}
	for i := range p.lfst {
		p.lfst[i] = -1
	}
	if entries&(entries-1) == 0 {
		p.idxMask = uint32(entries - 1)
	}
	return p
}

// Reset restores the predictor to its post-New state without reallocating
// the tables, so pooled simulation machines can reuse it across runs.
func (p *Predictor) Reset() {
	for i := range p.ssit {
		p.ssit[i] = invalidSSID
	}
	for i := range p.lfst {
		p.lfst[i] = -1
	}
	p.nextSSID = 0
	p.Violations = 0
	p.Predictions = 0
}

func (p *Predictor) idx(pc uint32) int {
	// Rename-time hot path: mask instead of modulo for the usual
	// power-of-two table (the mask is also correct for a 1-entry table).
	if p.idxMask != 0 || len(p.ssit) == 1 {
		return int((pc >> 2) & p.idxMask)
	}
	return int((pc >> 2) % uint32(len(p.ssit)))
}

// RenameStore is called when a store at pc is renamed; tag identifies the
// dynamic store instance (e.g. its ROB or store-queue slot, caller's
// choice). If the store belongs to a store set, it becomes that set's last
// fetched store, and the previous last-fetched store's tag is returned:
// per the original design, stores within a store set execute in order, so
// the caller should make this store wait for the returned one. Returns -1
// when the store is in no set or the set was empty.
func (p *Predictor) RenameStore(pc uint32, tag int64) (prev int64) {
	ss := p.ssit[p.idx(pc)]
	if ss == invalidSSID {
		return -1
	}
	li := ss % int32(len(p.lfst))
	prev = p.lfst[li]
	p.lfst[li] = tag
	return prev
}

// CompleteStore is called when a store with tag leaves the window; if it is
// still the last fetched store of its set, the set is cleared so later
// loads don't wait on a departed store.
func (p *Predictor) CompleteStore(pc uint32, tag int64) {
	ss := p.ssit[p.idx(pc)]
	if ss == invalidSSID {
		return
	}
	li := ss % int32(len(p.lfst))
	if p.lfst[li] == tag {
		p.lfst[li] = -1
	}
}

// RenameLoad is called when a load at pc is renamed. It returns the tag of
// the in-flight store the load must wait for, or -1 if the load may issue
// speculatively.
func (p *Predictor) RenameLoad(pc uint32) int64 {
	ss := p.ssit[p.idx(pc)]
	if ss == invalidSSID {
		return -1
	}
	tag := p.lfst[ss%int32(len(p.lfst))]
	if tag >= 0 {
		p.Predictions++
	}
	return tag
}

// Violation trains the predictor after a memory-ordering violation between
// a load at loadPC and an older store at storePC.
func (p *Predictor) Violation(loadPC, storePC uint32) {
	p.Violations++
	li, si := p.idx(loadPC), p.idx(storePC)
	ls, ss := p.ssit[li], p.ssit[si]
	switch {
	case ls == invalidSSID && ss == invalidSSID:
		id := p.nextSSID
		p.nextSSID++
		if p.nextSSID < 0 {
			p.nextSSID = 0
		}
		p.ssit[li], p.ssit[si] = id, id
	case ls != invalidSSID && ss == invalidSSID:
		p.ssit[si] = ls
	case ls == invalidSSID && ss != invalidSSID:
		p.ssit[li] = ss
	default:
		// Both assigned: merge into the smaller ID (declining-ID rule).
		if ls < ss {
			p.ssit[si] = ls
		} else {
			p.ssit[li] = ss
		}
	}
}
