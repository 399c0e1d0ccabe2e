// Package bpred implements the branch prediction hardware from Table 1 of
// the paper: a 24Kb hybrid bimodal/gshare direction predictor, a 2K-entry
// 4-way set-associative BTB, and a 32-entry return address stack.
package bpred

// Two-bit saturating counter helpers. Counters predict taken when >= 2.

func inc2(c uint8) uint8 {
	if c < 3 {
		return c + 1
	}
	return 3
}

func dec2(c uint8) uint8 {
	if c > 0 {
		return c - 1
	}
	return 0
}

// Config sizes the predictor. The zero value is not useful; use
// DefaultConfig (the paper's 24Kb hybrid).
type Config struct {
	BimodalBits int // log2 entries in the bimodal table
	GshareBits  int // log2 entries in the gshare table (also history length)
	ChooserBits int // log2 entries in the chooser table
	BTBEntries  int // total BTB entries
	BTBAssoc    int // BTB associativity
	RASEntries  int // return address stack depth
}

// DefaultConfig is the paper's predictor: 24Kb of direction state
// (3 × 4K 2-bit counters = 24Kbit), 2K-entry 4-way BTB, 32-entry RAS.
func DefaultConfig() Config {
	return Config{
		BimodalBits: 12,
		GshareBits:  12,
		ChooserBits: 12,
		BTBEntries:  2048,
		BTBAssoc:    4,
		RASEntries:  32,
	}
}

// Predictor is the combined direction predictor, BTB and RAS.
type Predictor struct {
	cfg     Config
	bimodal []uint8
	gshare  []uint8
	chooser []uint8 // >=2 selects gshare
	history uint32  // global branch history register

	btb *btb
	ras *ras

	// Stats.
	DirLookups int64
	DirMisses  int64
	BTBLookups int64
	BTBMisses  int64
	RASPops    int64
	RASWrong   int64
}

// New builds a predictor.
func New(cfg Config) *Predictor {
	p := &Predictor{
		cfg:     cfg,
		bimodal: make([]uint8, 1<<cfg.BimodalBits),
		gshare:  make([]uint8, 1<<cfg.GshareBits),
		chooser: make([]uint8, 1<<cfg.ChooserBits),
		btb:     newBTB(cfg.BTBEntries, cfg.BTBAssoc),
		ras:     newRAS(cfg.RASEntries),
	}
	// Weakly-taken initial state predicts loops well from cold start.
	for i := range p.bimodal {
		p.bimodal[i] = 2
	}
	for i := range p.gshare {
		p.gshare[i] = 2
	}
	for i := range p.chooser {
		p.chooser[i] = 1 // weakly prefer bimodal
	}
	return p
}

// Reset restores the predictor to its post-New state (weakly-taken tables,
// empty history/BTB/RAS, zero counters) without reallocating, so pooled
// simulation machines can reuse it across runs.
func (p *Predictor) Reset() {
	for i := range p.bimodal {
		p.bimodal[i] = 2
	}
	for i := range p.gshare {
		p.gshare[i] = 2
	}
	for i := range p.chooser {
		p.chooser[i] = 1
	}
	p.history = 0
	for i := range p.btb.entries {
		p.btb.entries[i] = btbEntry{}
	}
	p.btb.tick = 0
	p.ras.top = 0
	p.DirLookups, p.DirMisses = 0, 0
	p.BTBLookups, p.BTBMisses = 0, 0
	p.RASPops, p.RASWrong = 0, 0
}

func (p *Predictor) bimodalIdx(pc uint32) uint32 {
	return (pc >> 2) & (1<<p.cfg.BimodalBits - 1)
}

func (p *Predictor) gshareIdx(pc uint32) uint32 {
	return ((pc >> 2) ^ p.history) & (1<<p.cfg.GshareBits - 1)
}

func (p *Predictor) chooserIdx(pc uint32) uint32 {
	return (pc >> 2) & (1<<p.cfg.ChooserBits - 1)
}

// PredictDirection predicts a conditional branch at pc. The caller must
// later call UpdateDirection with the same pc and the actual outcome.
func (p *Predictor) PredictDirection(pc uint32) bool {
	p.DirLookups++
	bi := p.bimodal[p.bimodalIdx(pc)] >= 2
	gs := p.gshare[p.gshareIdx(pc)] >= 2
	if p.chooser[p.chooserIdx(pc)] >= 2 {
		return gs
	}
	return bi
}

// UpdateDirection trains the predictor with the branch's actual outcome and
// shifts the global history. It returns whether the pre-update prediction
// was correct (convenience for stats).
func (p *Predictor) UpdateDirection(pc uint32, taken bool) bool {
	bIdx, gIdx, cIdx := p.bimodalIdx(pc), p.gshareIdx(pc), p.chooserIdx(pc)
	bi := p.bimodal[bIdx] >= 2
	gs := p.gshare[gIdx] >= 2
	var pred bool
	if p.chooser[cIdx] >= 2 {
		pred = gs
	} else {
		pred = bi
	}

	// Train chooser toward whichever component was right (when they differ).
	if bi != gs {
		if gs == taken {
			p.chooser[cIdx] = inc2(p.chooser[cIdx])
		} else {
			p.chooser[cIdx] = dec2(p.chooser[cIdx])
		}
	}
	if taken {
		p.bimodal[bIdx] = inc2(p.bimodal[bIdx])
		p.gshare[gIdx] = inc2(p.gshare[gIdx])
	} else {
		p.bimodal[bIdx] = dec2(p.bimodal[bIdx])
		p.gshare[gIdx] = dec2(p.gshare[gIdx])
	}
	p.history = p.history<<1 | b2u(taken)

	if pred != taken {
		p.DirMisses++
	}
	return pred == taken
}

// PredictTarget looks up the BTB for the target of a taken control transfer
// at pc. ok is false on a BTB miss.
func (p *Predictor) PredictTarget(pc uint32) (target uint32, ok bool) {
	p.BTBLookups++
	t, ok := p.btb.lookup(pc)
	if !ok {
		p.BTBMisses++
	}
	return t, ok
}

// UpdateTarget installs or refreshes the BTB entry for pc.
func (p *Predictor) UpdateTarget(pc, target uint32) { p.btb.insert(pc, target) }

// PushRAS records a call's return address.
func (p *Predictor) PushRAS(ret uint32) { p.ras.push(ret) }

// PopRAS predicts a return target. ok is false when the stack is empty.
func (p *Predictor) PopRAS() (uint32, bool) {
	p.RASPops++
	return p.ras.pop()
}

// NoteRASWrong counts a return misprediction (for stats).
func (p *Predictor) NoteRASWrong() { p.RASWrong++ }

// MispredictRate returns the fraction of direction lookups mispredicted.
func (p *Predictor) MispredictRate() float64 {
	if p.DirLookups == 0 {
		return 0
	}
	return float64(p.DirMisses) / float64(p.DirLookups)
}

func b2u(b bool) uint32 {
	if b {
		return 1
	}
	return 0
}

// --- BTB ---

type btbEntry struct {
	valid  bool
	tag    uint32
	target uint32
	lru    uint64
}

// btb entries are stored flat and set-major; set indexing is mask/shift
// when the set count is a power of two (every practical configuration),
// avoiding two integer divisions per lookup on the fetch hot path.
type btb struct {
	entries  []btbEntry
	nsets    uint32
	assoc    int
	setMask  uint32 // nsets-1, used when setShift >= 0
	setShift int    // log2(nsets), or -1 when nsets is not a power of two
	tick     uint64
}

func newBTB(entries, assoc int) *btb {
	if assoc < 1 {
		assoc = 1
	}
	nsets := entries / assoc
	if nsets < 1 {
		nsets = 1
	}
	b := &btb{
		entries:  make([]btbEntry, nsets*assoc),
		nsets:    uint32(nsets),
		assoc:    assoc,
		setShift: -1,
	}
	if nsets&(nsets-1) == 0 {
		b.setMask = uint32(nsets - 1)
		sh := 0
		for 1<<sh != nsets {
			sh++
		}
		b.setShift = sh
	}
	return b
}

func (b *btb) index(pc uint32) (set uint32, tag uint32) {
	idx := pc >> 2
	if b.setShift >= 0 {
		return idx & b.setMask, idx >> uint(b.setShift)
	}
	return idx % b.nsets, idx / b.nsets
}

// set returns the ways of one set.
func (b *btb) set(set uint32) []btbEntry {
	i := int(set) * b.assoc
	return b.entries[i : i+b.assoc]
}

func (b *btb) lookup(pc uint32) (uint32, bool) {
	set, tag := b.index(pc)
	b.tick++
	s := b.set(set)
	for i := range s {
		e := &s[i]
		if e.valid && e.tag == tag {
			e.lru = b.tick
			return e.target, true
		}
	}
	return 0, false
}

func (b *btb) insert(pc, target uint32) {
	set, tag := b.index(pc)
	b.tick++
	s := b.set(set)
	victim := 0
	for i := range s {
		e := &s[i]
		if e.valid && e.tag == tag {
			e.target = target
			e.lru = b.tick
			return
		}
		if !e.valid {
			victim = i
			break
		}
		if e.lru < s[victim].lru {
			victim = i
		}
	}
	s[victim] = btbEntry{valid: true, tag: tag, target: target, lru: b.tick}
}

// --- RAS ---

type ras struct {
	stack []uint32
	top   int // number of live entries
}

func newRAS(depth int) *ras {
	if depth < 1 {
		depth = 1
	}
	return &ras{stack: make([]uint32, depth)}
}

func (r *ras) push(v uint32) {
	if r.top == len(r.stack) {
		// Overflow: shift down, losing the oldest entry.
		copy(r.stack, r.stack[1:])
		r.top--
	}
	r.stack[r.top] = v
	r.top++
}

func (r *ras) pop() (uint32, bool) {
	if r.top == 0 {
		return 0, false
	}
	r.top--
	return r.stack[r.top], true
}
