// Package minigraph implements mini-graph instruction aggregation: candidate
// enumeration under the RISC-singleton interface constraints, MGT template
// grouping, the coverage-scored greedy selection engine, and the "outlined"
// code layout used to model instruction-cache effects.
//
// A mini-graph (Bracy et al., MICRO 2004; this paper, MICRO 2006) is an
// atomic group of up to four instructions within one basic block with at
// most three external register inputs, one register output, one memory
// operation, and one (final) control transfer. Values produced and fully
// consumed inside the group are "interior": they need no physical register
// and no writeback bandwidth, which is the source of the amplification the
// paper exploits.
package minigraph

import (
	"fmt"

	"repro/internal/isa"
	"repro/internal/prog"
)

// Limits configures candidate enumeration. The paper's configuration
// (Table 1) is the zero-value-adjusted DefaultLimits.
type Limits struct {
	MaxLen    int // maximum constituents per mini-graph (paper: 4)
	MaxInputs int // maximum external register inputs (paper: 3)
}

// DefaultLimits returns the paper's candidate constraints.
func DefaultLimits() Limits { return Limits{MaxLen: 4, MaxInputs: 3} }

// Candidate is one static mini-graph candidate: the contiguous window of
// instructions [Start, Start+N) inside a single basic block, plus the
// derived interface and serialization structure.
type Candidate struct {
	Start int // static index of the first constituent
	N     int // number of constituents (2..MaxLen)
	Block int // basic block index

	// ExternalIns lists the distinct external register inputs in order of
	// first appearance; FirstUse[i] is the earliest constituent index that
	// reads ExternalIns[i].
	ExternalIns []isa.Reg
	FirstUse    []int

	// OutputReg is the mini-graph's register output (live after the last
	// constituent), or isa.NoReg; OutputIdx is the constituent producing
	// its final value (-1 if none).
	OutputReg isa.Reg
	OutputIdx int

	// MemIdx is the constituent index of the (single) memory operation, or
	// -1; CtrlIdx likewise for the control transfer (always N-1 if present).
	MemIdx  int
	CtrlIdx int

	// deps[k] is a bitmask of earlier constituent indices that constituent
	// k reads a value from (internal dataflow edges).
	deps [8]uint8

	// key is TemplateKey, computed once by Enumerate; empty for candidates
	// built elsewhere.
	key string
}

// InternalDeps returns the bitmask of earlier constituents that constituent
// k depends on.
func (c *Candidate) InternalDeps(k int) uint8 { return c.deps[k] }

// End returns the static index one past the last constituent.
func (c *Candidate) End() int { return c.Start + c.N }

// Contains reports whether static index i falls inside the candidate.
func (c *Candidate) Contains(i int) bool { return i >= c.Start && i < c.End() }

// Overlaps reports whether two candidates share any static instruction.
func (c *Candidate) Overlaps(o *Candidate) bool {
	return c.Start < o.End() && o.Start < c.End()
}

// Serializing reports whether the candidate is potentially serializing: it
// has an external register input whose earliest consumer is not the first
// constituent. Struct-None rejects exactly these candidates.
func (c *Candidate) Serializing() bool {
	for _, fu := range c.FirstUse {
		if fu > 0 {
			return true
		}
	}
	return false
}

// SerializingInputs returns the indices (into ExternalIns) of the
// serializing inputs.
func (c *Candidate) SerializingInputs() []int {
	var out []int
	for i, fu := range c.FirstUse {
		if fu > 0 {
			out = append(out, i)
		}
	}
	return out
}

// reachesOutput reports whether constituent k has an internal dataflow path
// to the output-producing constituent (k == OutputIdx counts).
func (c *Candidate) reachesOutput(k int) bool {
	if c.OutputIdx < 0 {
		return false
	}
	// Walk forward: reach[j] true if j is reachable from k.
	var reach uint8 = 1 << uint(k)
	for j := k + 1; j < c.N; j++ {
		if c.deps[j]&reach != 0 {
			reach |= 1 << uint(j)
		}
	}
	return reach&(1<<uint(c.OutputIdx)) != 0
}

// BoundedSerialization reports whether every serializing input's delay on
// the register output is bounded by the mini-graph's own execution latency
// (Section 4.2): the serializing input's first consumer must be "upstream"
// of the output-producing constituent. Candidates with no register output
// are trivially bounded (Struct-Bounded only bounds the register output).
// Non-serializing candidates are bounded by definition.
func (c *Candidate) BoundedSerialization() bool {
	if c.OutputIdx < 0 {
		return true
	}
	for _, si := range c.SerializingInputs() {
		if !c.reachesOutput(c.FirstUse[si]) {
			return false
		}
	}
	return true
}

// String summarizes the candidate.
func (c *Candidate) String() string {
	return fmt.Sprintf("mg@%d+%d in=%v out=%s(%d) mem=%d ctrl=%d ser=%v",
		c.Start, c.N, c.ExternalIns, c.OutputReg, c.OutputIdx, c.MemIdx, c.CtrlIdx, c.Serializing())
}

// Enumerate returns every candidate window in the program that satisfies
// the mini-graph interface constraints. Windows are contiguous runs of 2 to
// MaxLen instructions within one basic block. Complex-class ops (which
// cannot execute on an ALU pipeline), indirect jumps, calls, returns, halts
// and nops are not eligible constituents; direct branches are eligible only
// as the final constituent (which block structure guarantees).
func Enumerate(p *prog.Program, lim Limits) []*Candidate {
	var out []*Candidate
	for bi := range p.Blocks {
		b := p.Blocks[bi]
		for start := b.Start; start < b.End-1; start++ {
			maxN := lim.MaxLen
			if start+maxN > b.End {
				maxN = b.End - start
			}
			for n := 2; n <= maxN; n++ {
				c := analyze(p, bi, start, n, lim)
				if c != nil {
					c.key = TemplateKey(p, c)
					out = append(out, c)
				}
			}
		}
	}
	return out
}

// eligible reports whether an instruction may be a mini-graph constituent.
func eligible(in isa.Instr) bool {
	switch isa.ClassOf(in.Op) {
	case isa.ClassNop, isa.ClassComplex, isa.ClassJump:
		return false
	}
	return true
}

// analyze builds the candidate for window [start, start+n) or returns nil
// if the window violates a constraint.
func analyze(p *prog.Program, block, start, n int, lim Limits) *Candidate {
	c := &Candidate{
		Start: start, N: n, Block: block,
		OutputReg: isa.NoReg, OutputIdx: -1, MemIdx: -1, CtrlIdx: -1,
	}
	// lastDef[r] = constituent index of the last definition of r so far.
	var lastDef [isa.NumRegs]int8
	for i := range lastDef {
		lastDef[i] = -1
	}
	extSlot := make(map[isa.Reg]int)

	for k := 0; k < n; k++ {
		in := p.Code[start+k]
		if !eligible(in) {
			return nil
		}
		if in.IsBranch() {
			if k != n-1 {
				return nil // branch must be last (block structure ensures this)
			}
			c.CtrlIdx = k
		}
		if in.IsMem() {
			if c.MemIdx >= 0 {
				return nil // at most one memory operation
			}
			c.MemIdx = k
		}
		for _, s := range in.Sources() {
			if d := lastDef[s]; d >= 0 {
				c.deps[k] |= 1 << uint(d)
				continue
			}
			slot, seen := extSlot[s]
			if !seen {
				slot = len(c.ExternalIns)
				if slot == lim.MaxInputs {
					return nil // too many external inputs
				}
				extSlot[s] = slot
				c.ExternalIns = append(c.ExternalIns, s)
				c.FirstUse = append(c.FirstUse, k)
			}
			_ = slot
		}
		if in.WritesReg() {
			lastDef[in.Rd] = int8(k)
		}
	}

	// Outputs: registers defined in the window and live after the last
	// constituent. At most one is allowed.
	liveAfter := p.LiveAfter(start + n - 1)
	for r := isa.Reg(0); r < isa.NumRegs; r++ {
		if lastDef[r] >= 0 && liveAfter.Has(r) {
			if c.OutputReg != isa.NoReg {
				return nil // two live outputs
			}
			c.OutputReg = r
			c.OutputIdx = int(lastDef[r])
		}
	}
	return c
}
