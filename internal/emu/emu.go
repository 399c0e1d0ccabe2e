// Package emu is the functional (architectural) emulator. It executes a
// program to completion and produces the committed dynamic instruction
// trace that the timing pipeline replays: for every committed instruction,
// its static index, its memory effective address if any, and whether a
// control transfer was taken. A record's successor is the next record.
//
// The emulator is oblivious to mini-graphs: aggregation is a
// microarchitectural transformation applied by the pipeline at fetch, so a
// single functional run serves every selector and machine configuration.
package emu

import (
	"fmt"
	"sync"

	"repro/internal/isa"
	"repro/internal/prog"
)

// Rec is one committed dynamic instruction, 12 bytes. The static index of
// the next committed instruction is the following record's Index; the
// final record is the halt.
type Rec struct {
	Index int32  // static instruction index
	Addr  uint32 // memory effective address (loads/stores), else 0
	Taken bool   // for control transfers: whether the transfer was taken
}

// Result is the outcome of a functional run.
type Result struct {
	Trace     []Rec
	DynInstrs int64
	// Regs holds final architectural register values; by workload
	// convention RV (r0) carries a result checksum at halt.
	Regs [isa.NumRegs]uint32
	// Loads/Stores count dynamic memory operations.
	Loads, Stores int64
	// Branches and Taken count dynamic control transfers.
	Branches, Taken int64
}

// Checksum returns the workload result checksum (register RV at halt).
func (r *Result) Checksum() uint32 { return r.Regs[isa.RV] }

// Options configures a run.
type Options struct {
	// MaxInstrs bounds dynamic instructions; 0 means DefaultMaxInstrs.
	// Exceeding the bound is an error (runaway program).
	MaxInstrs int64
	// CollectTrace enables trace collection. When false, only counters and
	// final state are produced (used by quick functional checks).
	CollectTrace bool
}

// DefaultMaxInstrs bounds runaway programs.
const DefaultMaxInstrs = 64 << 20

const pageBits = 12
const pageSize = 1 << pageBits

// Memory is a sparse byte-addressed memory of 4KB pages. The zero value is
// ready to use.
type Memory struct {
	pages map[uint32]*[pageSize]byte
}

func (m *Memory) page(addr uint32, create bool) *[pageSize]byte {
	if m.pages == nil {
		if !create {
			return nil
		}
		m.pages = make(map[uint32]*[pageSize]byte)
	}
	key := addr >> pageBits
	p := m.pages[key]
	if p == nil && create {
		p = new([pageSize]byte)
		m.pages[key] = p
	}
	return p
}

// LoadByte returns the byte at addr (0 if never written).
func (m *Memory) LoadByte(addr uint32) byte {
	p := m.page(addr, false)
	if p == nil {
		return 0
	}
	return p[addr&(pageSize-1)]
}

// StoreByte stores one byte.
func (m *Memory) StoreByte(addr uint32, v byte) {
	m.page(addr, true)[addr&(pageSize-1)] = v
}

// LoadWord returns the little-endian 32-bit word at addr.
func (m *Memory) LoadWord(addr uint32) uint32 {
	// Fast path: word within one page.
	off := addr & (pageSize - 1)
	if off <= pageSize-4 {
		p := m.page(addr, false)
		if p == nil {
			return 0
		}
		return uint32(p[off]) | uint32(p[off+1])<<8 | uint32(p[off+2])<<16 | uint32(p[off+3])<<24
	}
	return uint32(m.LoadByte(addr)) | uint32(m.LoadByte(addr+1))<<8 |
		uint32(m.LoadByte(addr+2))<<16 | uint32(m.LoadByte(addr+3))<<24
}

// StoreWord stores a little-endian 32-bit word.
func (m *Memory) StoreWord(addr uint32, v uint32) {
	off := addr & (pageSize - 1)
	if off <= pageSize-4 {
		p := m.page(addr, true)
		p[off] = byte(v)
		p[off+1] = byte(v >> 8)
		p[off+2] = byte(v >> 16)
		p[off+3] = byte(v >> 24)
		return
	}
	m.StoreByte(addr, byte(v))
	m.StoreByte(addr+1, byte(v>>8))
	m.StoreByte(addr+2, byte(v>>16))
	m.StoreByte(addr+3, byte(v>>24))
}

// LoadImage copies data into memory starting at base.
func (m *Memory) LoadImage(base uint32, data []byte) {
	for i, b := range data {
		m.StoreByte(base+uint32(i), b)
	}
}

// traceScratch holds Run's growth buffers. A run appends into one and
// returns an exact-length copy, so a committed trace carries neither an
// initial-capacity floor nor append slack.
var traceScratch = sync.Pool{New: func() any {
	s := make([]Rec, 0, 1<<16)
	return &s
}}

// Run executes p to the halt instruction and returns the trace and final
// state. It returns an error for runaway executions, out-of-range control
// transfers, or falling off the end of the code.
func Run(p *prog.Program, opts Options) (*Result, error) {
	maxInstrs := opts.MaxInstrs
	if maxInstrs == 0 {
		maxInstrs = DefaultMaxInstrs
	}
	var mem Memory
	mem.LoadImage(prog.DataBase, p.Data)
	var regs [isa.NumRegs]uint32
	regs[isa.SP] = prog.StackTop
	collect := opts.CollectTrace
	var trace []Rec
	if collect {
		sp := traceScratch.Get().(*[]Rec)
		trace = (*sp)[:0]
		defer func() {
			*sp = trace[:0]
			traceScratch.Put(sp)
		}()
	}
	code := p.Code
	n := len(code)
	pc := p.Entry
	var dyn, loads, stores, branches, takenCnt int64

	read := func(r isa.Reg) uint32 {
		if r == isa.ZeroReg || r == isa.NoReg {
			return 0
		}
		return regs[r]
	}
	write := func(r isa.Reg, v uint32) {
		if r != isa.ZeroReg && r != isa.NoReg && r.Valid() {
			regs[r] = v
		}
	}

	for {
		if dyn >= maxInstrs {
			return nil, fmt.Errorf("emu: %s exceeded %d dynamic instructions", p.Name, maxInstrs)
		}
		if pc < 0 || pc >= n {
			return nil, fmt.Errorf("emu: %s: pc %d out of range", p.Name, pc)
		}
		in := code[pc]
		next := pc + 1
		var addr uint32
		taken := false

		switch in.Op {
		case isa.OpNop:
		case isa.OpHalt:
			// Committed below, then the run ends.
		case isa.OpAdd:
			write(in.Rd, read(in.Rs1)+read(in.Rs2))
		case isa.OpSub:
			write(in.Rd, read(in.Rs1)-read(in.Rs2))
		case isa.OpAnd:
			write(in.Rd, read(in.Rs1)&read(in.Rs2))
		case isa.OpOr:
			write(in.Rd, read(in.Rs1)|read(in.Rs2))
		case isa.OpXor:
			write(in.Rd, read(in.Rs1)^read(in.Rs2))
		case isa.OpSll:
			write(in.Rd, read(in.Rs1)<<(read(in.Rs2)&31))
		case isa.OpSrl:
			write(in.Rd, read(in.Rs1)>>(read(in.Rs2)&31))
		case isa.OpSra:
			write(in.Rd, uint32(int32(read(in.Rs1))>>(read(in.Rs2)&31)))
		case isa.OpCmpEq:
			write(in.Rd, b2u(read(in.Rs1) == read(in.Rs2)))
		case isa.OpCmpLt:
			write(in.Rd, b2u(int32(read(in.Rs1)) < int32(read(in.Rs2))))
		case isa.OpCmpLe:
			write(in.Rd, b2u(int32(read(in.Rs1)) <= int32(read(in.Rs2))))
		case isa.OpCmpUlt:
			write(in.Rd, b2u(read(in.Rs1) < read(in.Rs2)))
		case isa.OpAddi:
			write(in.Rd, read(in.Rs1)+uint32(in.Imm))
		case isa.OpSubi:
			write(in.Rd, read(in.Rs1)-uint32(in.Imm))
		case isa.OpAndi:
			write(in.Rd, read(in.Rs1)&uint32(in.Imm))
		case isa.OpOri:
			write(in.Rd, read(in.Rs1)|uint32(in.Imm))
		case isa.OpXori:
			write(in.Rd, read(in.Rs1)^uint32(in.Imm))
		case isa.OpSlli:
			write(in.Rd, read(in.Rs1)<<(uint32(in.Imm)&31))
		case isa.OpSrli:
			write(in.Rd, read(in.Rs1)>>(uint32(in.Imm)&31))
		case isa.OpSrai:
			write(in.Rd, uint32(int32(read(in.Rs1))>>(uint32(in.Imm)&31)))
		case isa.OpCmpEqi:
			write(in.Rd, b2u(read(in.Rs1) == uint32(in.Imm)))
		case isa.OpCmpLti:
			write(in.Rd, b2u(int32(read(in.Rs1)) < int32(in.Imm)))
		case isa.OpCmpLei:
			write(in.Rd, b2u(int32(read(in.Rs1)) <= int32(in.Imm)))
		case isa.OpLda:
			write(in.Rd, uint32(in.Imm))
		case isa.OpMul:
			write(in.Rd, read(in.Rs1)*read(in.Rs2))
		case isa.OpDiv:
			d := int32(read(in.Rs2))
			if d == 0 {
				write(in.Rd, 0) // division by zero is defined as 0
			} else {
				write(in.Rd, uint32(int32(read(in.Rs1))/d))
			}
		case isa.OpRem:
			d := int32(read(in.Rs2))
			if d == 0 {
				write(in.Rd, 0)
			} else {
				write(in.Rd, uint32(int32(read(in.Rs1))%d))
			}
		case isa.OpLdw:
			addr = read(in.Rs1) + uint32(in.Imm)
			write(in.Rd, mem.LoadWord(addr))
			loads++
		case isa.OpLdb:
			addr = read(in.Rs1) + uint32(in.Imm)
			write(in.Rd, uint32(mem.LoadByte(addr)))
			loads++
		case isa.OpStw:
			addr = read(in.Rs1) + uint32(in.Imm)
			mem.StoreWord(addr, read(in.Rs2))
			stores++
		case isa.OpStb:
			addr = read(in.Rs1) + uint32(in.Imm)
			mem.StoreByte(addr, byte(read(in.Rs2)))
			stores++
		case isa.OpBr:
			next, taken = in.Targ, true
			branches++
			takenCnt++
		case isa.OpBeqz, isa.OpBnez, isa.OpBltz, isa.OpBgez:
			v := int32(read(in.Rs1))
			switch in.Op {
			case isa.OpBeqz:
				taken = v == 0
			case isa.OpBnez:
				taken = v != 0
			case isa.OpBltz:
				taken = v < 0
			case isa.OpBgez:
				taken = v >= 0
			}
			if taken {
				next = in.Targ
				takenCnt++
			}
			branches++
		case isa.OpJsr:
			write(in.Rd, prog.PCOf(pc+1))
			next, taken = in.Targ, true
			branches++
			takenCnt++
		case isa.OpJsrI:
			t := read(in.Rs1)
			write(in.Rd, prog.PCOf(pc+1))
			next, taken = prog.IndexOf(t), true
			branches++
			takenCnt++
		case isa.OpJmp, isa.OpRet:
			next, taken = prog.IndexOf(read(in.Rs1)), true
			branches++
			takenCnt++
		default:
			return nil, fmt.Errorf("emu: %s: pc %d: unimplemented op %s", p.Name, pc, in.Op)
		}

		dyn++
		if in.Op == isa.OpHalt {
			if collect {
				trace = append(trace, Rec{Index: int32(pc)})
			}
			break
		}
		if collect {
			trace = append(trace, Rec{Index: int32(pc), Addr: addr, Taken: taken})
		}
		pc = next
	}
	res := &Result{
		DynInstrs: dyn,
		Regs:      regs,
		Loads:     loads,
		Stores:    stores,
		Branches:  branches,
		Taken:     takenCnt,
	}
	if collect {
		// Traces stay resident for a whole sweep: keep exactly the records.
		res.Trace = make([]Rec, len(trace))
		copy(res.Trace, trace)
	}
	return res, nil
}

func b2u(b bool) uint32 {
	if b {
		return 1
	}
	return 0
}
