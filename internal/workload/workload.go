// Package workload provides the benchmark suite: 78 programs in four
// suites mirroring the paper's mix (SPECint2000, MediaBench, CommBench,
// MiBench):
//
//	intx  — integer codes: sorting, hashing, pointer chasing, branchy logic
//	media — kernels over sample streams: ADPCM, DCT, FIR, bit packing
//	comm  — packet-processing codes: CRC, checksums, RLE, mixers
//	embed — embedded kernels: dijkstra, string search, matmul, bitcount
//
// Hand-written kernels are real algorithm implementations in the toy ISA,
// verified against Go reference implementations. The remainder of each
// suite is filled by a seeded parametric generator that sweeps instruction-
// level parallelism, memory intensity, branch entropy and loop shape, so
// the population spans the same behavioural axes as the paper's 78
// programs. Every workload has two input sets ("small", "large") for the
// cross-input robustness experiments.
package workload

import (
	"fmt"
	"slices"
	"sort"
	"strings"

	"repro/internal/prog"
)

// Inputs lists the available input-set names.
var Inputs = []string{"small", "large"}

// Workload is one benchmark program family.
type Workload struct {
	Name  string
	Suite string
	// build constructs the program for a scale (0 = small, 1 = large) and
	// returns the expected result checksum. verified is false for
	// generated workloads whose checksum is a self-consistency value
	// rather than an independently computed reference.
	build func(scale int) (p *prog.Program, want uint32, verified bool)
}

// CheckInput returns an error unless input names one of Inputs.
func CheckInput(input string) error {
	if slices.Contains(Inputs, input) {
		return nil
	}
	return fmt.Errorf("unknown input set %q (want %s)", input, strings.Join(Inputs, " or "))
}

// Build constructs the program for the named input set.
func (w *Workload) Build(input string) (*prog.Program, uint32, bool, error) {
	scale := slices.Index(Inputs, input)
	if scale < 0 {
		return nil, 0, false, fmt.Errorf("workload %s: %w", w.Name, CheckInput(input))
	}
	p, want, verified := w.build(scale)
	return p, want, verified, nil
}

var registry []*Workload

func register(w *Workload) {
	registry = append(registry, w)
}

// All returns every workload, ordered by suite then name.
func All() []*Workload {
	out := append([]*Workload(nil), registry...)
	sort.Slice(out, func(i, j int) bool {
		if out[i].Suite != out[j].Suite {
			return out[i].Suite < out[j].Suite
		}
		return out[i].Name < out[j].Name
	})
	return out
}

// BySuite returns the workloads of one suite.
func BySuite(suite string) []*Workload {
	var out []*Workload
	for _, w := range All() {
		if w.Suite == suite {
			out = append(out, w)
		}
	}
	return out
}

// Find returns the workload with the given name, or nil.
func Find(name string) *Workload {
	for _, w := range registry {
		if w.Name == name {
			return w
		}
	}
	return nil
}

// Suites lists the suite names.
func Suites() []string { return []string{"comm", "embed", "intx", "media"} }
