package minigraph

import (
	"container/heap"
	"fmt"
	"sort"
	"strings"

	"repro/internal/isa"
	"repro/internal/prog"
)

// TemplateKey computes the MGT template signature of a candidate: two
// candidates with equal keys describe the same constituent operations and
// dataflow and can share one MGT entry. The key covers each constituent's
// opcode, immediate, source bindings (external-input slot or internal
// producer index), relative branch displacement, and the output position.
func TemplateKey(p *prog.Program, c *Candidate) string {
	var sb strings.Builder
	extSlot := make(map[isa.Reg]int, len(c.ExternalIns))
	for i, r := range c.ExternalIns {
		extSlot[r] = i
	}
	var lastDef [isa.NumRegs]int8
	for i := range lastDef {
		lastDef[i] = -1
	}
	for k := 0; k < c.N; k++ {
		in := p.Code[c.Start+k]
		fmt.Fprintf(&sb, "%d:", in.Op)
		for _, s := range in.Sources() {
			if d := lastDef[s]; d >= 0 {
				fmt.Fprintf(&sb, "i%d,", d)
			} else {
				fmt.Fprintf(&sb, "e%d,", extSlot[s])
			}
		}
		if in.Rs1 == isa.ZeroReg || in.Rs2 == isa.ZeroReg {
			sb.WriteString("z,")
		}
		fmt.Fprintf(&sb, "#%d", in.Imm)
		if in.IsBranch() {
			fmt.Fprintf(&sb, "@%d", in.Targ-c.Start)
		}
		if in.WritesReg() {
			lastDef[in.Rd] = int8(k)
		}
		sb.WriteByte(';')
	}
	fmt.Fprintf(&sb, "out%d", c.OutputIdx)
	return sb.String()
}

// Instance is one selected static mini-graph.
type Instance struct {
	Start, N int
	Template int // dense template id within the Selection
	Cand     *Candidate
}

// End returns the static index one past the last constituent.
func (in *Instance) End() int { return in.Start + in.N }

// Selection is the result of running the greedy selection engine: a set of
// pairwise non-overlapping instances drawn from at most TemplateBudget
// templates.
type Selection struct {
	Instances    []Instance
	ByStart      map[int]*Instance
	byStart      []*Instance // dense start-index table (built by Select)
	NumTemplates int
	// CoveredDyn counts dynamic instructions embedded in mini-graphs;
	// TotalDyn counts all dynamic instructions (both from the frequency
	// profile used for selection).
	CoveredDyn, TotalDyn int64
}

// Coverage returns the fraction of dynamic instructions embedded in
// mini-graphs — the paper's amplification metric.
func (s *Selection) Coverage() float64 {
	if s.TotalDyn == 0 {
		return 0
	}
	return float64(s.CoveredDyn) / float64(s.TotalDyn)
}

// InstanceAt returns the instance starting at static index i, or nil.
// Lookups sit on the simulator's per-fetch-group path, so selections built
// by Select answer from a dense slice; hand-assembled Selections (tests)
// fall back to the ByStart map.
func (s *Selection) InstanceAt(i int) *Instance {
	if s.byStart != nil {
		if i < len(s.byStart) {
			return s.byStart[i]
		}
		return nil
	}
	return s.ByStart[i]
}

// SelectConfig configures the selection engine.
type SelectConfig struct {
	TemplateBudget int // MGT capacity (paper: 512)
}

// DefaultSelectConfig returns the paper's 512-template budget.
func DefaultSelectConfig() SelectConfig { return SelectConfig{TemplateBudget: 512} }

type scoredTemplate struct {
	id        int // index into templates
	score     int64
	heapIndex int
}

type templateHeap []*scoredTemplate

func (h templateHeap) Len() int           { return len(h) }
func (h templateHeap) Less(i, j int) bool { return h[i].score > h[j].score }
func (h templateHeap) Swap(i, j int)      { h[i], h[j] = h[j], h[i]; h[i].heapIndex, h[j].heapIndex = i, j }
func (h *templateHeap) Push(x any) {
	t := x.(*scoredTemplate)
	t.heapIndex = len(*h)
	*h = append(*h, t)
}
func (h *templateHeap) Pop() any { old := *h; n := len(old); t := old[n-1]; *h = old[:n-1]; return t }

// Select runs the paper's greedy, coverage-scored selection over a
// candidate pool. freq[i] is the dynamic execution count of static
// instruction i (all constituents of a candidate share one count, since a
// candidate lies within one basic block). Each template's score is
// (n-1) * f summed over its still-available instances; the engine
// repeatedly selects the highest-scoring template, claims its
// non-overlapping instances, discounts the rest, and stops at the template
// budget.
//
// The returned instances are pairwise non-overlapping, so every dynamic
// execution of a selected static location is aggregated ("dynamically
// disjoint" in the paper's terms).
func Select(p *prog.Program, cands []*Candidate, freq []int64, cfg SelectConfig) *Selection {
	sel := &Selection{ByStart: make(map[int]*Instance)}
	for _, f := range freq {
		sel.TotalDyn += f
	}
	if len(cands) == 0 || cfg.TemplateBudget <= 0 {
		return sel
	}

	// Group candidates by template key.
	type tmpl struct {
		n         int
		instances []*Candidate
	}
	byKey := make(map[string]*tmpl)
	var keys []string
	for _, c := range cands {
		k := c.key
		if k == "" {
			k = TemplateKey(p, c)
		}
		t := byKey[k]
		if t == nil {
			t = &tmpl{n: c.N}
			byKey[k] = t
			keys = append(keys, k)
		}
		t.instances = append(t.instances, c)
	}
	sort.Strings(keys) // deterministic template order
	templates := make([]*tmpl, len(keys))
	for i, k := range keys {
		t := byKey[k]
		sort.Slice(t.instances, func(a, b int) bool { return t.instances[a].Start < t.instances[b].Start })
		templates[i] = t
	}

	covered := make([]bool, len(p.Code))
	overlapsCovered := func(c *Candidate) bool {
		for i := c.Start; i < c.End(); i++ {
			if covered[i] {
				return true
			}
		}
		return false
	}
	score := func(t *tmpl) int64 {
		var f int64
		for _, c := range t.instances {
			if !overlapsCovered(c) {
				f += freq[c.Start]
			}
		}
		return int64(t.n-1) * f
	}

	h := make(templateHeap, 0, len(templates))
	for id, t := range templates {
		if s := score(t); s > 0 {
			h = append(h, &scoredTemplate{id: id, score: s})
		}
	}
	heap.Init(&h)

	for len(h) > 0 && sel.NumTemplates < cfg.TemplateBudget {
		top := heap.Pop(&h).(*scoredTemplate)
		t := templates[top.id]
		// Lazy re-scoring: a previously-claimed template may have stolen
		// instances since this entry was scored.
		if s := score(t); s != top.score {
			if s > 0 {
				top.score = s
				heap.Push(&h, top)
			}
			continue
		}
		if top.score <= 0 {
			break
		}
		tid := sel.NumTemplates
		sel.NumTemplates++
		// Claim instances in address order, skipping intra-template overlap.
		for _, c := range t.instances {
			if overlapsCovered(c) {
				continue
			}
			for i := c.Start; i < c.End(); i++ {
				covered[i] = true
			}
			sel.Instances = append(sel.Instances, Instance{Start: c.Start, N: c.N, Template: tid, Cand: c})
			sel.CoveredDyn += int64(c.N) * freq[c.Start]
		}
	}

	sort.Slice(sel.Instances, func(a, b int) bool { return sel.Instances[a].Start < sel.Instances[b].Start })
	for i := range sel.Instances {
		in := &sel.Instances[i]
		sel.ByStart[in.Start] = in
	}
	if n := len(sel.Instances); n > 0 {
		sel.byStart = make([]*Instance, sel.Instances[n-1].Start+1)
		for i := range sel.Instances {
			in := &sel.Instances[i]
			sel.byStart[in.Start] = in
		}
	}
	return sel
}

// Frequencies computes per-static-instruction dynamic execution counts from
// a committed trace (a convenience for selectors and tests).
func Frequencies(numInstrs int, indices []int32) []int64 {
	freq := make([]int64, numInstrs)
	for _, i := range indices {
		freq[i]++
	}
	return freq
}
