package minigraph

import (
	"testing"
	"testing/quick"

	"repro/internal/isa"
	"repro/internal/prog"
)

// loopProg: a hot loop (body of 4 aggregatable instrs) plus cold prologue.
func loopProg(t testing.TB) *prog.Program {
	t.Helper()
	b := prog.NewBuilder("loop")
	b.Li(1, 100)   // 0
	b.Li(2, 0)     // 1
	b.Label("top") // block 1 at 2
	b.Add(2, 2, 1) // 2
	b.Xori(2, 2, 0x5a)
	b.Slli(3, 2, 1)
	b.Add(2, 2, 3)
	b.Subi(1, 1, 1)
	b.Bnez(1, "top")
	b.Mov(0, 2) // 8
	b.Halt()
	return b.MustBuild()
}

func loopFreq(p *prog.Program) []int64 {
	freq := make([]int64, len(p.Code))
	for i := range freq {
		freq[i] = 1
	}
	for i := 2; i <= 7; i++ {
		freq[i] = 100
	}
	return freq
}

func TestSelectPicksHotWindows(t *testing.T) {
	p := loopProg(t)
	cands := Enumerate(p, DefaultLimits())
	if len(cands) == 0 {
		t.Fatal("no candidates")
	}
	sel := Select(p, cands, loopFreq(p), DefaultSelectConfig())
	if len(sel.Instances) == 0 {
		t.Fatal("nothing selected")
	}
	// All selected instances should be in the hot loop.
	var covered int
	for _, in := range sel.Instances {
		if in.Start < 2 || in.End() > 8 {
			t.Errorf("cold instance selected: %+v", in)
		}
		covered += in.N
	}
	// The loop has 6 aggregatable instructions; with MaxLen 4 we can cover
	// all 6 with two instances (4+2 or 3+3).
	if covered != 6 {
		t.Errorf("covered %d loop instructions, want 6", covered)
	}
	wantCov := float64(6*100) / float64(sel.TotalDyn)
	if got := sel.Coverage(); got != wantCov {
		t.Errorf("coverage = %f, want %f", got, wantCov)
	}
}

func TestSelectedInstancesDisjoint(t *testing.T) {
	p := loopProg(t)
	sel := Select(p, Enumerate(p, DefaultLimits()), loopFreq(p), DefaultSelectConfig())
	seen := make(map[int]bool)
	for _, in := range sel.Instances {
		for i := in.Start; i < in.End(); i++ {
			if seen[i] {
				t.Fatalf("instruction %d in two instances", i)
			}
			seen[i] = true
		}
	}
}

func TestTemplateBudget(t *testing.T) {
	p := loopProg(t)
	cands := Enumerate(p, DefaultLimits())
	sel := Select(p, cands, loopFreq(p), SelectConfig{TemplateBudget: 1})
	if sel.NumTemplates != 1 {
		t.Errorf("NumTemplates = %d, want 1", sel.NumTemplates)
	}
	// With one template the engine must pick the single best-scoring one.
	if len(sel.Instances) == 0 {
		t.Error("budget 1 should still select something")
	}
}

func TestZeroBudget(t *testing.T) {
	p := loopProg(t)
	sel := Select(p, Enumerate(p, DefaultLimits()), loopFreq(p), SelectConfig{TemplateBudget: 0})
	if len(sel.Instances) != 0 {
		t.Error("zero budget must select nothing")
	}
}

func TestEmptyPool(t *testing.T) {
	p := loopProg(t)
	sel := Select(p, nil, loopFreq(p), DefaultSelectConfig())
	if len(sel.Instances) != 0 || sel.Coverage() != 0 {
		t.Error("empty pool must select nothing")
	}
}

func TestTemplateSharing(t *testing.T) {
	// Two identical code sequences at different locations share a template.
	b := prog.NewBuilder("share")
	b.Add(3, 1, 2) // 0
	b.Addi(3, 3, 7)
	b.Stw(3, isa.SP, 0)
	b.Add(3, 1, 2) // 3: identical shape
	b.Addi(3, 3, 7)
	b.Stw(3, isa.SP, 0)
	b.Halt()
	p := b.MustBuild()
	cands := Enumerate(p, DefaultLimits())
	c1 := findCand(cands, 0, 2)
	c2 := findCand(cands, 3, 2)
	if c1 == nil || c2 == nil {
		t.Fatal("missing candidates")
	}
	if TemplateKey(p, c1) != TemplateKey(p, c2) {
		t.Errorf("identical sequences should share a template:\n%s\n%s",
			TemplateKey(p, c1), TemplateKey(p, c2))
	}
	freq := make([]int64, len(p.Code))
	for i := range freq {
		freq[i] = 10
	}
	sel := Select(p, []*Candidate{c1, c2}, freq, SelectConfig{TemplateBudget: 1})
	if len(sel.Instances) != 2 {
		t.Errorf("one template should claim both instances, got %d", len(sel.Instances))
	}
	if sel.Instances[0].Template != sel.Instances[1].Template {
		t.Error("instances should carry the same template id")
	}
}

func TestTemplateKeyDistinguishesImmediates(t *testing.T) {
	b := prog.NewBuilder("imm")
	b.Addi(3, 1, 7)
	b.Stw(3, isa.SP, 0)
	b.Addi(3, 1, 8) // different immediate
	b.Stw(3, isa.SP, 0)
	b.Halt()
	p := b.MustBuild()
	cands := Enumerate(p, DefaultLimits())
	c1, c2 := findCand(cands, 0, 2), findCand(cands, 2, 2)
	if c1 == nil || c2 == nil {
		t.Fatal("missing candidates")
	}
	if TemplateKey(p, c1) == TemplateKey(p, c2) {
		t.Error("different immediates must not share a template")
	}
}

func TestFrequencies(t *testing.T) {
	freq := Frequencies(5, []int32{0, 1, 1, 2, 2, 2, 4})
	want := []int64{1, 2, 3, 0, 1}
	for i, w := range want {
		if freq[i] != w {
			t.Errorf("freq[%d] = %d, want %d", i, freq[i], w)
		}
	}
}

func TestHigherScoreWins(t *testing.T) {
	// Two disjoint candidate groups; tight budget must pick the hotter one.
	b := prog.NewBuilder("score")
	b.Add(3, 1, 2) // 0 cold pair
	b.Addi(3, 3, 1)
	b.Stw(3, isa.SP, 0)
	b.Xor(4, 1, 2) // 3 hot pair
	b.Slli(4, 4, 2)
	b.Stw(4, isa.SP, 4)
	b.Halt()
	p := b.MustBuild()
	cands := []*Candidate{
		findCand(Enumerate(p, DefaultLimits()), 0, 2),
		findCand(Enumerate(p, DefaultLimits()), 3, 2),
	}
	if cands[0] == nil || cands[1] == nil {
		t.Fatal("missing candidates")
	}
	freq := []int64{1, 1, 1, 50, 50, 50, 1}
	sel := Select(p, cands, freq, SelectConfig{TemplateBudget: 1})
	if len(sel.Instances) != 1 || sel.Instances[0].Start != 3 {
		t.Errorf("selected %+v, want the hot pair at 3", sel.Instances)
	}
}

// Property: for arbitrary frequency assignments, selected instances are
// always pairwise disjoint, within bounds, and coverage is in [0,1].
func TestSelectionInvariantProperty(t *testing.T) {
	p := loopProg(t)
	cands := Enumerate(p, DefaultLimits())
	f := func(rawFreq []uint16, budget uint8) bool {
		// Frequencies are per-basic-block execution counts: every
		// instruction in a block shares its block's count.
		freq := make([]int64, len(p.Code))
		for i := range freq {
			bi := p.BlockOf[i]
			if bi < len(rawFreq) {
				freq[i] = int64(rawFreq[bi])
			}
		}
		sel := Select(p, cands, freq, SelectConfig{TemplateBudget: int(budget%8) + 1})
		seen := make(map[int]bool)
		for _, in := range sel.Instances {
			for i := in.Start; i < in.End(); i++ {
				if seen[i] || i < 0 || i >= len(p.Code) {
					return false
				}
				seen[i] = true
			}
		}
		cov := sel.Coverage()
		return cov >= 0 && cov <= 1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// Select groups enumerated candidates by the key Enumerate stored, and
// hand-built ones by TemplateKey; the two must agree.
func TestEnumerateStoresTemplateKey(t *testing.T) {
	p := loopProg(t)
	for _, c := range Enumerate(p, DefaultLimits()) {
		if want := TemplateKey(p, c); c.key != want {
			t.Errorf("%v: stored key %q, TemplateKey %q", c, c.key, want)
		}
	}
}

func TestLayout(t *testing.T) {
	p := loopProg(t)
	sel := Select(p, Enumerate(p, DefaultLimits()), loopFreq(p), DefaultSelectConfig())
	l := NewLayout(p, sel)

	// Compacted inline size = instrs - covered + numInstances.
	covered := 0
	for _, in := range sel.Instances {
		covered += in.N
	}
	want := len(p.Code) - covered + len(sel.Instances)
	if l.InlineWords != want {
		t.Errorf("InlineWords = %d, want %d", l.InlineWords, want)
	}

	// Inline addresses strictly increase over heads and non-members.
	prev := uint32(0)
	for i := 0; i < len(p.Code); i++ {
		if in := sel.InstanceAt(i); in != nil {
			a := l.InlineAddr(i)
			if a <= prev {
				t.Errorf("handle addr %#x not increasing", a)
			}
			prev = a
			// Members map to outline region.
			for k := 0; k < in.N; k++ {
				oa := l.OutlineAddr(i + k)
				if oa < OutlineBase {
					t.Errorf("outline addr %#x below OutlineBase", oa)
				}
			}
			if l.JumpBackAddr(i) == 0 {
				t.Error("missing jump-back address")
			}
			i += in.N - 1
			continue
		}
		a := l.InlineAddr(i)
		if a <= prev {
			t.Errorf("inline addr %#x at %d not increasing", a, i)
		}
		prev = a
	}
}

func TestIdentityLayout(t *testing.T) {
	p := loopProg(t)
	l := IdentityLayout(p)
	for i := range p.Code {
		if l.InlineAddr(i) != prog.PCOf(i) {
			t.Errorf("identity layout moved instruction %d", i)
		}
		if l.OutlineAddr(i) != 0 {
			t.Errorf("identity layout has outline addr for %d", i)
		}
	}
	if l.InlineWords != len(p.Code) {
		t.Errorf("InlineWords = %d, want %d", l.InlineWords, len(p.Code))
	}
}
