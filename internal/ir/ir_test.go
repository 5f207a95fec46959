package ir

import (
	"runtime/debug"
	"strings"
	"testing"

	"repro/internal/grammar"
)

const demoSrc = `
%name demo
%start stmt
%term Reg(0) Load(1) Plus(2) Store(2)
addr: reg  (0)
reg:  Reg  (0)
reg:  Load(addr) (1)
reg:  Plus(reg, reg) (1)
stmt: Store(addr, reg) (1)
`

func demoGrammar(t testing.TB) *grammar.Grammar {
	t.Helper()
	return grammar.MustParse(demoSrc)
}

func TestBuilderTopo(t *testing.T) {
	g := demoGrammar(t)
	b := NewBuilder(g)
	a := b.Leaf("Reg", 1)
	l := b.Node("Load", a)
	r := b.Leaf("Reg", 2)
	p := b.Node("Plus", l, r)
	s := b.Node("Store", a, p)
	b.Root(s)
	f := b.Finish()
	if err := CheckTopo(f); err != nil {
		t.Fatal(err)
	}
	if f.NumNodes() != 5 {
		t.Errorf("nodes = %d, want 5", f.NumNodes())
	}
	if len(f.Roots) != 1 || f.Roots[0] != s {
		t.Error("root not recorded")
	}
}

func TestBuilderArityPanic(t *testing.T) {
	g := demoGrammar(t)
	b := NewBuilder(g)
	defer func() {
		if recover() == nil {
			t.Error("expected panic on arity mismatch")
		}
	}()
	b.Node("Plus", b.Leaf("Reg", 0)) // Plus wants 2 kids
}

func TestDAGBuilderShares(t *testing.T) {
	g := demoGrammar(t)
	b := NewDAGBuilder(g)
	a1 := b.Leaf("Reg", 7)
	a2 := b.Leaf("Reg", 7)
	if a1 != a2 {
		t.Error("identical leaves not shared")
	}
	l1 := b.Node("Load", a1)
	l2 := b.Node("Load", a2)
	if l1 != l2 {
		t.Error("identical subtrees not shared")
	}
	d := b.Leaf("Reg", 8)
	if d == a1 {
		t.Error("different leaves wrongly shared")
	}
	s := b.Node("Store", a1, b.Node("Plus", l1, d))
	b.Root(s)
	f := b.Finish()
	if err := CheckTopo(f); err != nil {
		t.Fatal(err)
	}
	st := ComputeStats(f)
	if st.Shared == 0 {
		t.Errorf("expected shared nodes in DAG, stats=%v", st)
	}
}

func TestParseTree(t *testing.T) {
	g := demoGrammar(t)
	f, err := ParseTree(g, "Store(Reg[1], Plus(Load(Reg[1]), Reg[2]))")
	if err != nil {
		t.Fatal(err)
	}
	if err := CheckTopo(f); err != nil {
		t.Fatal(err)
	}
	if f.NumNodes() != 6 {
		t.Errorf("nodes = %d, want 6 (trees do not share the two Reg[1] leaves)", f.NumNodes())
	}
	out := f.String(g)
	if !strings.Contains(out, "Store(Reg[1], Plus(Load(Reg[1]), Reg[2]))") {
		t.Errorf("round trip failed: %s", out)
	}
}

func TestParseTreesMultiple(t *testing.T) {
	g := demoGrammar(t)
	f, err := ParseTrees(g, "Store(Reg, Reg)\nStore(Reg, Load(Reg)); Reg[5]")
	if err != nil {
		t.Fatal(err)
	}
	if len(f.Roots) != 3 {
		t.Errorf("roots = %d, want 3", len(f.Roots))
	}
}

func TestParseTreeSymbols(t *testing.T) {
	g := demoGrammar(t)
	f, err := ParseTree(g, "Load(Reg[base])")
	if err != nil {
		t.Fatal(err)
	}
	leaf := f.Roots[0].Kids[0]
	if leaf.Sym != "base" || leaf.Val != 0 {
		t.Errorf("sym leaf = %q/%d", leaf.Sym, leaf.Val)
	}
}

func TestParseTreeErrors(t *testing.T) {
	g := demoGrammar(t)
	for name, src := range map[string]string{
		"unknown op":   "Frob(Reg)",
		"bad arity":    "Plus(Reg)",
		"unterminated": "Plus(Reg, Reg",
		"empty":        "   ",
		"trailing":     "Reg Reg",
		"open bracket": "Reg[5",
	} {
		t.Run(name, func(t *testing.T) {
			if _, err := ParseTree(g, src); err == nil {
				t.Errorf("expected error for %q", src)
			}
		})
	}
}

func TestRandomForestDeterministic(t *testing.T) {
	g := demoGrammar(t)
	cfg := RandomConfig{Seed: 42, Trees: 20, MaxDepth: 6}
	f1 := RandomForest(g, cfg)
	f2 := RandomForest(g, cfg)
	if f1.String(g) != f2.String(g) {
		t.Error("same seed must give the same forest")
	}
	f3 := RandomForest(g, RandomConfig{Seed: 43, Trees: 20, MaxDepth: 6})
	if f1.String(g) == f3.String(g) {
		t.Error("different seeds should give different forests")
	}
	if err := CheckTopo(f1); err != nil {
		t.Fatal(err)
	}
	if len(f1.Roots) != 20 {
		t.Errorf("roots = %d, want 20", len(f1.Roots))
	}
}

func TestRandomForestRootOps(t *testing.T) {
	g := demoGrammar(t)
	store := g.MustOp("Store")
	f := RandomForest(g, RandomConfig{Seed: 1, Trees: 15, MaxDepth: 5, RootOps: []grammar.OpID{store}})
	for _, r := range f.Roots {
		if r.Op != store {
			t.Fatalf("root op = %s, want Store", g.OpName(r.Op))
		}
	}
}

func TestRandomForestShared(t *testing.T) {
	g := demoGrammar(t)
	f := RandomForest(g, RandomConfig{Seed: 5, Trees: 50, MaxDepth: 6, Share: true, MaxLeafVal: 3})
	if err := CheckTopo(f); err != nil {
		t.Fatal(err)
	}
	st := ComputeStats(f)
	if st.Shared == 0 {
		t.Errorf("DAG workload should share nodes: %v", st)
	}
}

func TestStatsDepth(t *testing.T) {
	g := demoGrammar(t)
	f := MustParseTree(g, "Store(Reg, Plus(Load(Reg), Reg))")
	st := ComputeStats(f)
	if st.MaxDepth != 4 {
		t.Errorf("depth = %d, want 4", st.MaxDepth)
	}
	if st.LeafNodes != 3 {
		t.Errorf("leaves = %d, want 3", st.LeafNodes)
	}
	if st.String() == "" {
		t.Error("empty stats string")
	}
}

// TestParseTreeDeepChain: tree parsing keeps its own stack, so a chain
// far deeper than the goroutine stack allows still parses. The test caps
// the stack low: a recursive parser overflows it, which is a fatal error
// no recover can contain; the iterative one never grows it.
func TestParseTreeDeepChain(t *testing.T) {
	defer debug.SetMaxStack(debug.SetMaxStack(256 << 10))
	g := demoGrammar(t)
	const depth = 200000
	src := strings.Repeat("Load(", depth) + "Reg[1]" + strings.Repeat(")", depth)
	f, err := ParseTree(g, src)
	if err != nil {
		t.Fatal(err)
	}
	if f.NumNodes() != depth+1 {
		t.Fatalf("nodes = %d, want %d", f.NumNodes(), depth+1)
	}
	if err := CheckTopo(f); err != nil {
		t.Fatal(err)
	}
	n := f.Roots[0]
	for i := 0; i < depth; i++ {
		if g.OpName(n.Op) != "Load" || len(n.Kids) != 1 {
			t.Fatalf("depth %d: got %s with %d kids, want Load with 1", i, g.OpName(n.Op), len(n.Kids))
		}
		n = n.Kids[0]
	}
	if g.OpName(n.Op) != "Reg" || n.Val != 1 {
		t.Fatalf("leaf = %s[%d], want Reg[1]", g.OpName(n.Op), n.Val)
	}
	if _, err := ParseTree(g, src[:len(src)-1]); err == nil || !strings.Contains(err.Error(), "unterminated '(' for Load") {
		t.Fatalf("deep chain missing one ')': err = %v, want unterminated '('", err)
	}
}
