package dp

import (
	"testing"

	"repro/internal/grammar"
	"repro/internal/ir"
	"repro/internal/md"
	"repro/internal/metrics"
)

func demo(t testing.TB) md.Desc {
	t.Helper()
	return md.MustLoad("demo")
}

// TestPaperExampleTree reproduces the literature's labeling figure: for the
// tree Store(Reg, Plus(Load(Reg), Reg)) with distinct address nodes, the
// read-modify-write rule is inapplicable and the optimal derivation costs 3
// (load + add + store).
func TestPaperExampleTree(t *testing.T) {
	d := demo(t)
	g := d.Grammar
	l, err := New(g, d.Env, nil)
	if err != nil {
		t.Fatal(err)
	}
	f := ir.MustParseTree(g, "Store(Reg[1], Plus(Load(Reg[1]), Reg[2]))")
	res := l.Label(f, nil, 0).(*Result)
	root := f.Roots[0]
	stmt := g.MustNT("stmt")
	if got := res.CostAt(root, stmt); got != 3 {
		t.Errorf("stmt cost = %d, want 3\n%s", got, res.Explain(root))
	}
	// The chosen rule at the root must be rule 5 (plain store).
	ri := res.RuleAt(root, stmt)
	if name := g.RuleName(int(ri)); name != "5" {
		t.Errorf("root rule = %s, want 5", name)
	}
	// Cost table of the Plus node matches the figure: reg costs 2.
	plus := root.Kids[1]
	if got := res.CostAt(plus, g.MustNT("reg")); got != 2 {
		t.Errorf("reg cost at Plus = %d, want 2", got)
	}
	if got := res.CostAt(plus, g.MustNT("addr")); got != 2 {
		t.Errorf("addr cost at Plus = %d, want 2 (chain from reg)", got)
	}
	if !res.Derivable(root) {
		t.Error("root must be derivable")
	}
}

// TestPaperExampleDAG builds the same shape as a DAG where the load address
// IS the store address node; the read-modify-write rule applies and the
// whole statement costs 1.
func TestPaperExampleDAG(t *testing.T) {
	d := demo(t)
	g := d.Grammar
	l, err := New(g, d.Env, nil)
	if err != nil {
		t.Fatal(err)
	}
	b := ir.NewBuilder(g)
	addr := b.Leaf("Reg", 1)
	val := b.Leaf("Reg", 2)
	load := b.Node("Load", addr) // same addr node as the store's
	plus := b.Node("Plus", load, val)
	store := b.Node("Store", addr, plus)
	b.Root(store)
	f := b.Finish()

	res := l.Label(f, nil, 0).(*Result)
	stmt := g.MustNT("stmt")
	if got := res.CostAt(store, stmt); got != 1 {
		t.Errorf("stmt cost = %d, want 1 (RMW applies)\n%s", got, res.Explain(store))
	}
	if name := g.RuleName(int(res.RuleAt(store, stmt))); name != "6c" {
		t.Errorf("root rule = %s, want 6c", name)
	}
}

func TestChainClosureTransitive(t *testing.T) {
	g := grammar.MustParse(`
%term A(0)
%start top
base: A (1)
mid:  base (2)
top:  mid (3)
`)
	l, err := New(g, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	f := ir.MustParseTree(g, "A")
	res := l.Label(f, nil, 0).(*Result)
	n := f.Roots[0]
	if got := res.CostAt(n, g.MustNT("top")); got != 6 {
		t.Errorf("top = %d, want 6 (1+2+3 through two chain rules)", got)
	}
	if got := res.CostAt(n, g.MustNT("mid")); got != 3 {
		t.Errorf("mid = %d, want 3", got)
	}
}

func TestChainClosurePicksCheapest(t *testing.T) {
	g := grammar.MustParse(`
%term A(0)
%start x
a: A (0)
x: a (5)
b: a (1)
x: b (1)
`)
	l, _ := New(g, nil, nil)
	f := ir.MustParseTree(g, "A")
	res := l.Label(f, nil, 0).(*Result)
	n := f.Roots[0]
	if got := res.CostAt(n, g.MustNT("x")); got != 2 {
		t.Errorf("x = %d, want 2 (via b, not the direct cost-5 rule)", got)
	}
}

func TestUnderivable(t *testing.T) {
	g := grammar.MustParse(`
%term A(0) B(1)
%start x
x: B(y) (1)
y: A (0)
`)
	l, _ := New(g, nil, nil)
	f := ir.MustParseTree(g, "A")
	res := l.Label(f, nil, 0).(*Result)
	if res.Derivable(f.Roots[0]) {
		t.Error("A alone must not derive start x")
	}
	if res.RuleAt(f.Roots[0], g.MustNT("x")) != -1 {
		t.Error("rule for underivable nonterminal must be -1")
	}
}

func TestDynEnvMissing(t *testing.T) {
	d := demo(t)
	if _, err := New(d.Grammar, nil, nil); err == nil {
		t.Error("expected error for unbound dynamic cost")
	}
	if _, err := New(d.Grammar, grammar.DynEnv{"wrong": nil}, nil); err == nil {
		t.Error("expected error for wrong binding name")
	}
}

func TestDynNotCalledWhenStructurallyInapplicable(t *testing.T) {
	d := demo(t)
	g := d.Grammar
	calls := 0
	env := grammar.DynEnv{
		"samemem": func(n grammar.DynNode) grammar.Cost {
			calls++
			// Would panic on Store(Reg, Reg): Kid(1) has kids only if it
			// is the Plus(Load(...)) shape.
			if n.Kid(1).NumKids() == 0 {
				t.Error("dynamic cost called on structurally inapplicable node")
				return grammar.Inf
			}
			return grammar.Inf
		},
	}
	l, err := New(g, env, nil)
	if err != nil {
		t.Fatal(err)
	}
	f := ir.MustParseTree(g, "Store(Reg, Reg)")
	l.Label(f, nil, 0)
	if calls != 0 {
		t.Errorf("dyn calls = %d, want 0 for non-matching shape", calls)
	}
	f2 := ir.MustParseTree(g, "Store(Reg, Plus(Load(Reg), Reg))")
	l.Label(f2, nil, 0)
	if calls != 1 {
		t.Errorf("dyn calls = %d, want 1 for matching shape", calls)
	}
}

func TestMetricsCounting(t *testing.T) {
	d := demo(t)
	m := &metrics.Counters{}
	l, err := New(d.Grammar, d.Env, m)
	if err != nil {
		t.Fatal(err)
	}
	f := ir.MustParseTree(d.Grammar, "Store(Reg, Plus(Load(Reg), Reg))")
	l.Label(f, nil, 0)
	if m.NodesLabeled != 6 {
		t.Errorf("nodes = %d, want 6", m.NodesLabeled)
	}
	if m.RulesExamined == 0 || m.ChainRelaxations == 0 {
		t.Errorf("expected rule and chain work: %s", m)
	}
	if m.WorkUnits() <= 0 || m.PerNode() <= 0 {
		t.Errorf("work units must be positive: %s", m)
	}
	m.Reset()
	if m.WorkUnits() != 0 {
		t.Error("reset failed")
	}
}

func TestNilMetricsSafe(t *testing.T) {
	var m *metrics.Counters
	m.CountNode()
	m.CountRules(3)
	m.CountChain(1)
	m.CountDyn(1)
	m.CountProbe(true)
	m.CountState()
	m.CountTransition()
	m.CountReduce()
	m.Reset()
	if m.WorkUnits() != 0 || m.PerNode() != 0 {
		t.Error("nil counters must report zero")
	}
	if m.String() == "" {
		t.Error("nil counters should still render")
	}
	_ = m.Clone()
}
