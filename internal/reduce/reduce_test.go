package reduce_test

import (
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/dp"
	"repro/internal/grammar"
	"repro/internal/ir"
	"repro/internal/md"
	"repro/internal/metrics"
	"repro/internal/reduce"
)

func setup(t testing.TB) (md.Desc, *dp.Labeler, *reduce.Reducer) {
	t.Helper()
	d := md.MustLoad("demo")
	l, err := dp.New(d.Grammar, d.Env, nil)
	if err != nil {
		t.Fatal(err)
	}
	rd, err := reduce.New(d.Grammar, d.Env, nil)
	if err != nil {
		t.Fatal(err)
	}
	return d, l, rd
}

// TestPaperDerivation reproduces the running example's optimal derivation:
// rules 5, 4, 3 (and chains/leaves) for the tree form, total cost 3.
func TestPaperDerivation(t *testing.T) {
	d, l, rd := setup(t)
	g := d.Grammar
	f := ir.MustParseTree(g, "Store(Reg[1], Plus(Load(Reg[1]), Reg[2]))")
	deriv, err := rd.Trace(f, l.Label(f, nil, 0))
	if err != nil {
		t.Fatal(err)
	}
	if deriv.Cost != 3 {
		t.Errorf("cost = %d, want 3", deriv.Cost)
	}
	names := map[string]bool{}
	for _, s := range deriv.Steps {
		names[g.RuleName(int(s.Rule))] = true
	}
	for _, want := range []string{"5", "4", "3", "2", "1"} {
		if !names[want] {
			t.Errorf("derivation misses rule %s: %s", want, deriv.String(g))
		}
	}
	if names["6c"] {
		t.Errorf("tree form must not use the RMW rule: %s", deriv.String(g))
	}
}

func TestRMWDerivationOnDAG(t *testing.T) {
	d, l, rd := setup(t)
	g := d.Grammar
	b := ir.NewBuilder(g)
	a := b.Leaf("Reg", 1)
	v := b.Leaf("Reg", 2)
	root := b.Node("Store", a, b.Node("Plus", b.Node("Load", a), v))
	b.Root(root)
	f := b.Finish()
	deriv, err := rd.Trace(f, l.Label(f, nil, 0))
	if err != nil {
		t.Fatal(err)
	}
	if deriv.Cost != 1 {
		t.Errorf("cost = %d, want 1 (RMW)", deriv.Cost)
	}
	used := map[string]bool{}
	for _, s := range deriv.Steps {
		used[g.RuleName(int(s.Rule))] = true
	}
	if !used["6c"] || !used["6b"] || !used["6a"] {
		t.Errorf("RMW derivation must pass through 6a/6b/6c: %s", deriv.String(g))
	}
}

// TestEnginesSelectIdenticalDerivations: DP and on-demand labelings must
// reduce to byte-identical derivations — the end-to-end equivalence claim.
func TestEnginesSelectIdenticalDerivations(t *testing.T) {
	d, l, rd := setup(t)
	e, err := core.New(d.Grammar, d.Env, core.Config{})
	if err != nil {
		t.Fatal(err)
	}
	for seed := int64(0); seed < 10; seed++ {
		f := ir.RandomForest(d.Grammar, ir.RandomConfig{
			Seed: seed, Trees: 50, MaxDepth: 7, Share: seed%2 == 0, MaxLeafVal: 4,
			RootOps:  []grammar.OpID{d.Grammar.MustOp("Store")},
			InnerOps: []grammar.OpID{d.Grammar.MustOp("Plus"), d.Grammar.MustOp("Load")},
		})
		want, err := rd.Trace(f, l.Label(f, nil, 0))
		if err != nil {
			t.Fatal(err)
		}
		got, err := rd.Trace(f, e.Label(f, nil, 0))
		if err != nil {
			t.Fatal(err)
		}
		if want.String(d.Grammar) != got.String(d.Grammar) {
			t.Fatalf("seed %d: derivations differ\ndp: %s\nod: %s",
				seed, want.String(d.Grammar), got.String(d.Grammar))
		}
	}
}

// TestReduceCostMatchesLabelCost: the reducer's summed cost equals the DP
// root cost (the derivation the labeler promised is the one delivered).
func TestReduceCostMatchesLabelCost(t *testing.T) {
	d, l, rd := setup(t)
	g := d.Grammar
	for seed := int64(0); seed < 20; seed++ {
		f := ir.RandomForest(g, ir.RandomConfig{
			Seed: seed, Trees: 30, MaxDepth: 7,
			RootOps:  []grammar.OpID{g.MustOp("Store")},
			InnerOps: []grammar.OpID{g.MustOp("Plus"), g.MustOp("Load")},
		})
		res := l.Label(f, nil, 0).(*dp.Result)
		var want grammar.Cost
		ok := true
		for _, r := range f.Roots {
			c := res.CostAt(r, g.Start)
			if c.IsInf() {
				ok = false
				break
			}
			want = want.Add(c)
		}
		if !ok {
			continue
		}
		c, err := rd.Cover(f, res)
		if err != nil {
			t.Fatal(err)
		}
		got := c.Cost
		rd.Release(c)
		if got != want {
			t.Fatalf("seed %d: reduce cost %d != label cost %d", seed, got, want)
		}
	}
}

func TestDAGVisitsOnce(t *testing.T) {
	d, l, rd := setup(t)
	g := d.Grammar
	b := ir.NewDAGBuilder(g)
	// Two statements store the same shared Plus expression.
	shared := b.Node("Plus", b.Leaf("Reg", 1), b.Leaf("Reg", 2))
	b.Root(b.Node("Store", b.Leaf("Reg", 3), shared))
	b.Root(b.Node("Store", b.Leaf("Reg", 4), shared))
	f := b.Finish()
	visits := map[int]int{}
	cov, err := rd.Cover(f, l.Label(f, nil, 0))
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range cov.Steps {
		if s.Node == shared {
			visits[int(s.NT)]++
		}
	}
	for nt, c := range visits {
		if c > 1 {
			t.Errorf("shared node reduced %d times for nt %s", c, g.NTName(grammar.NT(nt)))
		}
	}
	if len(visits) == 0 {
		t.Error("shared node never visited")
	}
}

func TestUnderivableError(t *testing.T) {
	d, l, rd := setup(t)
	// A bare Reg cannot derive stmt.
	f := ir.MustParseTree(d.Grammar, "Reg[1]")
	_, err := rd.Cover(f, l.Label(f, nil, 0))
	if err == nil || !strings.Contains(err.Error(), "no derivation") {
		t.Errorf("expected no-derivation error, got %v", err)
	}
}

func TestCoverTreeGoal(t *testing.T) {
	d, l, rd := setup(t)
	g := d.Grammar
	f := ir.MustParseTree(g, "Plus(Reg, Load(Reg))")
	c, err := rd.CoverTree(f.Roots[0], g.MustNT("reg"), l.Label(f, nil, 0))
	if err != nil {
		t.Fatal(err)
	}
	if c.Cost != 2 {
		t.Errorf("reg cost = %d, want 2", c.Cost)
	}
}

// TestDeepTreeReduction: the reducer walks with an explicit work stack, so
// a pathologically deep tree (here a 200000-deep chain of unary Loads)
// must reduce without growing the goroutine stack proportionally. The
// recursive formulation burned one stack frame per level; this is the
// regression guard for the iterative rewrite.
func TestDeepTreeReduction(t *testing.T) {
	d, l, rd := setup(t)
	g := d.Grammar
	const depth = 200000
	b := ir.NewBuilder(g)
	n := b.Leaf("Reg", 1)
	for i := 0; i < depth; i++ {
		n = b.Node("Load", n)
	}
	f := b.SingleTree(n)
	c, err := rd.CoverTree(f.Roots[0], g.MustNT("reg"), l.Label(f, nil, 0))
	if err != nil {
		t.Fatal(err)
	}
	cost, visits := c.Cost, len(c.Steps)
	if cost.IsInf() || cost == 0 {
		t.Fatalf("deep chain cost = %d, want finite nonzero", cost)
	}
	if visits < depth {
		t.Fatalf("visits = %d, want at least one per level (%d)", visits, depth)
	}
}

// TestVisitOrderBottomUp: steps must be listed bottom-up,
// left-to-right — children before parents, kid 0's subtree before kid
// 1's — because emission depends on operands existing before use.
func TestVisitOrderBottomUp(t *testing.T) {
	d, l, rd := setup(t)
	g := d.Grammar
	f := ir.MustParseTree(g, "Store(Reg[1], Plus(Load(Reg[2]), Reg[3]))")
	seenNode := map[*ir.Node]bool{}
	c, err := rd.Cover(f, l.Label(f, nil, 0))
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range c.Steps {
		for _, k := range s.Node.Kids {
			if !seenNode[k] {
				t.Fatalf("rule %s fired at node %d before its child %d", g.RuleName(int(s.Rule)), s.Node.Index, k.Index)
			}
		}
		seenNode[s.Node] = true
	}
}

// TestPremisePositions: every step's premises sit at smaller positions
// and are the steps for exactly the right-hand side of its rule — the
// chain rule's nonterminal at the same node, or each kid's nonterminal
// at that kid — also where a DAG-shared combination is reached twice.
// The leaf Reg[1] is shared: reduced first as addr (through the chain
// rule addr: reg, so its node's latest step is the addr one), then
// reached again as reg, whose step the lookup must find behind it.
func TestPremisePositions(t *testing.T) {
	d, l, rd := setup(t)
	g := d.Grammar
	b := ir.NewDAGBuilder(g)
	a := b.Leaf("Reg", 1)
	shared := b.Node("Plus", b.Leaf("Reg", 2), b.Leaf("Reg", 3))
	b.Root(b.Node("Store", a, b.Node("Plus", a, shared)))
	b.Root(b.Node("Store", b.Leaf("Reg", 4), b.Node("Load", shared)))
	f := b.Finish()
	c, err := rd.Cover(f, l.Label(f, nil, 0))
	if err != nil {
		t.Fatal(err)
	}
	defer rd.Release(c)
	check := func(i int, k int, n *ir.Node, nt grammar.NT) {
		p := c.Prems[c.Steps[i].Prem+int32(k)]
		if int(p) >= i || c.Steps[p].Node != n || c.Steps[p].NT != nt {
			t.Errorf("step %d premise %d at %d is n%d/%s, want n%d/%s before it",
				i, k, p, c.Steps[p].Node.Index, g.NTName(c.Steps[p].NT), n.Index, g.NTName(nt))
		}
	}
	for i, s := range c.Steps {
		r := &g.Rules[s.Rule]
		if r.IsChain {
			check(i, 0, s.Node, r.ChainRHS)
			continue
		}
		for k, kid := range s.Node.Kids {
			check(i, k, kid, r.Kids[k])
		}
	}
}

// TestReleasedCoverPinsNoForest: a cover handed back to the pool keeps no
// pointer into the forest it covered, neither in its steps nor in its
// work stack, after a large forest and after a smaller one reusing the
// grown buffers.
func TestReleasedCoverPinsNoForest(t *testing.T) {
	d, l, rd := setup(t)
	g := d.Grammar
	for _, depth := range []int{2000, 10} {
		b := ir.NewBuilder(g)
		n := b.Leaf("Reg", 1)
		for i := 0; i < depth; i++ {
			n = b.Node("Plus", n, b.Node("Load", b.Leaf("Reg", int64(i))))
		}
		f := b.SingleTree(b.Node("Store", b.Leaf("Reg", 0), n))
		c, err := rd.Cover(f, l.Label(f, nil, 0))
		if err != nil {
			t.Fatal(err)
		}
		rd.Release(c)
		if left := reduce.PooledNodes(c); len(left) > 0 {
			t.Fatalf("depth %d: released cover still holds %d node pointers", depth, len(left))
		}
	}
}

func TestReduceMetrics(t *testing.T) {
	d := md.MustLoad("demo")
	l, _ := dp.New(d.Grammar, d.Env, nil)
	m := &metrics.Counters{}
	rd, err := reduce.New(d.Grammar, d.Env, m)
	if err != nil {
		t.Fatal(err)
	}
	f := ir.MustParseTree(d.Grammar, "Store(Reg, Reg)")
	if _, err := rd.Cover(f, l.Label(f, nil, 0)); err != nil {
		t.Fatal(err)
	}
	if m.NodesReduced == 0 {
		t.Error("reduction visits not counted")
	}
}
