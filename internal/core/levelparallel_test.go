package core

import (
	"testing"

	"repro/internal/automaton"
	"repro/internal/dp"
	"repro/internal/ir"
	"repro/internal/md"
	"repro/internal/metrics"
	"repro/internal/reduce"
)

// levelForest builds a forest wide enough that its leaf-side levels
// exceed reduce.MinParallelSpan, so Label with workers > 1 actually fans out.
func levelForest(d md.Desc, seed int64) *ir.Forest {
	return ir.RandomForest(d.Grammar, ir.RandomConfig{
		Seed: seed, Trees: 1200, MaxDepth: 8, Share: seed%2 == 0, MaxLeafVal: 3,
	})
}

// TestLevelParallelColdMatchesDP: level-parallel labeling on a cold
// engine — every level races the construct slow path on shared operators —
// must agree with the DP oracle node by node, and a sequentially labeled
// twin engine must converge to the same automaton size. Run under -race.
func TestLevelParallelColdMatchesDP(t *testing.T) {
	d := md.MustLoad("demo")
	oracle, err := dp.New(d.Grammar, d.Env, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{2, 4, 8} {
		par, err := New(d.Grammar, d.Env, Config{})
		if err != nil {
			t.Fatal(err)
		}
		seq, err := New(d.Grammar, d.Env, Config{})
		if err != nil {
			t.Fatal(err)
		}
		for seed := int64(0); seed < 4; seed++ {
			f := levelForest(d, seed)
			got := par.Label(f, nil, workers).(*automaton.Labeling)
			seq.ReleaseLabeling(seq.Label(f, nil, 0))
			want := oracle.Label(f, nil, 0).(*dp.Result)
			for _, n := range f.Nodes {
				for nt := range want.Rules[n.Index] {
					if want.Rules[n.Index][nt] != got.StateAt(n).Rule[nt] {
						t.Fatalf("workers=%d seed=%d node %d nt %d: level-parallel label disagrees with DP",
							workers, seed, n.Index, nt)
					}
				}
			}
			par.ReleaseLabeling(got)
		}
		if par.NumStates() != seq.NumStates() {
			t.Errorf("workers=%d: parallel automaton has %d states, sequential %d",
				workers, par.NumStates(), seq.NumStates())
		}
	}
}

// TestLevelParallelWarmAddsNothing: once the automaton is warm, the
// level-parallel path must be pure fast path — identical labels, no new
// states or transitions, and the per-call metrics must count every node
// exactly once across the workers.
func TestLevelParallelWarmAddsNothing(t *testing.T) {
	d := md.MustLoad("demo")
	e, err := New(d.Grammar, d.Env, Config{})
	if err != nil {
		t.Fatal(err)
	}
	f := levelForest(d, 99)
	want := e.Label(f, nil, 0).(*automaton.Labeling) // warm up; keep as the reference labeling
	states, trans := e.NumStates(), e.NumTransitions()

	m := &metrics.Counters{}
	got := e.Label(f, m, 4).(*automaton.Labeling)
	for _, n := range f.Nodes {
		if want.StateAt(n) != got.StateAt(n) {
			t.Fatalf("node %d: warm level-parallel label differs from sequential", n.Index)
		}
	}
	if e.NumStates() != states || e.NumTransitions() != trans {
		t.Errorf("warm level-parallel labeling grew the automaton: %d->%d states, %d->%d transitions",
			states, e.NumStates(), trans, e.NumTransitions())
	}
	if m.NodesLabeled != int64(f.NumNodes()) {
		t.Errorf("metered %d nodes, want %d", m.NodesLabeled, f.NumNodes())
	}
	e.ReleaseLabeling(want)
	e.ReleaseLabeling(got)
}

// TestLevelParallelSmallForestFallsBack: below the fan-out threshold the
// parallel entry point must take the sequential path (same pooled
// labeling machinery, no goroutines) and still label correctly.
func TestLevelParallelSmallForestFallsBack(t *testing.T) {
	d := md.MustLoad("demo")
	e, err := New(d.Grammar, d.Env, Config{})
	if err != nil {
		t.Fatal(err)
	}
	f := ir.RandomForest(d.Grammar, ir.RandomConfig{Seed: 5, Trees: 10, MaxDepth: 5, MaxLeafVal: 3})
	if f.NumNodes() >= reduce.MinParallelSpan {
		t.Fatalf("test forest too big: %d nodes", f.NumNodes())
	}
	want := e.Label(f, nil, 0).(*automaton.Labeling)
	got := e.Label(f, nil, 8).(*automaton.Labeling)
	for _, n := range f.Nodes {
		if want.StateAt(n) != got.StateAt(n) {
			t.Fatalf("node %d: fallback label differs", n.Index)
		}
	}
}

// TestLevelParallelForceHash drives the level fan-out through the
// open-addressing path: dynamic-signature keys under intra-forest
// concurrency, checked against the same engine relabeling sequentially.
func TestLevelParallelForceHash(t *testing.T) {
	d := md.MustLoad("demo")
	e, err := New(d.Grammar, d.Env, Config{ForceHash: true})
	if err != nil {
		t.Fatal(err)
	}
	for seed := int64(20); seed < 24; seed++ {
		f := levelForest(d, seed)
		got := e.Label(f, nil, 8).(*automaton.Labeling)
		want := e.Label(f, nil, 0).(*automaton.Labeling)
		for _, n := range f.Nodes {
			if want.StateAt(n) != got.StateAt(n) {
				t.Fatalf("seed %d node %d: ForceHash level-parallel label differs", seed, n.Index)
			}
		}
		e.ReleaseLabeling(want)
		e.ReleaseLabeling(got)
	}
}
