package core

import (
	"fmt"
	"strings"
	"sync"
	"testing"

	"repro/internal/automaton"
	"repro/internal/dp"
	"repro/internal/ir"
	"repro/internal/md"
	"repro/internal/metrics"
	"repro/internal/reduce"
)

// TestParallelLabelColdMatchesSequential: K goroutines label disjoint
// forests on one shared cold engine — the worst case, where every worker
// races through the construct slow path. Each forest's derivation cost
// must match what a sequential engine computes, and the automata must
// converge to the same state count (states are content-addressed, so the
// set of states a workload needs is independent of construction order).
// Run under -race to validate the synchronization, not just the results.
func TestParallelLabelColdMatchesSequential(t *testing.T) {
	d := md.MustLoad("demo")
	const workers = 8
	forests := make([]*ir.Forest, workers)
	for i := range forests {
		forests[i] = ir.RandomForest(d.Grammar, ir.RandomConfig{
			Seed: int64(100 + i), Trees: 200, MaxDepth: 8, Share: i%2 == 0, MaxLeafVal: 3,
		})
	}

	// Sequential reference: fresh engine, same forests in order.
	seq, err := New(d.Grammar, d.Env, Config{})
	if err != nil {
		t.Fatal(err)
	}
	rd, err := reduce.New(d.Grammar, d.Env, nil)
	if err != nil {
		t.Fatal(err)
	}
	wantCost := make([]grammarCost, workers)
	for i, f := range forests {
		wantCost[i] = forestCosts(t, rd, f, seq.Label(f, nil, 0))
	}

	m := &metrics.Counters{}
	par, err := New(d.Grammar, d.Env, Config{Metrics: m})
	if err != nil {
		t.Fatal(err)
	}
	gotCost := make([]grammarCost, workers)
	var wg sync.WaitGroup
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			gotCost[i] = forestCosts(t, rd, forests[i], par.Label(forests[i], nil, 0))
		}(i)
	}
	wg.Wait()

	for i := range forests {
		if gotCost[i] != wantCost[i] {
			t.Errorf("forest %d: parallel cost %v != sequential cost %v", i, gotCost[i], wantCost[i])
		}
	}
	if par.NumStates() != seq.NumStates() {
		t.Errorf("state counts diverged: parallel %d, sequential %d", par.NumStates(), seq.NumStates())
	}
	if n := int64(totalNodes(forests)); m.NodesLabeled != n {
		t.Errorf("nodes labeled = %d, want %d", m.NodesLabeled, n)
	}
}

// grammarCost is a printable cost summary of one forest's reduction.
type grammarCost struct {
	cost int64
	err  string
}

func forestCosts(t *testing.T, rd *reduce.Reducer, f *ir.Forest, lab reduce.Labeling) grammarCost {
	t.Helper()
	d, err := rd.Trace(f, lab)
	if err != nil {
		return grammarCost{err: err.Error()}
	}
	return grammarCost{cost: int64(d.Cost)}
}

func totalNodes(fs []*ir.Forest) int {
	n := 0
	for _, f := range fs {
		n += f.NumNodes()
	}
	return n
}

// TestParallelLabelWarmAddsNothing: after a sequential warm-up, parallel
// relabeling of the same workload must be pure fast path — no new states
// or transitions, and labels identical to the DP oracle.
func TestParallelLabelWarmAddsNothing(t *testing.T) {
	d := md.MustLoad("demo")
	e, err := New(d.Grammar, d.Env, Config{})
	if err != nil {
		t.Fatal(err)
	}
	l, err := dp.New(d.Grammar, d.Env, nil)
	if err != nil {
		t.Fatal(err)
	}
	const workers = 6
	forests := make([]*ir.Forest, workers)
	for i := range forests {
		forests[i] = ir.RandomForest(d.Grammar, ir.RandomConfig{
			Seed: int64(500 + i), Trees: 150, MaxDepth: 7, Share: true, MaxLeafVal: 3,
		})
		e.Label(forests[i], nil, 0) // warm up
	}
	states, trans := e.NumStates(), e.NumTransitions()

	var wg sync.WaitGroup
	errc := make(chan error, workers)
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			f := forests[i]
			got := e.Label(f, nil, 0).(*automaton.Labeling)
			want := l.Label(f, nil, 0).(*dp.Result)
			for _, n := range f.Nodes {
				for nt := range want.Rules[n.Index] {
					if want.Rules[n.Index][nt] != got.StateAt(n).Rule[nt] {
						errc <- fmt.Errorf("forest %d node %d nt %d: parallel label disagrees with DP", i, n.Index, nt)
						return
					}
				}
			}
		}(i)
	}
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Error(err)
	}
	if e.NumStates() != states || e.NumTransitions() != trans {
		t.Errorf("warm parallel relabeling grew the automaton: %d->%d states, %d->%d transitions",
			states, e.NumStates(), trans, e.NumTransitions())
	}
}

// TestSaveDuringLabeling: Save holds the construct lock, so a snapshot
// taken while other goroutines are still constructing states must always
// be internally consistent — every transition it persists references a
// persisted state — and therefore loadable.
func TestSaveDuringLabeling(t *testing.T) {
	d := md.MustLoad("demo")
	e, err := New(d.Grammar, d.Env, Config{})
	if err != nil {
		t.Fatal(err)
	}
	const workers = 4
	var wg sync.WaitGroup
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for seed := int64(0); seed < 6; seed++ {
				e.Label(ir.RandomForest(d.Grammar, ir.RandomConfig{
					Seed: seed*int64(workers) + int64(i), Trees: 60, MaxDepth: 8, Share: true, MaxLeafVal: 3,
				}), nil, 0)
			}
		}(i)
	}
	var bufs []string
	for i := 0; i < 10; i++ { // interleave snapshots with the labeling above
		var b strings.Builder
		if err := e.Save(&b); err != nil {
			t.Fatal(err)
		}
		bufs = append(bufs, b.String())
	}
	wg.Wait()
	for i, buf := range bufs {
		fresh, err := New(d.Grammar, d.Env, Config{})
		if err != nil {
			t.Fatal(err)
		}
		if err := fresh.Load(strings.NewReader(buf)); err != nil {
			t.Errorf("snapshot %d not loadable: %v", i, err)
		}
	}
}

// TestParallelForceHash drives the all-hash ablation layout from many
// goroutines: the open-addressing path must be as safe as the dense one.
func TestParallelForceHash(t *testing.T) {
	d := md.MustLoad("demo")
	e, err := New(d.Grammar, d.Env, Config{ForceHash: true})
	if err != nil {
		t.Fatal(err)
	}
	seq, err := New(d.Grammar, d.Env, Config{ForceHash: true})
	if err != nil {
		t.Fatal(err)
	}
	const workers = 8
	forests := make([]*ir.Forest, workers)
	for i := range forests {
		forests[i] = ir.RandomForest(d.Grammar, ir.RandomConfig{
			Seed: int64(900 + i), Trees: 100, MaxDepth: 7, Share: i%2 == 1, MaxLeafVal: 3,
		})
		seq.Label(forests[i], nil, 0)
	}
	var wg sync.WaitGroup
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			e.Label(forests[i], nil, 0)
		}(i)
	}
	wg.Wait()
	if e.NumStates() != seq.NumStates() {
		t.Errorf("ForceHash parallel states %d != sequential %d", e.NumStates(), seq.NumStates())
	}
}
