// Package reduce implements the reducer pass shared by all labelers: given
// a labeled forest, it walks the optimal derivation from the start
// nonterminal at each root and returns it as data — a Cover, the applied
// rules in post-order (bottom-up, left to right), each with the list
// positions of its premises. Consumers such as the emitter walk that list
// linearly; the reducer itself runs no actions. Cost-only callers read
// the Cover's Cost and release it.
//
// The reducer is deliberately engine-independent — it reads rules through
// the small Labeling interface — which is also how the test suite verifies
// that the dynamic-programming labeler, the offline automaton and the
// on-demand automaton select identical derivations.
//
// DAG inputs are handled per Ertl (POPL '99): each (node, nonterminal)
// combination is reduced at most once; derivations from different parents
// that meet at the same combination share its step, found through a
// per-node chain of steps.
//
// The walk is iterative — an explicit enter/exit work stack instead of
// recursion, so arbitrarily deep trees cannot overflow the goroutine
// stack. A bitset indexed by node×nonterminal marks reduced combinations;
// it is the reducer's only node×nonterminal structure. The list, the walk
// state and the bitset are pooled together in the Cover, so a warm cover
// performs no allocation.
package reduce

import (
	"context"
	"fmt"
	"slices"
	"sync"

	"repro/internal/grammar"
	"repro/internal/ir"
	"repro/internal/metrics"
)

// CancelCheckInterval is the cooperative-cancellation granularity of the
// reducer: Cover polls ctx.Done() once per this many (node, nonterminal)
// visits, so a cancelled cover stops within a bounded amount of work while
// the warm uncancellable path (a background context, whose Done channel is
// nil) pays nothing. The cancellation tests assert the bound.
const CancelCheckInterval = 256

// Labeling is what a labeler must provide: the optimal first rule for
// deriving node n from nonterminal nt, or -1 if no derivation exists.
type Labeling interface {
	RuleAt(n *ir.Node, nt grammar.NT) int32
}

// Labeler is a labeling engine: the common face of the five engine
// kinds — dp.Labeler (dynamic programming at selection time, the oracle),
// automaton.Static (the burg-style offline automaton, behind both the
// static and the offline kinds), core.Engine (the paper's on-demand
// automaton) and core.Hybrid (offline tables for the fixed operators,
// on-demand for the rest). The engines differ only in how they label a
// node; everything downstream reads the Labeling. New engine kinds
// implement this interface and register a constructor with the API
// layer; nothing else in the pipeline needs to know about them.
//
// Label assigns a labeling to every node of f. Every event of the call is
// counted into m, or into the engine's own configured sink when m is nil
// (the compilation server passes a per-client sink to attribute one shared
// warm engine's work to individual clients). With workers > 1 and a
// forest of at least MinParallelSpan nodes, the automaton engines label
// topological levels across up to workers goroutines (see Levels); the
// labeling is indistinguishable from the sequential one. dp's
// whole-forest recurrence is sequential and ignores workers.
//
// Labelings come from an engine-internal pool. Ownership contract: a
// labeling returned by Label belongs to the caller; ReleaseLabeling
// transfers it back, after which the caller must not touch it (or
// anything read out of it that aliases its buffers). Releasing is
// optional — kept labelings are simply garbage collected — but a warm
// Selector.Compile releases internally, which is what makes it
// allocation-free per node.
//
// The stats methods describe the engine's automaton, when it has one:
// states materialized, transition entries tabulated or memoized, and the
// estimated table footprint. Engines without tables (dp) report zeros.
//
// Concurrency: every built-in Labeler is safe for concurrent Label calls
// on distinct forests — dp.Labeler keeps all working state per call,
// automaton.Static is immutable after generation, and core.Engine
// synchronizes its construct slow path internally (see package core).
type Labeler interface {
	Label(f *ir.Forest, m *metrics.Counters, workers int) Labeling
	LabelingRecycler
	// NumStates reports automaton states (materialized so far for the
	// on-demand engine, total for the static one, 0 for dp).
	NumStates() int
	// NumTransitions reports tabulated/memoized transition entries (0
	// for dp).
	NumTransitions() int
	// MemoryBytes estimates the engine's table footprint (0 for dp).
	MemoryBytes() int
}

// LabelingRecycler is the pool half of Labeler: ReleaseLabeling hands a
// labeling obtained from Label back so the next call reuses its buffers.
type LabelingRecycler interface {
	ReleaseLabeling(lab Labeling)
}

// Reducer walks derivations. One Reducer may cover from many goroutines
// concurrently: all per-call state lives in pooled Covers, never shared.
type Reducer struct {
	g      *grammar.Grammar
	dyn    []grammar.DynFunc
	m      *metrics.Counters
	covers sync.Pool // *Cover
}

// New creates a reducer. env is needed only to account the true cost of
// applied dynamic rules; nil is fine for fixed-cost grammars. m may be nil.
func New(g *grammar.Grammar, env grammar.DynEnv, m *metrics.Counters) (*Reducer, error) {
	dyn, err := env.Bind(g)
	if err != nil {
		return nil, err
	}
	rd := &Reducer{g: g, dyn: dyn, m: m}
	rd.covers.New = func() any { return &Cover{} }
	return rd, nil
}

// Step is one applied rule of a cover: rule Rule derived nonterminal NT
// at Node. Its premises are the steps that derived the rule's right-hand
// side — one for a chain rule, one per kid (in kid order) for a base
// rule — and their list positions are Cover.Prems[Prem:], as many as
// the step has premises.
type Step struct {
	Node *ir.Node
	NT   grammar.NT
	Rule int32
	Prem int32
	// next is 1 + the position of the previous step at Node (0: none),
	// the per-node chain a DAG-shared (node, nonterminal) is found by.
	next int32
}

// Cover is a derivation as data: every applied rule in post-order —
// bottom-up, left to right, each (node, nonterminal) combination once —
// with the list positions of each step's premises, so a consumer walks
// it linearly and finds every operand at a smaller position. Cost is the
// derivation's total, each applied rule counted once.
//
// A Cover comes from the reducer's pool and is caller-owned until handed
// back with Release; a kept Cover is simply garbage collected.
type Cover struct {
	Steps []Step
	Prems []int32
	Cost  grammar.Cost

	// Walk state, pooled with the list. stack is the explicit work stack,
	// seen the visited bitset indexed by node×nonterminal, head the
	// 1-based position of the latest step at each node (the start of its
	// chain).
	stack []coverFrame
	seen  []uint64
	head  []int32
}

// coverFrame is one entry of the explicit reduction stack. ri < 0 marks an
// enter frame (the (n, nt) combination still needs its rule resolved and
// its premises walked); ri >= 0 marks an exit frame (its premises are
// reduced — append the step of rule ri, whose premise positions start at
// Prems[prem]). dst is the Prems slot that receives the combination's
// list position, its place among its parent's premises (-1 at a root).
type coverFrame struct {
	n    *ir.Node
	nt   grammar.NT
	ri   int32
	dst  int32
	prem int32
}

// getCover returns an empty pooled cover whose walk state covers node
// indices below bound.
func (rd *Reducer) getCover(bound int) *Cover {
	c := rd.covers.Get().(*Cover)
	c.Steps, c.Prems, c.Cost = c.Steps[:0], c.Prems[:0], 0
	c.seen = zeroed(c.seen, (bound*rd.g.NumNonterms()+63)/64)
	c.head = zeroed(c.head, bound)
	return c
}

// zeroed returns s resized to n zero elements, reusing its capacity.
func zeroed[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	s = s[:n]
	clear(s)
	return s
}

// Release hands c back to the reducer's pool. The caller must not touch
// c, or slices read out of it, afterwards. The steps' node pointers are
// cleared first, so a pooled cover does not pin the last forest.
func (rd *Reducer) Release(c *Cover) {
	if c != nil {
		clear(c.Steps)
		rd.covers.Put(c)
	}
}

// Cover reduces every root of f from the grammar's start nonterminal and
// returns the selected derivation as a reduction list, its Cost summing
// each applied rule's cost exactly once (dynamic costs evaluated at the
// node). Cover fails if some root has no derivation.
func (rd *Reducer) Cover(f *ir.Forest, lab Labeling) (*Cover, error) {
	return rd.CoverContext(context.Background(), f, lab, nil)
}

// CoverContext is the full cover entry point: per-call counter
// attribution (reduction visits are counted into m instead of the
// reducer's configured sink; nil falls back to it) plus cooperative
// cancellation. The walk polls ctx.Done() once per CancelCheckInterval
// (node, nonterminal) visits and aborts with ctx.Err() — the checkpoint
// that makes a served compile of a pathological forest stop within a
// bounded number of nodes after its deadline or its client's
// disconnect. A background context costs nothing on the warm path (its
// Done channel is nil, so the poll is skipped entirely).
func (rd *Reducer) CoverContext(ctx context.Context, f *ir.Forest, lab Labeling, m *metrics.Counters) (*Cover, error) {
	if m == nil {
		m = rd.m
	}
	c := rd.getCover(len(f.Nodes))
	if err := rd.reduce(ctx, c, f.Roots, rd.g.Start, lab, m); err != nil {
		rd.Release(c)
		return nil, err
	}
	return c, nil
}

// CoverTree reduces a single node from an arbitrary goal nonterminal.
func (rd *Reducer) CoverTree(root *ir.Node, goal grammar.NT, lab Labeling) (*Cover, error) {
	// Nodes are topologically indexed, so every node reachable from root
	// has an index no larger than root's.
	c := rd.getCover(root.Index + 1)
	if err := rd.reduce(context.Background(), c, []*ir.Node{root}, goal, lab, rd.m); err != nil {
		rd.Release(c)
		return nil, err
	}
	return c, nil
}

// reduce walks the derivations of goal at each root, in order, with one
// explicit stack, appending their steps to c. Roots share the walk state
// (so derivations meeting at one combination share its step) and the
// cancellation poll counter (so many tiny trees hit the checkpoint as
// reliably as one deep tree). Entering a (node, nonterminal) combination
// resolves its rule, accounts its cost, reserves its premises' Prems
// slots, pushes an exit frame and descends straight into its first
// premise, pushing enter frames for the other kids; a leaf's step is
// appended at once. Each exit appends one step and writes its position
// into its parent's reserved slot. A combination reached again through
// another parent (DAG sharing) is found on its node's step chain.
func (rd *Reducer) reduce(ctx context.Context, c *Cover, roots []*ir.Node, goal grammar.NT, lab Labeling, m *metrics.Counters) (err error) {
	numNT := rd.g.NumNonterms()
	rules, dyn, seen, head := rd.g.Rules, rd.dyn, c.seen, c.head
	done := ctx.Done() // nil for background contexts: no polling at all
	visits := 0
	stack := c.stack[:0]
	for k := len(roots) - 1; k >= 0; k-- {
		stack = push(stack, roots[k], goal, -1, -1, 0)
	}
	steps, prems, total := c.Steps, c.Prems, c.Cost
walk:
	for len(stack) > 0 {
		fr := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if fr.ri < 0 {
			n, nt, dst := fr.n, fr.nt, fr.dst
			for {
				key := n.Index*numNT + int(nt)
				if seen[key>>6]&(1<<(key&63)) != 0 {
					// DAG sharing: this (node, nonterminal) was already
					// reduced via another parent; its cost and step are
					// accounted there.
					i := head[n.Index] - 1
					for i >= 0 && steps[i].NT != nt {
						i = steps[i].next - 1
					}
					if i < 0 {
						err = fmt.Errorf("reduce: labeling is corrupt: cyclic derivation of %s at node %d",
							rd.g.NTName(nt), n.Index)
						break walk
					}
					if dst >= 0 {
						prems[dst] = i
					}
					continue walk
				}
				seen[key>>6] |= 1 << (key & 63)
				m.CountReduce()
				if done != nil {
					if visits++; visits%CancelCheckInterval == 0 {
						select {
						case <-done:
							err = ctx.Err()
							break walk
						default:
						}
					}
				}

				ri := lab.RuleAt(n, nt)
				if ri < 0 {
					err = fmt.Errorf("reduce: no derivation of %s for operator %s at node %d",
						rd.g.NTName(nt), rd.g.OpName(n.Op), n.Index)
					break walk
				}
				r := &rules[ri]
				at := int32(len(prems))
				if r.IsChain {
					total = total.Add(r.Cost)
					prems = append(prems, 0)
					stack = push(stack, n, nt, ri, dst, at)
					nt, dst = r.ChainRHS, at
					continue
				}
				if r.Op != n.Op {
					err = fmt.Errorf("reduce: labeling is corrupt: rule %s (op %s) recorded at node with op %s",
						rd.g.RuleName(int(ri)), rd.g.OpName(r.Op), rd.g.OpName(n.Op))
					break walk
				}
				if fn := dyn[ri]; fn != nil {
					total = total.Add(fn(n))
				} else {
					total = total.Add(r.Cost)
				}
				kids := n.Kids
				if len(kids) == 0 {
					fr = coverFrame{n: n, nt: nt, ri: ri, dst: dst, prem: at}
					break
				}
				prems = slices.Grow(prems, len(kids))[:int(at)+len(kids)]
				stack = push(stack, n, nt, ri, dst, at)
				for ki := len(kids) - 1; ki > 0; ki-- {
					stack = push(stack, kids[ki], r.Kids[ki], -1, at+int32(ki), 0)
				}
				n, nt, dst = kids[0], r.Kids[0], at
			}
		}
		// Exit (or a leaf): all premises are reduced.
		i := int32(len(steps))
		steps = slices.Grow(steps, 1)[:i+1] // field stores: see push
		st := &steps[i]
		st.Node, st.NT, st.Rule, st.Prem, st.next = fr.n, fr.nt, fr.ri, fr.prem, head[fr.n.Index]
		head[fr.n.Index] = i + 1
		if fr.dst >= 0 {
			prems[fr.dst] = i
		}
	}
	// Keep grown capacity pooled, without the node pointers of popped
	// frames. The stack never held more frames than were pushed: one per
	// root and at most one per reserved premise slot.
	clear(stack[:min(cap(stack), len(roots)+len(prems))])
	c.stack, c.Steps, c.Prems, c.Cost = stack[:0], steps, prems, total
	return err
}

// push appends a frame by storing its fields into the grown slot. An
// append of a composite literal builds the frame on the goroutine stack
// and copies it back with wide loads that store forwarding cannot serve,
// a stall on every push of the walk's hottest loop.
func push(stack []coverFrame, n *ir.Node, nt grammar.NT, ri, dst, prem int32) []coverFrame {
	stack = slices.Grow(stack, 1)[:len(stack)+1]
	f := &stack[len(stack)-1]
	f.n, f.nt, f.ri, f.dst, f.prem = n, nt, ri, dst, prem
	return stack
}

// Derivation records an applied-rule trace, the flattened form the golden
// tests compare across engines.
type Derivation struct {
	Steps []Step
	Cost  grammar.Cost
}

// Trace covers f and returns the cover's steps as the derivation; the
// cover is not handed back to the pool, the derivation keeps it.
func (rd *Reducer) Trace(f *ir.Forest, lab Labeling) (*Derivation, error) {
	c, err := rd.Cover(f, lab)
	if err != nil {
		return nil, err
	}
	return &Derivation{Steps: c.Steps, Cost: c.Cost}, nil
}

// String renders a derivation compactly for diagnostics.
func (d *Derivation) String(g *grammar.Grammar) string {
	s := fmt.Sprintf("cost=%d:", d.Cost)
	for _, st := range d.Steps {
		s += fmt.Sprintf(" n%d/%s:%s", st.Node.Index, g.NTName(st.NT), g.RuleName(int(st.Rule)))
	}
	return s
}
