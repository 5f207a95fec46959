package automaton

import (
	"cmp"
	"fmt"
	"sync"

	"repro/internal/grammar"
	"repro/internal/ir"
	"repro/internal/metrics"
	"repro/internal/reduce"
)

// Static is an offline-generated tree-parsing automaton, the burg
// equivalent and Baseline 2 of the reproduction: all states and transitions
// are computed ahead of time, labeling is pure table lookup, and dynamic
// costs are impossible.
//
// Table compression follows Chase/Proebsting index maps: child states are
// projected, per operator and child position, onto "representer" classes
// (only the costs of the nonterminals that the operator's rules actually
// use at that position matter), and transition tables are indexed by
// representer ids instead of state ids.
//
// Static implements reduce.Labeler. All tables are immutable after
// Generate, so one automaton may label from any number of goroutines
// concurrently; only SetMetrics must not race with labeling.
type Static struct {
	g        *grammar.Grammar
	table    *Table
	states   []*State // table snapshot, frozen at generation time
	m        *metrics.Counters
	deltaCap grammar.Cost
	labels   sync.Pool // *Labeling, recycled across Label calls

	leaf []int32 // [op] -> state id for arity-0 ops; -1 otherwise

	// mu[op][p][stateID] -> representer id at child position p of op.
	mu [][2][]int32
	// nreps[op][p] is the number of representer classes at (op, p).
	nreps [][2]int32
	// t1[op][rep0] -> state id (unary ops).
	t1 [][]int32
	// t2[op][rep0*nreps[op][1]+rep1] -> state id (binary ops).
	t2 [][]int32

	// Expanded direct-lookup tables (see Expand): dir1[op][kidState] and
	// dir2[op][l*numStates+r] hold state ids indexed by child state ids
	// directly, removing the two projection loads per node that the
	// Chase-compressed form costs. nil until Expand; labeling uses them
	// when present.
	dir1 [][]int32
	dir2 [][]int32

	// Gen holds generation statistics.
	Gen GenStats
}

// Expand decompresses the transition tables into direct state-id-indexed
// arrays — the classic space-for-time move: a binary transition becomes
// one flat row-major load (like the on-demand engine's dense grids, minus
// the atomics) instead of two representer projections plus a compressed
// lookup. Memory grows from O(reps²) to O(states²) per binary operator,
// which MemoryBytes reports honestly.
//
// The offline serving path (tables loaded from an iselgen blob) expands
// at load time: a long-lived server trades kilobytes for the fastest
// possible per-node lookup. The generate-time static engine keeps the
// compressed form — it is the burg-style baseline the experiments
// describe. Call before the automaton is shared; not concurrency-safe.
//
// Expansion is bounded: past ExpandMaxStates the quadratic grids stop
// being a kilobyte trade (and an untrusted blob header must not be able
// to demand them), so huge automata keep labeling through the compressed
// tables.
func (a *Static) Expand() {
	if a.dir1 != nil || len(a.states) > ExpandMaxStates {
		return
	}
	n := len(a.states)
	a.dir1 = make([][]int32, len(a.t1))
	a.dir2 = make([][]int32, len(a.t2))
	for op := range a.mu {
		switch a.g.Ops[op].Arity {
		case 1:
			row := make([]int32, n)
			mu0 := a.mu[op][0]
			for kid := 0; kid < n; kid++ {
				row[kid] = a.t1[op][mu0[kid]]
			}
			a.dir1[op] = row
		case 2:
			grid := make([]int32, n*n)
			mu0, mu1 := a.mu[op][0], a.mu[op][1]
			n1 := a.nreps[op][1]
			for l := 0; l < n; l++ {
				r0 := mu0[l] * n1
				for r := 0; r < n; r++ {
					grid[l*n+r] = a.t2[op][r0+mu1[r]]
				}
			}
			a.dir2[op] = grid
		}
	}
	a.Gen.TableBytes = a.MemoryBytes()
}

// ExpandBytes reports the bytes the direct-lookup arrays of Expand cost
// on top of the compressed tables: 4·states per unary operator and
// 4·states² per binary one — exactly what MemoryBytes grows by after
// expansion. It returns 0 when the automaton is past ExpandMaxStates
// (Expand refuses the trade there), so compact-plus-ExpandBytes is
// always the true serving footprint of the preloaded offline engine,
// which expands at load time. Offline table accounting was previously
// reported pre-expansion only, understating served memory by the
// quadratic grids.
func (a *Static) ExpandBytes() int {
	if len(a.states) > ExpandMaxStates {
		return 0
	}
	n := len(a.states)
	b := 0
	for op := range a.mu {
		switch a.g.Ops[op].Arity {
		case 1:
			b += 4 * n
		case 2:
			b += 4 * n * n
		}
	}
	return b
}

// GenStats summarizes offline generation.
type GenStats struct {
	States              int
	Representers        int
	TransitionsComputed int
	TableBytes          int
}

// StaticConfig tunes offline generation.
type StaticConfig struct {
	// DeltaCap bounds relative costs (DefaultDeltaCap if zero).
	DeltaCap grammar.Cost
	// MaxStates aborts generation when exceeded (1<<20 if zero); a safety
	// valve against pathological grammars. An exceeded bound fails with a
	// *TruncatedError carrying the closure diagnostics.
	MaxStates int
	// Metrics receives generation-time event counts (may be nil).
	Metrics *metrics.Counters
}

// ExpandMaxStates bounds direct-table expansion: each binary operator's
// expanded grid is states² × 4 bytes, so 4096 states cost 64 MB per
// operator — the point past which the space-for-time trade stops paying
// and a crafted blob could otherwise demand terabytes. Larger automata
// label through the compressed representer tables instead.
const ExpandMaxStates = 4096

// TruncatedError reports a closure that was pruned by StaticConfig
// MaxStates before reaching its fixpoint: the grammar's state space (or
// the configured budget) is too small to tabulate offline. It carries the
// diagnostics the ahead-of-time generator's -stats report prints, so an
// operator can see how far generation got before the cap.
type TruncatedError struct {
	Grammar string
	// MaxStates is the configured bound; States is how many states had
	// been interned when it tripped (States > MaxStates by exactly the
	// state whose creation overflowed).
	MaxStates int
	States    int
	// Transitions counts transition computations completed before the cut;
	// PendingWork is the representer work-queue length at the cut — the
	// closure work that was abandoned.
	Transitions int
	PendingWork int
}

func (e *TruncatedError) Error() string {
	return fmt.Sprintf("automaton: grammar %s exceeds %d states (closure pruned at %d states, %d transitions computed, %d work items pending); the grammar lacks the chain-rule structure that bounds relative costs",
		e.Grammar, e.MaxStates, e.States, e.Transitions, e.PendingWork)
}

// Generate builds the full automaton for g. It fails for grammars with
// dynamic-cost rules — precisely the limitation of offline tree-parsing
// automata that motivates on-demand construction; strip the rules first
// (grammar.StripDynamic) to tabulate the fixed-cost subset.
func Generate(g *grammar.Grammar, cfg StaticConfig) (*Static, error) {
	if g.HasAnyDynRules() {
		return nil, fmt.Errorf("automaton: grammar %s has dynamic-cost rules; offline generation is impossible (use the on-demand engine or StripDynamic)", g.Name)
	}
	if cfg.DeltaCap == 0 {
		cfg.DeltaCap = DefaultDeltaCap
	}
	if cfg.MaxStates == 0 {
		cfg.MaxStates = 1 << 20
	}
	gen := newGenerator(g, cfg, false)
	if err := gen.run(); err != nil {
		return nil, err
	}
	a := gen.finish()
	a.m = cfg.Metrics
	return a, nil
}

// ---------------------------------------------------------------------------
// Generation

type repSpace struct {
	// relevant lists the nonterminals whose child costs the operator's
	// rules read at this position, in ascending order.
	relevant []grammar.NT
	// index maps projection keys to representer ids.
	index map[string]int32
	// repOf[stateID] is the state's representer id.
	repOf []int32
	// sample[rep] is a state with that projection, used to compute
	// transitions for the whole class.
	sample []*State
}

type workItem struct {
	op  grammar.OpID
	pos int
	rep int32
}

type generator struct {
	g     *grammar.Grammar
	cfg   StaticConfig
	table *Table
	leaf  []int32
	reps  [][2]*repSpace // [op][pos]; nil where arity doesn't reach pos
	// trans[op] collects transitions during generation, keyed by
	// rep0<<32|rep1 (rep1=0 for unary ops).
	trans []map[uint64]int32
	queue []workItem
	nTr   int
	// fixedOnly restricts the closure to the fixed operators (operators
	// without dynamic rules): the hybrid engine's offline half. Dynamic
	// operators are seeded, projected and transitioned nowhere — their
	// states are constructed on demand at serve time.
	fixedOnly bool
}

func newGenerator(g *grammar.Grammar, cfg StaticConfig, fixedOnly bool) *generator {
	gen := &generator{
		g:         g,
		cfg:       cfg,
		table:     NewTable(g),
		leaf:      make([]int32, g.NumOps()),
		reps:      make([][2]*repSpace, g.NumOps()),
		trans:     make([]map[uint64]int32, g.NumOps()),
		fixedOnly: fixedOnly,
	}
	for op := 0; op < g.NumOps(); op++ {
		gen.leaf[op] = -1
		arity := g.Ops[op].Arity
		if arity == 0 || gen.skip(grammar.OpID(op)) {
			continue
		}
		gen.trans[op] = map[uint64]int32{}
		for p := 0; p < arity; p++ {
			gen.reps[op][p] = newRepSpace(g, grammar.OpID(op), p)
		}
	}
	return gen
}

// skip reports whether the closure excludes op: in fixed-subset mode,
// every operator with at least one dynamic-cost base rule goes entirely
// through the serve-time on-demand path (a dynamic operator's state
// depends on evaluated costs, so no single offline entry could be right).
func (gen *generator) skip(op grammar.OpID) bool {
	return gen.fixedOnly && gen.g.HasDynRules(op)
}

func newRepSpace(g *grammar.Grammar, op grammar.OpID, pos int) *repSpace {
	seen := map[grammar.NT]bool{}
	var rel []grammar.NT
	for _, ri := range g.BaseRules(op) {
		nt := g.Rules[ri].Kids[pos]
		if !seen[nt] {
			seen[nt] = true
			rel = append(rel, nt)
		}
	}
	// Ascending order makes projection keys canonical.
	for i := 1; i < len(rel); i++ {
		for j := i; j > 0 && rel[j] < rel[j-1]; j-- {
			rel[j], rel[j-1] = rel[j-1], rel[j]
		}
	}
	return &repSpace{relevant: rel, index: map[string]int32{}}
}

// project computes the representer id of s at (op, pos), creating a new
// class if the projection is new. It returns (rep, created).
func (rs *repSpace) project(s *State) (int32, bool) {
	key := projKey(s, rs.relevant)
	if rep, ok := rs.index[key]; ok {
		rs.repOf[s.ID] = rep
		return rep, false
	}
	rep := int32(len(rs.sample))
	rs.index[key] = rep
	rs.sample = append(rs.sample, s)
	rs.repOf[s.ID] = rep
	return rep, true
}

// projKey normalizes the relevant cost sub-vector: subtract its minimum so
// that states differing only by a uniform shift land in one class.
func projKey(s *State, relevant []grammar.NT) string {
	if len(relevant) == 0 {
		return ""
	}
	min := grammar.Inf
	for _, nt := range relevant {
		if s.Delta[nt] < min {
			min = s.Delta[nt]
		}
	}
	buf := make([]byte, 0, 5*len(relevant))
	for _, nt := range relevant {
		d := s.Delta[nt]
		if !d.IsInf() && !min.IsInf() {
			d -= min
		}
		buf = append(buf, byte(d), byte(d>>8), byte(d>>16), byte(d>>24), '|')
	}
	return string(buf)
}

func (gen *generator) run() error {
	// Seed with the leaf-operator states.
	for op := 0; op < gen.g.NumOps(); op++ {
		if gen.g.Ops[op].Arity != 0 || gen.skip(grammar.OpID(op)) {
			continue
		}
		delta, rule := Compute(gen.g, grammar.OpID(op), nil, nil, gen.cfg.DeltaCap, gen.cfg.Metrics)
		s, created := gen.table.Intern(delta, rule, gen.cfg.Metrics)
		gen.leaf[op] = s.ID
		if created {
			gen.addState(s)
		}
	}
	for len(gen.queue) > 0 {
		item := gen.queue[len(gen.queue)-1]
		gen.queue = gen.queue[:len(gen.queue)-1]
		if err := gen.expand(item); err != nil {
			return err
		}
	}
	return nil
}

// addState registers a newly interned state with every representer space
// and queues the transition computations its new classes require.
func (gen *generator) addState(s *State) {
	for op := 0; op < gen.g.NumOps(); op++ {
		arity := gen.g.Ops[op].Arity
		if arity > 0 && gen.reps[op][0] == nil {
			continue // excluded from the closure (fixed-subset mode)
		}
		for p := 0; p < arity; p++ {
			rs := gen.reps[op][p]
			rs.repOf = append(rs.repOf, -1)
			if rep, created := rs.project(s); created {
				gen.queue = append(gen.queue, workItem{grammar.OpID(op), p, rep})
			}
		}
	}
}

// expand computes all transitions that involve a new representer class.
func (gen *generator) expand(item workItem) error {
	g := gen.g
	op := item.op
	arity := g.Ops[op].Arity
	if arity == 1 {
		return gen.transition(op, item.rep, 0)
	}
	// Binary: pair the new class with every class at the other position.
	if item.pos == 0 {
		for r1 := int32(0); r1 < int32(len(gen.reps[op][1].sample)); r1++ {
			if err := gen.transition(op, item.rep, r1); err != nil {
				return err
			}
		}
	} else {
		for r0 := int32(0); r0 < int32(len(gen.reps[op][0].sample)); r0++ {
			if err := gen.transition(op, r0, item.rep); err != nil {
				return err
			}
		}
	}
	return nil
}

func (gen *generator) transition(op grammar.OpID, rep0, rep1 int32) error {
	key := uint64(rep0)<<32 | uint64(uint32(rep1))
	if _, done := gen.trans[op][key]; done {
		return nil
	}
	g := gen.g
	var kids []*State
	if g.Ops[op].Arity == 1 {
		kids = []*State{gen.reps[op][0].sample[rep0]}
	} else {
		kids = []*State{gen.reps[op][0].sample[rep0], gen.reps[op][1].sample[rep1]}
	}
	delta, rule := Compute(g, op, kids, nil, gen.cfg.DeltaCap, gen.cfg.Metrics)
	s, created := gen.table.Intern(delta, rule, gen.cfg.Metrics)
	gen.trans[op][key] = s.ID
	gen.nTr++
	gen.cfg.Metrics.CountTransition()
	if created {
		if gen.table.Len() > gen.cfg.MaxStates {
			return &TruncatedError{
				Grammar:     g.Name,
				MaxStates:   gen.cfg.MaxStates,
				States:      gen.table.Len(),
				Transitions: gen.nTr,
				PendingWork: len(gen.queue),
			}
		}
		gen.addState(s)
	}
	return nil
}

// finish flattens the generation structures into dense lookup tables.
func (gen *generator) finish() *Static {
	g := gen.g
	a := &Static{
		g:        g,
		table:    gen.table,
		states:   gen.table.States(),
		deltaCap: gen.cfg.DeltaCap,
		leaf:     gen.leaf,
		mu:       make([][2][]int32, g.NumOps()),
		nreps:    make([][2]int32, g.NumOps()),
		t1:       make([][]int32, g.NumOps()),
		t2:       make([][]int32, g.NumOps()),
	}
	a.labels.New = func() any { return &Labeling{} }
	totalReps := 0
	for op := 0; op < g.NumOps(); op++ {
		arity := g.Ops[op].Arity
		if arity == 0 {
			continue
		}
		for p := 0; p < arity; p++ {
			rs := gen.reps[op][p]
			a.mu[op][p] = rs.repOf
			a.nreps[op][p] = int32(len(rs.sample))
			totalReps += len(rs.sample)
		}
		if arity == 1 {
			t := make([]int32, a.nreps[op][0])
			for key, sid := range gen.trans[op] {
				t[int32(key>>32)] = sid
			}
			a.t1[op] = t
		} else {
			n1 := a.nreps[op][1]
			t := make([]int32, a.nreps[op][0]*n1)
			for key, sid := range gen.trans[op] {
				r0 := int32(key >> 32)
				r1 := int32(uint32(key))
				t[r0*n1+r1] = sid
			}
			a.t2[op] = t
		}
	}
	a.Gen = GenStats{
		States:              gen.table.Len(),
		Representers:        totalReps,
		TransitionsComputed: gen.nTr,
		TableBytes:          a.MemoryBytes(),
	}
	return a
}

// ---------------------------------------------------------------------------
// Labeling with the generated automaton

// Grammar returns the automaton's grammar.
func (a *Static) Grammar() *grammar.Grammar { return a.g }

// Table returns the automaton's state table.
func (a *Static) Table() *Table { return a.table }

// SetMetrics swaps the automaton's labeling counter sink (nil disables
// instrumenting). Not safe to call concurrently with labeling.
func (a *Static) SetMetrics(m *metrics.Counters) { a.m = m }

// NumStates returns the number of states.
func (a *Static) NumStates() int { return a.table.Len() }

// NumTransitions returns the number of (compressed) transition entries.
func (a *Static) NumTransitions() int {
	n := 0
	for op := range a.t1 {
		n += len(a.t1[op]) + len(a.t2[op])
	}
	return n
}

// MemoryBytes estimates the automaton's total table footprint: states,
// index maps, transition tables, and — when expanded — the direct-lookup
// arrays.
func (a *Static) MemoryBytes() int {
	b := a.table.MemoryBytes()
	for op := range a.mu {
		b += 4 * (len(a.mu[op][0]) + len(a.mu[op][1]))
		b += 4 * (len(a.t1[op]) + len(a.t2[op]))
	}
	for op := range a.dir1 {
		b += 4 * (len(a.dir1[op]) + len(a.dir2[op]))
	}
	return b
}

// Label implements reduce.Labeler: it assigns a state to every node of f
// by pure table lookup — the offline automaton's fast path — and returns a
// *Labeling from the automaton's pool. Events are counted into m, or into
// the sink configured at generation (StaticConfig.Metrics) or via
// SetMetrics when m is nil. The whole pass works on dense state ids — the
// representer projections are already id-indexed, so no state pointer is
// touched until the reducer resolves one.
//
// With workers > 1 and a forest of at least reduce.MinParallelSpan nodes,
// topological levels are labeled across up to workers goroutines. The
// tables are immutable after generation, so per-node labeling from many
// goroutines needs no synchronization at all — the only ordering
// requirement is child-before-parent, which the level barrier provides.
func (a *Static) Label(f *ir.Forest, m *metrics.Counters, workers int) reduce.Labeling {
	// sink is assigned once, so the level-parallel closure copies it instead
	// of moving it to the heap on every call.
	sink := cmp.Or(m, a.m)
	lab := a.labels.Get().(*Labeling)
	ids := lab.Reuse(len(f.Nodes))
	switch {
	case workers > 1 && len(f.Nodes) >= reduce.MinParallelSpan:
		reduce.LabelLevels(f, workers, func(idx int32) {
			sink.CountNode()
			sink.CountProbe(false)
			ids[idx] = a.labelNode(f.Nodes[idx], ids)
		})
	case a.dir1 != nil:
		// Expanded direct tables: one flat load per node, no projections.
		// Index arithmetic is int: an int32 product would wrap for state
		// counts past √2³¹ (Expand's bound keeps us far below, but the
		// index math must not be what relies on that).
		stride := len(a.states)
		for i, n := range f.Nodes {
			sink.CountNode()
			sink.CountProbe(false)
			op := n.Op
			switch len(n.Kids) {
			case 0:
				ids[i] = a.leaf[op]
			case 1:
				ids[i] = a.dir1[op][ids[n.Kids[0].Index]]
			default:
				ids[i] = a.dir2[op][int(ids[n.Kids[0].Index])*stride+int(ids[n.Kids[1].Index])]
			}
		}
	default:
		for i, n := range f.Nodes {
			sink.CountNode()
			sink.CountProbe(false)
			op := n.Op
			switch len(n.Kids) {
			case 0:
				ids[i] = a.leaf[op]
			case 1:
				rep := a.mu[op][0][ids[n.Kids[0].Index]]
				ids[i] = a.t1[op][rep]
			default:
				r0 := a.mu[op][0][ids[n.Kids[0].Index]]
				r1 := a.mu[op][1][ids[n.Kids[1].Index]]
				ids[i] = a.t2[op][r0*a.nreps[op][1]+r1]
			}
		}
	}
	lab.BindStates(a.states)
	return lab
}

// labelNode is one node's table lookup from its children's state ids —
// the per-node step of Label's level-parallel path, through the expanded
// direct tables when present and the compressed ones otherwise. (The
// sequential loops inline the same lookups.)
func (a *Static) labelNode(n *ir.Node, ids []int32) int32 {
	op := n.Op
	switch len(n.Kids) {
	case 0:
		return a.leaf[op]
	case 1:
		k := ids[n.Kids[0].Index]
		if a.dir1 != nil {
			return a.dir1[op][k]
		}
		return a.t1[op][a.mu[op][0][k]]
	default:
		l, r := ids[n.Kids[0].Index], ids[n.Kids[1].Index]
		if a.dir1 != nil {
			return a.dir2[op][int(l)*len(a.states)+int(r)]
		}
		return a.t2[op][a.mu[op][0][l]*a.nreps[op][1]+a.mu[op][1][r]]
	}
}

// ReleaseLabeling implements reduce.LabelingRecycler: it returns a
// labeling obtained from this automaton to the pool. The labeling must
// not be used afterwards.
func (a *Static) ReleaseLabeling(lab reduce.Labeling) {
	if l, ok := lab.(*Labeling); ok && l != nil {
		a.labels.Put(l)
	}
}
