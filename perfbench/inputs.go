package main

import (
	"fmt"
	"math"
	"math/rand/v2"
	"sort"
	"strings"
	"time"

	"repro"
	"repro/internal/workload"
)

// Every random choice of the benchmark comes from a PCG stream keyed by
// the run's --seed and a fixed per-purpose stream id, so one seed always
// yields the same inputs and two purposes never share draws.
const (
	streamSchedule = iota + 1
	streamPicks
	streamLibMix
	streamBigFunc
)

func newRand(seed uint64, stream uint64) *rand.Rand {
	return rand.New(rand.NewPCG(seed, stream))
}

// poissonSchedule returns the send offsets of an open loop: Poisson
// arrivals (independent users) at rate per second over dur, in order.
func poissonSchedule(rng *rand.Rand, rate float64, dur time.Duration) []time.Duration {
	var out []time.Duration
	t := 0.0
	limit := dur.Seconds()
	for {
		t += rng.ExpFloat64() / rate
		if t >= limit {
			return out
		}
		out = append(out, time.Duration(t*float64(time.Second)))
	}
}

// servedMachines are the machine descriptions every workload serves: x86
// has the largest grammar (84 nonterminals, dynamic-cost rules), jit64 a
// small fixed-operator-heavy one.
var servedMachines = []string{"x86", "jit64"}

// deck deals indexes 0..n-1 in seeded random order, reshuffling once
// every index has been dealt: any run of draws then holds every index
// almost equally often, so two seeds differ in order, not in mix.
type deck struct {
	rng  *rand.Rand
	n    int
	left []int
}

func newDeck(rng *rand.Rand, n int) *deck { return &deck{rng: rng, n: n} }

func (d *deck) next() int {
	if len(d.left) == 0 {
		d.left = d.rng.Perm(d.n)
	}
	v := d.left[0]
	d.left = d.left[1:]
	return v
}

// deal draws count indexes from a fresh deck of n.
func deal(rng *rand.Rand, n, count int) []int {
	d := newDeck(rng, n)
	out := make([]int, count)
	for i := range out {
		out[i] = d.next()
	}
	return out
}

// Size bands of bigfunc_lib's generated functions, in IR nodes.
const (
	bigMinNodes = 1000
	bigMaxNodes = 2000
	// bigEvery is the spacing of generated functions in the mix.
	bigEvery = 20
	// bigStrata is how many size slices the band is stratified into.
	bigStrata = 10
)

// libItem is one CompileUnit call of the bigfunc_lib stream.
type libItem struct {
	Machine int
	Unit    *repro.Unit
	Key     string // input identity for the oracle and the asm digest
	Nodes   int
	Big     bool
}

// libStream builds bigfunc_lib's seeded call stream of n units: corpus
// units dealt from a deck of every (machine, program) pair, and closing
// every block of bigEvery units one generated straight-line function. The
// generated functions alternate machines and their sizes
// are stratified over the band (each run of bigStrata functions draws
// once from each of bigStrata equal log-size slices, in random order), so
// every seed gets the same size mix with different functions.
func libStream(seed uint64, machines []*repro.Machine, corpus [][]*workload.Compiled, n int) ([]libItem, error) {
	mix := newRand(seed, streamLibMix)
	gen := newRand(seed, streamBigFunc)
	lo, hi := math.Log(bigMinNodes*1.1), math.Log(bigMaxNodes*0.9)
	firstMachine := mix.IntN(len(machines))
	var strata []int
	units := newDeck(mix, len(machines)*len(corpus[0]))
	out := make([]libItem, 0, n)
	for block := 0; len(out) < n; block++ {
		for k := 0; k < bigEvery && len(out) < n; k++ {
			if k != bigEvery-1 {
				pick := units.next()
				mi := pick / len(corpus[0])
				c := corpus[mi][pick%len(corpus[0])]
				out = append(out, libItem{Machine: mi, Unit: c.Unit, Key: machines[mi].Name + "/minc/" + c.Program.Name, Nodes: c.NumNodes()})
				continue
			}
			if len(strata) == 0 {
				strata = mix.Perm(bigStrata)
			}
			u := (float64(strata[0]) + mix.Float64()) / bigStrata
			strata = strata[1:]
			target := int(math.Exp(lo + u*(hi-lo)))
			mi := (firstMachine + block) % len(machines)
			name := fmt.Sprintf("big%d", len(out))
			src := bigFuncSource(gen, name, target)
			unit, err := machines[mi].CompileMinC(src)
			if err != nil {
				return nil, fmt.Errorf("generated function %s: %w", name, err)
			}
			out = append(out, libItem{Machine: mi, Unit: unit, Key: machines[mi].Name + "/gen/" + digest(src), Nodes: unit.TotalNodes(), Big: true})
		}
	}
	return out, nil
}

// bigFuncSource writes one straight-line arithmetic MinC function whose
// lowered forest has roughly target IR nodes: assignments of random
// expressions over locals, parameters, constants of every immediate
// range and a global array, with compound assignments supplying the
// read-modify-write DAG edges the memop rules match.
func bigFuncSource(rng *rand.Rand, name string, target int) string {
	const locals = 12
	var b strings.Builder
	fmt.Fprintf(&b, "int g_%s[64];\nint %s(int a, int b, int c) {\n", name, name)
	nodes := 0
	for i := 0; i < locals; i++ {
		fmt.Fprintf(&b, "\tint v%d = %s;\n", i, []string{"a", "b", "c"}[i%3])
		nodes += 5 // STORE(ADDRL, LOAD(ADDRL)) plus the parameter spill
	}
	for nodes < target {
		var e strings.Builder
		cost := genExpr(rng, &e, 2+rng.IntN(4), name)
		switch k := rng.IntN(10); {
		case k < 6:
			fmt.Fprintf(&b, "\tv%d = %s;\n", rng.IntN(locals), e.String())
			nodes += cost + 2
		case k < 8:
			fmt.Fprintf(&b, "\tv%d %s= %s;\n", rng.IntN(locals), []string{"+", "-", "&", "|", "^"}[rng.IntN(5)], e.String())
			nodes += cost + 4
		default:
			fmt.Fprintf(&b, "\tg_%s[%d] = %s;\n", name, rng.IntN(64), e.String())
			nodes += cost + 3
		}
	}
	fmt.Fprintf(&b, "\treturn v0 + v%d;\n}\n", locals-1)
	return b.String()
}

// genExpr writes a random expression of at most depth levels and returns
// an estimate of the IR nodes it lowers to.
func genExpr(rng *rand.Rand, b *strings.Builder, depth int, name string) int {
	if depth == 0 || rng.IntN(4) == 0 {
		switch k := rng.IntN(10); {
		case k < 6:
			fmt.Fprintf(b, "v%d", rng.IntN(12))
			return 2 // LOAD(ADDRL)
		case k < 8:
			// Constants straddling the 8-, 16- and 32-bit immediate ranges.
			fmt.Fprintf(b, "%d", []int64{1, 3, 8, 100, 1000, 40000, 1 << 20, 5000000000}[rng.IntN(8)])
			return 1
		default:
			fmt.Fprintf(b, "g_%s[v%d]", name, rng.IntN(12))
			return 6 // LOAD(ADD(ADDRG, SHL(LOAD(ADDRL), CNST)))
		}
	}
	op := []string{"+", "-", "*", "/", "&", "|", "^", "<<", ">>", "+", "-", "*"}[rng.IntN(12)]
	b.WriteByte('(')
	n := genExpr(rng, b, depth-1, name)
	b.WriteString(" " + op + " ")
	n += genExpr(rng, b, depth-1, name)
	b.WriteByte(')')
	return n + 1
}

// percentile returns the q-quantile (0..1) of sorted by the
// nearest-rank method; 0 for an empty sample.
func percentile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(q*float64(len(sorted)))) - 1
	if i < 0 {
		i = 0
	}
	return sorted[i]
}

// median sorts a copy of xs and returns its middle value.
func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// latencySummary is the distribution of one sample of latencies.
type latencySummary struct {
	N   int     `json:"n"`
	P50 float64 `json:"p50_ms"`
	P99 float64 `json:"p99_ms"`
	Max float64 `json:"max_ms"`
}

func summarize(ms []float64) latencySummary {
	s := append([]float64(nil), ms...)
	sort.Float64s(s)
	out := latencySummary{N: len(s), P50: percentile(s, 0.5), P99: percentile(s, 0.99)}
	if len(s) > 0 {
		out.Max = s[len(s)-1]
	}
	return out
}
