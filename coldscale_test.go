// Size-scaling guards for the first Compile of a large forest. Emission
// state is sized by the reduction list, so a cold compile's memory and
// work must grow linearly with the forest; an emitter that grows tables
// a few nodes at a time (or sizes them by nodes × nonterminals) shows up
// here as bytes per node climbing with every size step.
package repro_test

import (
	"context"
	"fmt"
	"runtime"
	"strings"
	"testing"

	"repro"
	"repro/internal/workload"
)

// addChain parses RET(ADD(...ADD(REG[1], CNST[0])..., CNST[k])) with adds
// ADD nodes: about 2*adds IR nodes.
func addChain(tb testing.TB, m *repro.Machine, adds int) *repro.Forest {
	tb.Helper()
	var sb strings.Builder
	sb.WriteString("RET(")
	for i := 0; i < adds; i++ {
		sb.WriteString("ADD(")
	}
	sb.WriteString("REG[1]")
	for i := 0; i < adds; i++ {
		fmt.Fprintf(&sb, ", CNST[%d])", i%7)
	}
	sb.WriteString(")")
	f, err := m.ParseTree(sb.String())
	if err != nil {
		tb.Fatal(err)
	}
	return f
}

// TestColdCompileScalesLinearly compiles ADD chains of about 2k, 8k and
// 32k nodes, each as the first Compile of a fresh x86 selector, and
// measures the bytes allocated per node (runtime.MemStats.TotalAlloc, so
// the check is deterministic and independent of CPU speed). Each 4×
// size step may raise bytes per node by at most 1.5×: linear growth
// keeps the ratio near 1, growth quadratic in the forest size makes it
// near 4.
func TestColdCompileScalesLinearly(t *testing.T) {
	m, err := repro.LoadMachine("x86")
	if err != nil {
		t.Fatal(err)
	}
	prev := 0.0
	for _, adds := range []int{1000, 4000, 16000} {
		f := addChain(t, m, adds)
		sel, err := m.NewSelector(repro.KindOnDemand, repro.Options{})
		if err != nil {
			t.Fatal(err)
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		if _, err := sel.Compile(context.Background(), f); err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&after)
		perNode := float64(after.TotalAlloc-before.TotalAlloc) / float64(f.NumNodes())
		t.Logf("%d nodes: %.0f bytes/node on the first Compile", f.NumNodes(), perNode)
		if prev > 0 && perNode > 1.5*prev {
			t.Errorf("%d nodes: %.0f bytes/node, more than 1.5x the %.0f of a 4x smaller forest: cold Compile grows superlinearly",
				f.NumNodes(), perNode, prev)
		}
		prev = perNode
	}
}

// BenchmarkCompileSmallAfterLarge compiles a warm corpus forest on a
// selector whose pooled state has already served a 32k-node forest: the
// small compile must not pay for the large one's size.
func BenchmarkCompileSmallAfterLarge(b *testing.B) {
	m, err := repro.LoadMachine("x86")
	if err != nil {
		b.Fatal(err)
	}
	sel, err := m.NewSelector(repro.KindOnDemand, repro.Options{})
	if err != nil {
		b.Fatal(err)
	}
	ctx := context.Background()
	var fs []*repro.Forest
	for _, c := range workload.MustCompileAll(m.Grammar) {
		fs = append(fs, c.Forests()...)
	}
	for _, f := range fs {
		if _, err := sel.Compile(ctx, f); err != nil {
			b.Fatal(err)
		}
	}
	if _, err := sel.Compile(ctx, addChain(b, m, 16000)); err != nil {
		b.Fatal(err)
	}
	small := fs[len(fs)/2]
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sel.Compile(ctx, small); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*small.NumNodes()), "ns/node")
}
