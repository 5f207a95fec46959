package workload

import (
	"testing"

	"repro/internal/core"
	"repro/internal/dp"
	"repro/internal/ir"
	"repro/internal/md"
	"repro/internal/reduce"
)

func TestCorpusCompilesOnAllGrammars(t *testing.T) {
	for _, name := range md.Names() {
		if name == "demo" {
			continue // the running example lacks the generic operators
		}
		t.Run(name, func(t *testing.T) {
			d := md.MustLoad(name)
			cs, err := CompileAll(d.Grammar)
			if err != nil {
				t.Fatal(err)
			}
			if len(cs) != len(programs) {
				t.Fatalf("compiled %d of %d programs", len(cs), len(programs))
			}
			total := 0
			for _, c := range cs {
				if c.NumNodes() < 20 {
					t.Errorf("%s: suspiciously small (%d nodes)", c.Program.Name, c.NumNodes())
				}
				total += c.NumNodes()
				for _, f := range c.Forests() {
					if err := ir.CheckTopo(f); err != nil {
						t.Fatalf("%s: %v", c.Program.Name, err)
					}
				}
			}
			t.Logf("%s corpus: %d programs, %d IR nodes", name, len(cs), total)
		})
	}
}

// TestCorpusFullySelectable: every statement of every program must be
// coverable from the start nonterminal on every grammar, by both engines,
// with identical derivations — the corpus-level end-to-end check.
func TestCorpusFullySelectable(t *testing.T) {
	for _, name := range []string{"x86", "mips", "sparc", "alpha", "jit64"} {
		t.Run(name, func(t *testing.T) {
			d := md.MustLoad(name)
			g := d.Grammar
			l, err := dp.New(g, d.Env, nil)
			if err != nil {
				t.Fatal(err)
			}
			e, err := core.New(g, d.Env, core.Config{})
			if err != nil {
				t.Fatal(err)
			}
			rd, err := reduce.New(g, d.Env, nil)
			if err != nil {
				t.Fatal(err)
			}
			for _, c := range MustCompileAll(g) {
				for _, f := range c.Forests() {
					want, err := rd.Trace(f, l.Label(f, nil, 0))
					if err != nil {
						t.Fatalf("%s: dp cover: %v", c.Program.Name, err)
					}
					got, err := rd.Trace(f, e.Label(f, nil, 0))
					if err != nil {
						t.Fatalf("%s: od cover: %v", c.Program.Name, err)
					}
					if want.String(g) != got.String(g) {
						t.Fatalf("%s: derivations differ", c.Program.Name)
					}
					if want.Cost <= 0 {
						t.Errorf("%s: non-positive cost %d", c.Program.Name, want.Cost)
					}
				}
			}
		})
	}
}

func TestGetAndNames(t *testing.T) {
	names := Names()
	if len(names) != len(programs) {
		t.Fatal("Names length mismatch")
	}
	p, err := Get("fact")
	if err != nil || p.Name != "fact" {
		t.Errorf("Get(fact) = %v, %v", p.Name, err)
	}
	if _, err := Get("nope"); err == nil {
		t.Error("expected error for unknown program")
	}
	if len(All()) != len(programs) {
		t.Error("All length mismatch")
	}
}

func TestOpMix(t *testing.T) {
	d := md.MustLoad("x86")
	cs := MustCompileAll(d.Grammar)
	mix := OpMix(d.Grammar, cs)
	if len(mix) < 10 {
		t.Errorf("op mix too small: %v", mix)
	}
	t.Logf("x86 corpus op mix: %v", mix)
}
