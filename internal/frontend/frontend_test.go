package frontend

import (
	"strings"
	"testing"

	"repro/internal/dp"
	"repro/internal/ir"
	"repro/internal/md"
	"repro/internal/reduce"
)

func TestLexBasics(t *testing.T) {
	l := NewLexer("int x = 42; // comment\nx <<= 3; /* block\ncomment */ y != z")
	var kinds []Kind
	var texts []string
	for {
		tok, err := l.Next()
		if err != nil {
			t.Fatal(err)
		}
		if tok.Kind == EOF {
			break
		}
		kinds = append(kinds, tok.Kind)
		texts = append(texts, tok.Text)
	}
	want := []string{"int", "x", "=", "42", ";", "x", "<<=", "3", ";", "y", "!=", "z"}
	if len(texts) != len(want) {
		t.Fatalf("tokens = %v, want %v", texts, want)
	}
	for i := range want {
		if texts[i] != want[i] {
			t.Errorf("token[%d] = %q, want %q", i, texts[i], want[i])
		}
	}
	if kinds[0] != KEYWORD || kinds[1] != IDENT || kinds[3] != NUMBER {
		t.Errorf("kinds wrong: %v", kinds)
	}
}

func TestLexUnterminatedComment(t *testing.T) {
	l := NewLexer("/* never ends")
	if _, err := l.Next(); err == nil {
		t.Error("expected error")
	}
}

func TestParseSimpleProgram(t *testing.T) {
	prog := MustParse(`
int g;
int arr[10];
int add(int a, int b) { return a + b; }
int main() {
	int x = add(1, 2);
	if (x > 2) { g = x; } else { g = 0; }
	while (x < 10) { x += 1; }
	for (x = 0; x < 5; x += 1) { arr[x] = x; }
	return g;
}
`)
	if len(prog.Globals) != 2 || len(prog.Funcs) != 2 {
		t.Fatalf("globals=%d funcs=%d", len(prog.Globals), len(prog.Funcs))
	}
	if prog.Globals[1].Size != 10 {
		t.Errorf("array size = %d", prog.Globals[1].Size)
	}
	if got := prog.Funcs[0].Params; len(got) != 2 || got[0] != "a" {
		t.Errorf("params = %v", got)
	}
	if len(prog.Funcs[1].Body) != 5 {
		t.Errorf("main body stmts = %d, want 5", len(prog.Funcs[1].Body))
	}
}

func TestParsePrecedence(t *testing.T) {
	prog := MustParse(`int f() { return 1 + 2 * 3 << 1 & 7; }`)
	ret := prog.Funcs[0].Body[0].(*ReturnStmt)
	// & binds loosest: (((1 + (2*3)) << 1) & 7)
	and, ok := ret.Value.(*BinExpr)
	if !ok || and.Op != "&" {
		t.Fatalf("top = %#v, want &", ret.Value)
	}
	shl, ok := and.L.(*BinExpr)
	if !ok || shl.Op != "<<" {
		t.Fatalf("next = %#v, want <<", and.L)
	}
	add, ok := shl.L.(*BinExpr)
	if !ok || add.Op != "+" {
		t.Fatalf("next = %#v, want +", shl.L)
	}
	mul, ok := add.R.(*BinExpr)
	if !ok || mul.Op != "*" {
		t.Fatalf("rhs = %#v, want *", add.R)
	}
}

func TestParseElseIf(t *testing.T) {
	prog := MustParse(`int f(int x) {
		if (x == 1) { return 1; } else if (x == 2) { return 2; } else { return 3; }
	}`)
	ifs := prog.Funcs[0].Body[0].(*IfStmt)
	if len(ifs.Else) != 1 {
		t.Fatal("else-if chain not nested")
	}
	if _, ok := ifs.Else[0].(*IfStmt); !ok {
		t.Fatal("else branch is not an if")
	}
}

func TestParseErrors(t *testing.T) {
	for name, src := range map[string]string{
		"missing semicolon": "int f() { return 1 }",
		"logical and":       "int f(int a, int b) { if (a && b) { return 1; } return 0; }",
		"bad assign target": "int f() { 1 = 2; return 0; }",
		"bad top level":     "float f() { }",
		"unterminated":      "int f() { ",
		"bad param":         "int f(float x) { return 0; }",
	} {
		t.Run(name, func(t *testing.T) {
			if _, err := Parse(src); err == nil {
				t.Errorf("expected parse error for %q", src)
			}
		})
	}
}

func TestLowerSharesRMWAddress(t *testing.T) {
	d := md.MustLoad("x86")
	g := d.Grammar
	prog := MustParse(`
int g;
int f(int i) {
	int x;
	x = 0;
	x = x + 1;
	g += i;
	return x;
}`)
	unit, err := Lower(prog, g)
	if err != nil {
		t.Fatal(err)
	}
	f := unit.Funcs[0].Forest
	// Find ASGN roots whose value is ADD(INDIR(addr), ...) and check the
	// address node is shared (same pointer).
	asgn := g.MustOp("ASGN")
	add := g.MustOp("ADD")
	indir := g.MustOp("INDIR")
	shared := 0
	for _, r := range f.Roots {
		if r.Op != asgn || len(r.Kids) != 2 {
			continue
		}
		v := r.Kids[1]
		if v.Op == add && v.Kids[0].Op == indir && v.Kids[0].Kids[0] == r.Kids[0] {
			shared++
		}
	}
	if shared != 2 { // x = x + 1 and g += i
		t.Errorf("shared-address RMW statements = %d, want 2", shared)
	}
}

func TestLowerSelectsRMWOnX86(t *testing.T) {
	d := md.MustLoad("x86")
	g := d.Grammar
	prog := MustParse(`int g; int f() { g += 5; return g; }`)
	unit := MustLower(prog, g)
	l, err := dp.New(g, d.Env, nil)
	if err != nil {
		t.Fatal(err)
	}
	rd, err := reduce.New(g, d.Env, nil)
	if err != nil {
		t.Fatal(err)
	}
	f := unit.Funcs[0].Forest
	deriv, err := rd.Trace(f, l.Label(f, nil, 0))
	if err != nil {
		t.Fatal(err)
	}
	// The g += 5 statement must be covered by an RMW rule (dyn x86.memop):
	found := false
	for _, s := range deriv.Steps {
		if g.Rules[s.Rule].DynCost == "x86.memop" {
			found = true
		}
	}
	if !found {
		t.Errorf("no RMW rule in derivation: %s", deriv.String(g))
	}
}

func TestLowerArrayIndexing(t *testing.T) {
	d := md.MustLoad("x86")
	g := d.Grammar
	prog := MustParse(`
int a[16];
int f(int i) {
	a[3] = 7;
	return a[i];
}`)
	unit := MustLower(prog, g)
	f := unit.Funcs[0].Forest
	txt := f.String(g)
	// Constant index folds into a displacement (int elements are 4 bytes).
	if !strings.Contains(txt, "ADD(ADDRG[a], CNST[12])") {
		t.Errorf("constant index not folded:\n%s", txt)
	}
	// Accesses use the 4-byte operators.
	if !strings.Contains(txt, "ASGN4(") || !strings.Contains(txt, "INDIR4(") {
		t.Errorf("int arrays must use 4-byte memory operators:\n%s", txt)
	}
	// Variable index becomes a scaled address.
	if !strings.Contains(txt, "SHL(") {
		t.Errorf("variable index not scaled:\n%s", txt)
	}
}

func TestLowerControlFlow(t *testing.T) {
	d := md.MustLoad("jit64")
	g := d.Grammar
	prog := MustParse(`
int f(int n) {
	int s = 0;
	int i;
	for (i = 0; i < n; i += 1) {
		if (i % 2 == 0) { s += i; }
	}
	while (s > 100) { s -= 10; }
	return s;
}`)
	unit := MustLower(prog, g)
	f := unit.Funcs[0].Forest
	counts := map[string]int{}
	for _, n := range f.Nodes {
		counts[g.OpName(n.Op)]++
	}
	if counts["LABEL"] < 4 {
		t.Errorf("labels = %d, want >= 4 (for loop + while + if)", counts["LABEL"])
	}
	if counts["JUMP"] < 2 {
		t.Errorf("jumps = %d, want >= 2 (loop backedges)", counts["JUMP"])
	}
	// Every root must be derivable from stmt.
	l, err := dp.New(g, d.Env, nil)
	if err != nil {
		t.Fatal(err)
	}
	res := l.Label(f, nil, 0).(*dp.Result)
	for i, r := range f.Roots {
		if !res.Derivable(r) {
			t.Errorf("root %d (%s) not derivable", i, g.OpName(r.Op))
		}
	}
}

func TestLowerParamsSpilled(t *testing.T) {
	d := md.MustLoad("mips")
	g := d.Grammar
	prog := MustParse(`int f(int a, int b) { return a + b; }`)
	unit := MustLower(prog, g)
	f := unit.Funcs[0].Forest
	argregs := 0
	for _, n := range f.Nodes {
		if g.OpName(n.Op) == "ARGREG" {
			argregs++
		}
	}
	if argregs != 2 {
		t.Errorf("ARGREG nodes = %d, want 2", argregs)
	}
	if unit.Funcs[0].FrameSize != 16 {
		t.Errorf("frame = %d, want 16 (two spilled params)", unit.Funcs[0].FrameSize)
	}
}

func TestLowerErrors(t *testing.T) {
	g := md.MustLoad("demo").Grammar // lacks the generic IR operators
	prog := MustParse(`int f() { return 1; }`)
	if _, err := Lower(prog, g); err == nil {
		t.Error("expected vocabulary-mismatch error for the demo grammar")
	}
}

func TestLowerUndefinedVariable(t *testing.T) {
	g := md.MustLoad("x86").Grammar
	prog := MustParse(`int f() { return nope; }`)
	if _, err := Lower(prog, g); err == nil {
		t.Error("expected undefined-variable error")
	}
	prog2 := MustParse(`int f() { ghost = 1; return 0; }`)
	if _, err := Lower(prog2, g); err == nil {
		t.Error("expected undefined-target error")
	}
	prog3 := MustParse(`int a[4]; int f() { a = 1; return 0; }`)
	if _, err := Lower(prog3, g); err == nil {
		t.Error("expected cannot-assign-to-array error")
	}
	prog4 := MustParse(`int f() { int x; int x; return 0; }`)
	if _, err := Lower(prog4, g); err == nil {
		t.Error("expected duplicate-local error")
	}
	prog5 := MustParse(`int f(int x) { return (x < 1) + 2; }`)
	if _, err := Lower(prog5, g); err == nil {
		t.Error("expected comparison-in-value-context error")
	}
}

func TestForestsTopoValid(t *testing.T) {
	g := md.MustLoad("x86").Grammar
	prog := MustParse(`
int a[8];
int f(int n) {
	int i;
	for (i = 0; i < n; i += 1) { a[i] = f(i - 1) + a[i - 1]; }
	return a[n - 1];
}`)
	unit := MustLower(prog, g)
	for _, fn := range unit.Funcs {
		if err := ir.CheckTopo(fn.Forest); err != nil {
			t.Errorf("%s: %v", fn.Name, err)
		}
	}
}
