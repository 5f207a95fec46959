package frontend

import (
	"strings"
	"testing"

	"repro/internal/dp"
	"repro/internal/emit"
	"repro/internal/md"
	"repro/internal/reduce"
)

// TestElementWidths: each element type must use its width's memory
// operators and scale factor.
func TestElementWidths(t *testing.T) {
	g := md.MustLoad("x86").Grammar
	prog := MustParse(`
char  c[16];
short s[16];
int   w[16];
long  l[16];
int f(int i) {
	c[i] = 1;
	s[i] = 2;
	w[i] = 3;
	l[i] = 4;
	return c[i] + s[i] + w[i] + l[i];
}`)
	unit := MustLower(prog, g)
	txt := unit.Funcs[0].Forest.String(g)
	cases := []struct{ op, why string }{
		{"ASGN1(ADD(ADDRG[c], INDIR(", "char store: unscaled index"},
		{"ASGN2(ADD(ADDRG[s], SHL(", "short store: scale 1"},
		{"ASGN4(ADD(ADDRG[w], SHL(", "int store: scale 2"},
		{"ASGN(ADD(ADDRG[l], SHL(", "long store: scale 3"},
		{"INDIR1(", "char load"},
		{"INDIR2(", "short load"},
		{"INDIR4(", "int load"},
	}
	for _, c := range cases {
		if !strings.Contains(txt, c.op) {
			t.Errorf("missing %s (%s):\n%s", c.op, c.why, txt)
		}
	}
	// Scale shift amounts: short=1, int=2, long=3.
	for _, want := range []string{"CNST[1])", "CNST[2])", "CNST[3])"} {
		if !strings.Contains(txt, "SHL(INDIR(ADDRL[-8]), "+want) {
			t.Errorf("missing scaled index by %s:\n%s", want, txt)
		}
	}
}

// TestConstIndexFoldsByWidth: a[3] folds to displacement 3*size.
func TestConstIndexFoldsByWidth(t *testing.T) {
	g := md.MustLoad("x86").Grammar
	prog := MustParse(`
char  c[16];
short s[16];
int   w[16];
long  l[16];
int f() { return c[3] + s[3] + w[3] + l[3]; }`)
	unit := MustLower(prog, g)
	txt := unit.Funcs[0].Forest.String(g)
	for _, want := range []string{
		"ADD(ADDRG[c], CNST[3])",
		"ADD(ADDRG[s], CNST[6])",
		"ADD(ADDRG[w], CNST[12])",
		"ADD(ADDRG[l], CNST[24])",
	} {
		if !strings.Contains(txt, want) {
			t.Errorf("missing folded displacement %s:\n%s", want, txt)
		}
	}
}

// TestTypedRMWSelectsNarrowMemoryOp: hist[i] += 1 on an int array must
// select the incl-to-memory rule on x86 (the typed RMW pattern).
func TestTypedRMWSelectsNarrowMemoryOp(t *testing.T) {
	d := md.MustLoad("x86")
	g := d.Grammar
	prog := MustParse(`
int hist[128];
int f(int i) {
	hist[i] += 1;
	return hist[0];
}`)
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
	asm, _, _, err := emit.Emit(rd, f, l.Label(f, nil, 0), g)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(asm, "incl ") {
		t.Errorf("expected incl-to-memory for hist[i] += 1:\n%s", asm)
	}
}

// TestCharRMWByte: buf[i] += k on a char array selects the byte RMW.
func TestCharRMWByte(t *testing.T) {
	d := md.MustLoad("x86")
	g := d.Grammar
	prog := MustParse(`
char buf[64];
int f(int i, int k) {
	buf[i] += k;
	return buf[0];
}`)
	unit := MustLower(prog, g)
	l, _ := dp.New(g, d.Env, nil)
	rd, _ := reduce.New(g, d.Env, nil)
	f := unit.Funcs[0].Forest
	asm, _, _, err := emit.Emit(rd, f, l.Label(f, nil, 0), g)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(asm, "addb ") {
		t.Errorf("expected addb-to-memory for char RMW:\n%s", asm)
	}
}

// TestScalarsStayFullWidth: scalar locals use 8-byte slots regardless of
// the declared type keyword.
func TestScalarsStayFullWidth(t *testing.T) {
	g := md.MustLoad("x86").Grammar
	prog := MustParse(`int f() { char x = 5; return x; }`)
	unit := MustLower(prog, g)
	txt := unit.Funcs[0].Forest.String(g)
	if strings.Contains(txt, "ASGN1") || strings.Contains(txt, "INDIR1") {
		t.Errorf("scalar must use full-width access:\n%s", txt)
	}
}

// TestAlphaByteAccessExpensive: pre-BWX Alpha has no byte loads (they are
// ldq_u/extract sequences); the same char-array kernel must cost more on
// alpha than the equivalent int-array kernel does.
func TestAlphaByteAccessExpensive(t *testing.T) {
	d := md.MustLoad("alpha")
	g := d.Grammar
	l, err := dp.New(g, d.Env, nil)
	if err != nil {
		t.Fatal(err)
	}
	rd, err := reduce.New(g, d.Env, nil)
	if err != nil {
		t.Fatal(err)
	}
	cost := func(src string) int {
		unit := MustLower(MustParse(src), g)
		f := unit.Funcs[0].Forest
		d, err := rd.Trace(f, l.Label(f, nil, 0))
		if err != nil {
			t.Fatal(err)
		}
		return int(d.Cost)
	}
	byteCost := cost(`char b[32]; int f(int i) { return b[i]; }`)
	wordCost := cost(`int w[32]; int f(int i) { return w[i]; }`)
	if byteCost <= wordCost {
		t.Errorf("alpha byte access (%d) must cost more than 4-byte access (%d)", byteCost, wordCost)
	}
}
