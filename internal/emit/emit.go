// Package emit turns selected derivations into assembly-like text.
//
// Rules carry templates (see grammar.Rule.Template). A template starting
// with '=' is a *value* template: it names the operand the rule's
// left-hand-side nonterminal stands for (addressing modes, immediates,
// registers) and emits no instruction. Any other non-empty template is an
// *instruction* template: the emitter allocates a fresh virtual register
// for the result and writes one line of assembly. Empty templates emit
// nothing and pass the operand of the rule's (single) right-hand-side
// nonterminal through, which is the common case for chain and helper
// rules.
//
// Substitutions: %0 and %1 expand to the operands of the rule's kid
// nonterminals, %c to the node's leaf value, %s to its symbol, and %d to
// the freshly allocated destination register. For multi-node source
// patterns, dotted paths descend through the helper rules that normal-form
// conversion introduced: in Store(addr, Plus(Load(addr), reg)) the operand
// of the inner reg is %1.1 (kid 1 of the Store, kid 1 of the Plus).
//
// The emitter exists for two reasons: the examples and CLI produce real
// output, and the experiments need "emitted target instructions" as their
// denominator and "identical code out of every engine" as a correctness
// check.
//
// # Allocation discipline
//
// Templates are compiled once per grammar into op slices that all its
// emitters share, so emission parses no '%' escape. An Emitter walks a
// reduce.Cover front to back with one operand slot per list position;
// every operand a template references (a premise, or a dotted path
// followed through premise links) sits at a smaller, filled position. A
// warm Emitter allocates nothing: operand slots, the arena backing
// operand text as zero-copy strings, register names and the assembly
// buffer are reused. Only the Asm() string leaves the emitter, interned
// through the shared Interner (or copied without one) — never a view of
// recycled memory, so returned assembly stays valid forever.
package emit

import (
	"strconv"
	"unsafe"

	"repro/internal/grammar"
	"repro/internal/ir"
	"repro/internal/reduce"
)

// Templates is a grammar's rule templates compiled to op slices, indexed
// by rule; immutable, shared by all emitters of the grammar.
type Templates struct{ rules []ruleTmpl }

type ruleTmpl struct {
	kind  tmplKind
	chain bool
	ops   []op
}

type tmplKind uint8

const (
	tmplPass  tmplKind = iota // empty: pass the RHS or first-kid operand through
	tmplValue                 // "=...": the expansion is the operand
	tmplInstr                 // one instruction line into a fresh register
)

// op is one template piece: literal text, then one substitution (for
// subKid, of the operand at a dotted kid path, one byte per step).
type op struct {
	lit  string
	sub  subKind
	path string
}

type subKind uint8

const (
	subNone subKind = iota // a trailing literal
	subKid                 // %k[.k...] of a base rule
	subRHS                 // %k of a chain rule: the right-hand side's operand
	subVal                 // %c
	subSym                 // %s
	subDst                 // %d
)

var plainEscapes = map[byte]subKind{'c': subVal, 's': subSym, 'd': subDst}

// Compile compiles every rule template of g.
func Compile(g *grammar.Grammar) *Templates {
	t := &Templates{rules: make([]ruleTmpl, len(g.Rules))}
	for i := range g.Rules {
		r := &g.Rules[i]
		rt := &t.rules[i]
		rt.chain = r.IsChain
		switch {
		case r.Template == "":
			rt.kind = tmplPass
		case r.Template[0] == '=':
			rt.kind, rt.ops = tmplValue, compileOps(r.Template[1:], r.IsChain)
		default:
			// The tab and newline framing every instruction line join the
			// template's literals; neither can change how an escape parses.
			rt.kind, rt.ops = tmplInstr, compileOps("\t"+r.Template+"\n", r.IsChain)
		}
	}
	return t
}

// compileOps splits a template at its escapes: %0/%1 with optional
// .digit path steps, %c, %s, %d, and %% for a literal '%'; an unknown
// escape and a trailing '%' stay literal.
func compileOps(tmpl string, chain bool) []op {
	var ops []op
	var lit []byte
	for i := 0; i < len(tmpl); i++ {
		if tmpl[i] != '%' || i+1 >= len(tmpl) {
			lit = append(lit, tmpl[i])
			continue
		}
		i++
		var o op
		switch tmpl[i] {
		case '0', '1':
			path := []byte{tmpl[i] - '0'}
			for i+2 < len(tmpl) && tmpl[i+1] == '.' && tmpl[i+2] >= '0' && tmpl[i+2] <= '9' {
				path = append(path, tmpl[i+2]-'0')
				i += 2
			}
			o.sub, o.path = subKid, string(path)
			if chain {
				o.sub = subRHS
			}
		case 'c', 's', 'd':
			o.sub = plainEscapes[tmpl[i]]
		default:
			if tmpl[i] != '%' {
				lit = append(lit, '%')
			}
			lit = append(lit, tmpl[i])
			continue
		}
		o.lit = string(lit)
		ops = append(ops, o)
		lit = lit[:0]
	}
	if len(lit) > 0 {
		ops = append(ops, op{lit: string(lit)})
	}
	return ops
}

// Emitter turns covers into assembly, one Emit at a time. Emitters are
// not safe for concurrent use — pool them (see Selector in the root
// package).
type Emitter struct {
	t *Templates
	// slots[i] is the operand text step i of the cover can be
	// referenced by; arena backs operand text as zero-copy views, valid
	// for one Emit.
	slots []string
	arena []byte
	// asm is the assembly text; regs the grown-once virtual register
	// names ("r0", "r1", ...); intern, when set, canonicalizes Asm().
	asm    []byte
	regs   []string
	intern *Interner
	instrs int
}

// New creates an emitter over compiled templates t.
func New(t *Templates) *Emitter { return &Emitter{t: t} }

// SetInterner shares in as the canonical store for Asm() results; all
// emitters pooled by one selector share one interner. A nil interner
// reverts to plain per-call copies.
func (e *Emitter) SetInterner(in *Interner) { e.intern = in }

// Emit replaces the emitter's assembly with c's: one pass over the steps,
// each filling its operand slot from its compiled template. Previously
// returned Asm strings stay valid: they were interned or copied out,
// never views of the recycled buffers.
func (e *Emitter) Emit(c *reduce.Cover) {
	e.asm, e.arena, e.instrs = e.asm[:0], e.arena[:0], 0
	if n := len(c.Steps); cap(e.slots) < n {
		e.slots = make([]string, n, 2*n)
	}
	slots := e.slots[:len(c.Steps)]
	e.slots = slots
	nextReg := 0
	for i := range c.Steps {
		s := &c.Steps[i]
		switch rt := &e.t.rules[s.Rule]; {
		case rt.kind == tmplInstr:
			dst := e.regName(nextReg)
			nextReg++
			e.asm = e.expand(e.asm, rt.ops, c, s, dst)
			e.instrs++
			slots[i] = dst
		case rt.kind == tmplValue:
			start := len(e.arena)
			e.arena = e.expand(e.arena, rt.ops, c, s, "")
			slots[i] = view(e.arena[start:])
		case rt.chain || len(s.Node.Kids) > 0: // pass the RHS or kid 0 through
			slots[i] = slots[c.Prems[s.Prem]]
		case s.Node.Sym != "": // a template-less leaf: its payload
			slots[i] = s.Node.Sym
		default:
			start := len(e.arena)
			e.arena = strconv.AppendInt(e.arena, s.Node.Val, 10)
			slots[i] = view(e.arena[start:])
		}
	}
	clear(slots) // a pooled emitter pins neither the forest nor old arenas
}

// expand appends step s's compiled template to b. Referenced operands may
// be views of the arena b itself grows: append never writes below len(b).
func (e *Emitter) expand(b []byte, ops []op, c *reduce.Cover, s *reduce.Step, dst string) []byte {
	for i := range ops {
		o := &ops[i]
		if o.lit != "" {
			b = append(b, o.lit...)
		}
		switch o.sub {
		case subKid:
			b = append(b, e.pathOperand(c, s, o.path)...)
		case subRHS:
			b = append(b, e.slots[c.Prems[s.Prem]]...)
		case subVal:
			b = strconv.AppendInt(b, s.Node.Val, 10)
		case subSym:
			b = append(b, s.Node.Sym...)
		case subDst:
			b = append(b, dst...)
		}
	}
	return b
}

// pathOperand resolves a dotted kid path starting at base-rule step s:
// each step moves to premise path[k] and on through the chain rules
// applied there down to a base rule, so a further path step has kids to
// descend into; the operand is the one at that base rule.
func (e *Emitter) pathOperand(c *reduce.Cover, s *reduce.Step, path string) string {
	var p int32 // paths are never empty
	for k := 0; k < len(path); k++ {
		if int(path[k]) >= len(s.Node.Kids) {
			return "?"
		}
		p = c.Prems[s.Prem+int32(path[k])]
		for e.t.rules[c.Steps[p].Rule].chain {
			p = c.Prems[c.Steps[p].Prem]
		}
		s = &c.Steps[p]
	}
	return e.slots[p]
}

// view returns a zero-copy string over b.
func view(b []byte) string {
	if len(b) == 0 {
		return ""
	}
	return unsafe.String(unsafe.SliceData(b), len(b))
}

// regName returns the name of virtual register i, rendered once per
// emitter.
func (e *Emitter) regName(i int) string {
	for len(e.regs) <= i {
		e.regs = append(e.regs, "r"+strconv.Itoa(len(e.regs)))
	}
	return e.regs[i]
}

// Asm returns the emitted assembly text: interned through the shared
// Interner when one is set, otherwise a fresh copy. Either way the result
// owns its bytes — it survives further emission.
func (e *Emitter) Asm() string {
	if len(e.asm) == 0 {
		return ""
	}
	if e.intern != nil {
		return e.intern.Intern(e.asm)
	}
	return string(e.asm)
}

// Instructions returns the number of emitted instruction lines — the
// "emitted target instructions" denominator of the per-instruction
// experiment figures.
func (e *Emitter) Instructions() int { return e.instrs }

// Emit covers f with lab using reducer rd and returns the assembly, the
// emitted instruction count, and the derivation cost.
func Emit(rd *reduce.Reducer, f *ir.Forest, lab reduce.Labeling, g *grammar.Grammar) (asm string, instrs int, cost grammar.Cost, err error) {
	c, err := rd.Cover(f, lab)
	if err != nil {
		return "", 0, 0, err
	}
	defer rd.Release(c)
	em := New(Compile(g))
	em.Emit(c)
	return em.Asm(), em.Instructions(), c.Cost, nil
}
