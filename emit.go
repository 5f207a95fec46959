package repro

import "repro/internal/emit"

// emitterFor isolates the emit dependency so api.go stays focused on
// selector plumbing. All emitters of one selector share the selector's
// compiled templates and its interner, so repeated compiles of the same
// functions return the same Asm string without a per-call copy.
func emitterFor(t *emit.Templates, in *emit.Interner) *emit.Emitter {
	e := emit.New(t)
	e.SetInterner(in)
	return e
}

// newInterner isolates the constructor the selector uses for its shared
// assembly-text store.
func newInterner() *emit.Interner { return emit.NewInterner(0) }
