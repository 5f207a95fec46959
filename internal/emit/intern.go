package emit

import "sync"

// Interner deduplicates emitted assembly text. One Interner typically
// serves one selector: every Emitter the selector pools shares it, so a
// warm compilation session — the same functions compiled over and over, a
// JIT re-entering hot code, the benchmark harness looping a corpus —
// returns the same Asm string without allocating a fresh copy per call.
// That last copy was the only per-call allocation left in warm emission,
// which is what makes the full-Compile zero-allocs-per-node contract hold
// (see alloc_test.go at the repo root).
//
// Interned strings are retained for the Interner's lifetime. That is also
// what makes returned Output.Asm values durable: an Emitter's internal
// buffers are recycled by its next Emit, but the string handed out is either
// interned (owned here) or a plain copy — never a view of recycled
// storage. Retention is bounded by the byte cap: once the cap is reached,
// Intern degrades to plain string copies (correct, one allocation per
// call) instead of growing without bound under pathological workloads
// where every unit's text is distinct.
type Interner struct {
	mu    sync.RWMutex
	m     map[string]string
	bytes int
	cap   int
}

// DefaultInternBytes is the retention cap NewInterner applies when given a
// non-positive cap: generous for realistic corpora (the whole benchmark
// workload's emitted text is well under a megabyte) while keeping a
// long-lived server's worst case bounded.
const DefaultInternBytes = 8 << 20

// NewInterner creates an interner retaining at most capBytes of distinct
// text (DefaultInternBytes if capBytes <= 0).
func NewInterner(capBytes int) *Interner {
	if capBytes <= 0 {
		capBytes = DefaultInternBytes
	}
	return &Interner{m: make(map[string]string), cap: capBytes}
}

// Intern returns the canonical string for b. The hit path takes a read
// lock and a map probe only — the m[string(b)] form is recognized by the
// compiler, so no copy of b is made. Misses materialize the string once
// and retain it while the byte cap allows; past the cap the copy is
// returned unretained.
func (in *Interner) Intern(b []byte) string {
	in.mu.RLock()
	s, ok := in.m[string(b)]
	in.mu.RUnlock()
	if ok {
		return s
	}
	in.mu.Lock()
	defer in.mu.Unlock()
	if s, ok := in.m[string(b)]; ok {
		return s
	}
	s = string(b)
	if in.bytes+len(s) <= in.cap {
		in.m[s] = s
		in.bytes += len(s)
	}
	return s
}

// Len reports the number of retained strings (diagnostics and tests).
func (in *Interner) Len() int {
	in.mu.RLock()
	defer in.mu.RUnlock()
	return len(in.m)
}

// Bytes reports the retained text volume (diagnostics and tests).
func (in *Interner) Bytes() int {
	in.mu.RLock()
	defer in.mu.RUnlock()
	return in.bytes
}
