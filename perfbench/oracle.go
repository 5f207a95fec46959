package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"sync"
	"sync/atomic"

	"repro"
)

// oracle computes reference derivation costs with the dp engine, which
// shares no labeling code with the automaton engines under test.
type oracle struct {
	sels []*repro.Selector
}

func newOracle(machines []*repro.Machine) (*oracle, error) {
	o := &oracle{}
	for _, m := range machines {
		s, err := m.NewSelector(repro.KindDP, repro.Options{})
		if err != nil {
			return nil, fmt.Errorf("dp oracle for %s: %w", m.Name, err)
		}
		o.sels = append(o.sels, s)
	}
	return o, nil
}

// forestCost is the cost of f's optimal derivation on machine mi.
func (o *oracle) forestCost(mi int, f *repro.Forest) (int64, error) {
	out, err := o.sels[mi].Compile(context.Background(), f, repro.CostOnly())
	if err != nil {
		return 0, fmt.Errorf("dp oracle: %w", err)
	}
	return int64(out.Cost), nil
}

// unitCosts is one reference cost per function of u.
func (o *oracle) unitCosts(mi int, u *repro.Unit) ([]int64, error) {
	out := make([]int64, len(u.Funcs))
	for i, fn := range u.Funcs {
		c, err := o.forestCost(mi, fn.Forest)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", fn.Name, err)
		}
		out[i] = c
	}
	return out, nil
}

func digest(s string) string {
	h := sha256.Sum256([]byte(s))
	return hex.EncodeToString(h[:8])
}

func digestAll(parts []string) string {
	h := sha256.New()
	for _, p := range parts {
		h.Write([]byte(p))
		h.Write([]byte{0})
	}
	return hex.EncodeToString(h.Sum(nil)[:8])
}

// errWrongCost marks an output whose cost differs from the oracle's.
var errWrongCost = errors.New("cost differs from the dp oracle")

// checker validates outputs. A cost that differs from the oracle's is a
// failure; assembly is compared with the digest recorded beside the
// benchmark (and with its own first sighting in this run) only as a
// regression signal, since that digest comes from the compiler itself.
type checker struct {
	recorded map[string]string

	mu    sync.Mutex
	first map[string][]string // input key -> first assembly seen

	failed     atomic.Int64
	asmChanged atomic.Int64
	asmChecked atomic.Int64
	firstErr   atomic.Value // string
}

func newChecker(recorded map[string]string) *checker {
	return &checker{recorded: recorded, first: map[string][]string{}}
}

// seen reports whether an answer for key has been checked already.
func (c *checker) seen(key string) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	_, ok := c.first[key]
	return ok
}

// check compares one response with its expected costs, counting and
// returning errWrongCost on a mismatch. asm may be nil for an input seen
// before, to skip the assembly comparison.
func (c *checker) check(key string, want, got []int64, asm []string) error {
	if len(want) != len(got) {
		return c.fail(fmt.Errorf("%s: %d outputs, want %d: %w", key, len(got), len(want), errWrongCost))
	}
	for i := range want {
		if want[i] != got[i] {
			return c.fail(fmt.Errorf("%s: output %d cost %d, oracle %d: %w", key, i, got[i], want[i], errWrongCost))
		}
	}
	if asm == nil {
		return nil
	}
	c.mu.Lock()
	prev, seen := c.first[key]
	if !seen {
		c.first[key] = append([]string(nil), asm...)
	}
	c.mu.Unlock()
	if !seen {
		if d, ok := c.recorded[key]; ok {
			c.asmChecked.Add(1)
			if d != digestAll(asm) {
				c.asmChanged.Add(1)
			}
		}
		return nil
	}
	for i := range asm {
		if i >= len(prev) || asm[i] != prev[i] {
			c.asmChanged.Add(1)
			break
		}
	}
	return nil
}

// fail counts a failed operation (a transport error, a non-2xx answer or
// a wrong cost) and keeps the first error for the report.
func (c *checker) fail(err error) error {
	c.failed.Add(1)
	c.firstErr.CompareAndSwap(nil, err.Error())
	return err
}

// digests returns the assembly digest of every input seen.
func (c *checker) digests() map[string]string {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make(map[string]string, len(c.first))
	for k, asm := range c.first {
		out[k] = digestAll(asm)
	}
	return out
}

func loadDigests(path string) (map[string]string, error) {
	b, err := os.ReadFile(path)
	if errors.Is(err, os.ErrNotExist) {
		return map[string]string{}, nil
	}
	if err != nil {
		return nil, err
	}
	m := map[string]string{}
	if err := json.Unmarshal(b, &m); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return m, nil
}

// saveDigests merges add into the digest file at path (keys sorted).
func saveDigests(path string, add map[string]string) error {
	m, err := loadDigests(path)
	if err != nil {
		return err
	}
	for k, v := range add {
		m[k] = v
	}
	b, err := json.MarshalIndent(m, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}
