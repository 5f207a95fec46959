package main

import (
	"context"
	"fmt"
	"runtime"
	"time"

	"repro"
	"repro/internal/workload"
)

// bigfunc_lib: in-process library calls, a closed loop of one goroutine
// calling Selector.CompileUnit on on-demand engines over a seeded stream
// of pre-lowered units, about one in bigEvery a generated function of
// bigMinNodes..bigMaxNodes IR nodes.

// libStreamLen is the length of the seeded stream the loop cycles over.
const libStreamLen = 400

// coldBigNodes sizes the generated function of the fixed cold set.
const coldBigNodes = 1500

// libEpisodes is how many equal episodes the measured window is split
// into (see e2e).
const libEpisodes = 30

type bigfuncLib struct {
	machines []*repro.Machine
	sels     []*repro.Selector
	items    []libItem
	want     [][]int64
	// cold is the fixed (seed-independent) cold set per machine: the
	// corpus plus one generated function, whose forest is coldBig.
	cold    [][]*repro.Unit
	coldBig []*repro.Forest
}

func (w *bigfuncLib) setup(r *runner) error {
	w.machines, w.sels, w.cold, w.coldBig = nil, nil, nil, nil
	var corpus [][]*workload.Compiled
	bigSrc := bigFuncSource(newRand(0, streamBigFunc), "coldbig", coldBigNodes)
	for _, name := range servedMachines {
		m, err := repro.LoadMachine(name)
		if err != nil {
			return err
		}
		sel, err := m.NewSelector(repro.KindOnDemand, repro.Options{})
		if err != nil {
			return err
		}
		cs, err := workload.CompileAll(m.Grammar)
		if err != nil {
			return err
		}
		big, err := m.CompileMinC(bigSrc)
		if err != nil {
			return fmt.Errorf("cold set function: %w", err)
		}
		var cold []*repro.Unit
		for _, c := range cs {
			cold = append(cold, c.Unit)
		}
		w.machines = append(w.machines, m)
		w.sels = append(w.sels, sel)
		corpus = append(corpus, cs)
		w.cold = append(w.cold, append(cold, big))
		w.coldBig = append(w.coldBig, big.Funcs[0].Forest)
	}
	var err error
	if w.items, err = libStream(r.seed, w.machines, corpus, libStreamLen); err != nil {
		return err
	}
	orc, err := newOracle(w.machines)
	if err != nil {
		return err
	}
	w.want = make([][]int64, len(w.items))
	byKey := map[string][]int64{}
	for i, it := range w.items {
		if c, ok := byKey[it.Key]; ok {
			w.want[i] = c
			continue
		}
		c, err := orc.unitCosts(it.Machine, it.Unit)
		if err != nil {
			return fmt.Errorf("%s: %w", it.Key, err)
		}
		byKey[it.Key], w.want[i] = c, c
		// Warm-up: label and reduce every distinct unit once, so the
		// automaton is warm before timing (emission is left to the loop).
		for _, fn := range it.Unit.Funcs {
			if _, err := w.sels[it.Machine].Compile(context.Background(), fn.Forest, repro.CostOnly()); err != nil {
				return err
			}
		}
	}
	return nil
}

func (w *bigfuncLib) close() {}

// call compiles stream item i once and checks it against the oracle.
func (w *bigfuncLib) call(r *runner, i int) error {
	it := &w.items[i]
	outs, err := w.sels[it.Machine].CompileUnit(context.Background(), it.Unit)
	r.attempted.Add(1)
	if err != nil {
		return r.chk.fail(fmt.Errorf("%s: %w", it.Key, err))
	}
	costs := make([]int64, len(outs))
	asm := make([]string, len(outs))
	for j, o := range outs {
		costs[j], asm[j] = int64(o.Cost), o.Asm
	}
	return r.chk.check(it.Key, w.want[i], costs, asm)
}

// loopResult is one closed-loop phase.
type loopResult struct {
	lat     []float64 // wall ms per call, in call order
	cpu     []float64 // the calling thread's CPU ms per call
	nodes   int
	elapsed time.Duration
	cpuUsed time.Duration // the process's CPU time over the phase
}

// closedLoop calls stream items in order from call index from, cycling,
// until d has passed. onCall, when set, sees each call's index and bounds.
func (w *bigfuncLib) closedLoop(r *runner, from int, d time.Duration, onCall func(i int, start, end time.Time)) loopResult {
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	var res loopResult
	start, cpu0 := time.Now(), processCPU()
	for i := from; time.Since(start) < d; i++ {
		k := i % len(w.items)
		c0 := threadCPU()
		t0 := time.Now()
		w.call(r, k)
		t1 := time.Now()
		c1 := threadCPU()
		if onCall != nil {
			onCall(i, t0, t1)
		}
		res.lat = append(res.lat, float64(t1.Sub(t0))/1e6)
		res.cpu = append(res.cpu, float64(c1-c0)/1e6)
		res.nodes += w.items[k].Nodes
	}
	res.elapsed = time.Since(start)
	res.cpuUsed = processCPU() - cpu0
	return res
}

func (w *bigfuncLib) e2e(r *runner) (map[string]float64, error) {
	heap := startHeapSampler()
	cold := &coldSampler{once: w.coldOnce}
	var res loopResult
	var episodes []latencySummary
	var means []float64
	for e := 0; e < libEpisodes; e++ {
		// Two collections empty the selector's emitter pool, so every
		// episode starts from the same state and is an independent
		// sample of how the stream meets the collector.
		runtime.GC()
		runtime.GC()
		er := w.closedLoop(r, len(res.lat), r.window/libEpisodes, nil)
		episodes = append(episodes, summarize(er.cpu))
		means = append(means, mean(er.cpu))
		res.lat = append(res.lat, er.lat...)
		res.cpu = append(res.cpu, er.cpu...)
		res.nodes += er.nodes
		res.elapsed += er.elapsed
		res.cpuUsed += er.cpuUsed
		if (e+1)%(libEpisodes/coldSlices) == 0 {
			cold.turnBeside(heap)
		}
	}
	peak := heap.Stop()
	// The loop is pure computation, so its latency and throughput are
	// taken on the CPU clocks, which leave out the time a shared host
	// gives the virtual CPU to its neighbours (see processCPU); the wall
	// figures go to the report. lat_p50_ms is the median over episodes
	// of each episode's mean call time. The median call will not do: a
	// call that finds the grown emitter in the selector's pool clears its
	// whole table and one that does not is cheap, and the median of the
	// two modes moved by 15-35% between runs, where the mean follows
	// their mix smoothly.
	lat := summarize(res.cpu)
	p50 := median(means)
	r.report["episodes"] = episodes
	r.report["latency"] = lat
	r.report["mean_by_episode_ms"] = means
	r.report["wall_latency"] = summarize(res.lat)
	r.report["wall_knodes_per_s"] = float64(res.nodes) / res.elapsed.Seconds() / 1e3
	coldMs, err := cold.result(r)
	if err != nil {
		return nil, err
	}
	return map[string]float64{
		"lat_p50_ms":   p50,
		"lat_p99_ms":   lat.P99,
		"max_rate_rps": float64(len(res.lat)) / res.elapsed.Seconds(),
		"knodes_per_s": float64(res.nodes) / res.cpuUsed.Seconds() / 1e3,
		"cold_ms":      coldMs,
		"peak_heap_mb": peak,
	}, nil
}

// coldOnce compiles the cold set on a fresh selector per machine and
// returns the summed CPU time in ms.
func (w *bigfuncLib) coldOnce() (float64, error) {
	var total time.Duration
	for mi, m := range w.machines {
		sel, err := m.NewSelector(repro.KindOnDemand, repro.Options{})
		if err != nil {
			return 0, err
		}
		t0 := processCPU()
		for _, u := range w.cold[mi] {
			if _, err := sel.CompileUnit(context.Background(), u); err != nil {
				return 0, err
			}
		}
		total += processCPU() - t0
	}
	return float64(total) / 1e6, nil
}

func (w *bigfuncLib) traced(r *runner) (map[string]float64, error) {
	untraced := w.closedLoop(r, 0, r.window/2, nil)
	before := readMem()
	tracedRes := w.closedLoop(r, 0, r.window/2, func(i int, start, end time.Time) {
		r.tr.record(0, uint64(i+1), "repro.CompileUnit.live", start, end, w.items[i%len(w.items)].Nodes)
	})
	after := readMem()

	// Probe the traced phase's first pass over the stream: every unit once.
	n := min(len(tracedRes.lat), len(w.items))
	reqs := map[uint64]bool{}
	for i := 0; i < n; i++ {
		it := &w.items[i]
		if err := probeCompile(r, w.sels[it.Machine], 0, uint64(i+1), unitForests(it.Unit)); err != nil {
			return nil, err
		}
		reqs[uint64(i+1)] = true
	}
	ls := r.tr.layers(reqs)
	att := attribute(ls, n, mean(tracedRes.lat[:n]), "repro.CompileUnit.live")
	out := layerMetrics(r, ls, att, reqs)
	out["trace.overhead_ms"] = summarize(tracedRes.lat).P50 - summarize(untraced.lat).P50
	out["lat_p99_ms"] = summarize(untraced.lat).P99
	out["max_rate_rps"] = float64(len(untraced.lat)) / untraced.elapsed.Seconds()
	memMetrics(out, before, after, tracedRes.nodes)
	snapshotMetrics(out, w.sels)

	fresh := onDemand(w.machines)
	coldForests := func(mi int) []*repro.Forest {
		var fs []*repro.Forest
		for _, u := range w.cold[mi] {
			fs = append(fs, unitForests(u)...)
		}
		return fs
	}
	if err := coldLabel(out, len(w.machines), fresh, coldForests); err != nil {
		return nil, err
	}
	var err error
	if out["emit.first_large_ms"], err = firstCompileMs(len(w.machines), fresh, w.coldBig); err != nil {
		return nil, err
	}
	return out, nil
}
