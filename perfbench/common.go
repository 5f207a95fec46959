package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"runtime"
	"runtime/debug"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro"
	"repro/internal/reduce"
	"repro/internal/server"
	"repro/internal/workload"
)

const (
	// cold_ms is the median of fresh-engine repetitions taken in
	// coldSlices turns spread over the measured window, each turn
	// repeating for coldBudget/coldSlices and at least once (see
	// coldSampler). Each repetition is timed on the process CPU clock
	// (processCPU): a cold compile is pure computation, and the wall clock
	// of a shared virtual machine moves it by half with the neighbours'
	// load.
	coldSlices = 10
	coldBudget = 2 * time.Second
	// probeRequests is how many traced requests the probes decompose,
	// spread evenly over the traced phase.
	probeRequests = 300
	// warmShare is the share of the window an open loop spends in an
	// unmeasured lead-in at its nominal rate.
	warmShare = 0.05
)

// newClient is the load generator's HTTP client: at most conns
// connections, kept alive across requests.
func newClient(conns int) *http.Client {
	return &http.Client{Transport: &http.Transport{
		MaxConnsPerHost:     conns,
		MaxIdleConnsPerHost: conns,
		DisableCompression:  true,
	}}
}

// postCompile sends one POST /compile and checks the answer against the
// oracle's costs. Every failure is counted by the checker; a 429 also
// counts towards shed when shed is non-nil.
func postCompile(r *runner, c *http.Client, url string, body []byte, key string, want []int64, shed *atomic.Int64) error {
	r.attempted.Add(1)
	resp, err := c.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		return r.chk.fail(fmt.Errorf("%s: %w", key, err))
	}
	defer func() {
		// Drain what the decoder left (its trailing newline), so the
		// keep-alive connection is reused.
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
	}()
	if resp.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(resp.Body)
		if resp.StatusCode == http.StatusTooManyRequests && shed != nil {
			shed.Add(1)
		}
		return r.chk.fail(fmt.Errorf("%s: status %d: %s", key, resp.StatusCode, bytes.TrimSpace(msg)))
	}
	buf := bodyBufs.Get().(*bytes.Buffer)
	defer bodyBufs.Put(buf)
	buf.Reset()
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		return r.chk.fail(fmt.Errorf("%s: reading response: %w", key, err))
	}
	// Costs are checked on every answer, assembly on an input's first
	// answer only: the client shares the server's heap, and decoding every
	// assembly string would add its garbage to the server's collections.
	var cr struct{ Outputs []struct{ Cost int64 } }
	if err := json.Unmarshal(buf.Bytes(), &cr); err != nil {
		return r.chk.fail(fmt.Errorf("%s: decoding response: %w", key, err))
	}
	costs := make([]int64, len(cr.Outputs))
	for i, o := range cr.Outputs {
		costs[i] = o.Cost
	}
	var asm []string
	if !r.chk.seen(key) {
		var full server.CompileResponse
		if err := json.Unmarshal(buf.Bytes(), &full); err != nil {
			return r.chk.fail(fmt.Errorf("%s: decoding response: %w", key, err))
		}
		for _, o := range full.Outputs {
			asm = append(asm, o.Asm)
		}
	}
	return r.chk.check(key, want, costs, asm)
}

// bodyBufs recycles response buffers across requests.
var bodyBufs = sync.Pool{New: func() any { return new(bytes.Buffer) }}

func (res openResult) failures() int {
	n := 0
	for _, err := range res.Err {
		if err != nil {
			n++
		}
	}
	return n
}

// runTracedLoop is runOpenLoop with live spans: a root "request" span per
// op over its latency, and its "loadgen.late" child from the latency's
// start to the send. send receives the root's id for its own child spans.
// Request ids are op index + 1, which the probes reuse.
func runTracedLoop(r *runner, due []time.Duration, send func(i int, parent int32) error) openResult {
	ids := make([]int32, len(due))
	for i := range ids {
		ids[i] = r.tr.reserve()
	}
	var deadline time.Duration
	if len(due) > 0 {
		deadline = 3*due[len(due)-1] + time.Second
	}
	start := time.Now()
	res := runOpenLoop(due, r.procs, deadline, func(i int) error {
		return send(i, ids[i])
	})
	for i := range due {
		dueAt := start.Add(due[i])
		from := dueAt.Add(time.Duration(res.From[i] * 1e6))
		r.tr.put(ids[i], 0, uint64(i+1), "request", from, from.Add(time.Duration(res.Lat[i]*1e6)), 0)
		r.tr.record(ids[i], uint64(i+1), "loadgen.late", from, dueAt.Add(time.Duration(res.Late[i]*1e6)), 0)
	}
	return res
}

// releaseLabeling hands a labeling back to engines that pool them, as
// Compile does internally.
func releaseLabeling(sel *repro.Selector, lab reduce.Labeling) {
	if rc, ok := sel.Labeler().(reduce.LabelingRecycler); ok {
		rc.ReleaseLabeling(lab)
	}
}

// probeCompile times, for each forest on sel, a full Compile, a
// Compile(CostOnly()) and a Labeler().Label plus release, as spans nested
// by parent: the Compile span's self time is emission, the CostOnly
// span's is reduction, the Label span is labeling.
func probeCompile(r *runner, sel *repro.Selector, parent int32, req uint64, fs []*repro.Forest) error {
	ctx := context.Background()
	for _, f := range fs {
		n := f.NumNodes()
		cid, oid := r.tr.reserve(), r.tr.reserve()
		c0 := time.Now()
		if _, err := sel.Compile(ctx, f); err != nil {
			return err
		}
		c1 := time.Now()
		if _, err := sel.Compile(ctx, f, repro.CostOnly()); err != nil {
			return err
		}
		o1 := time.Now()
		lab, err := sel.Label(f)
		if err != nil {
			return err
		}
		releaseLabeling(sel, lab)
		l1 := time.Now()
		r.tr.put(cid, parent, req, "repro.Compile", c0, c1, n)
		r.tr.put(oid, cid, req, "repro.Compile.CostOnly", c1, o1, n)
		r.tr.record(oid, req, "core.Label", o1, l1, n)
	}
	return nil
}

// probeSubmit times the server's in-process submission of fs (SubmitBatch
// through every Future.Wait), a registry lease, and the compile layers on
// the leased selector, all under parent.
func probeSubmit(r *runner, srv *server.Server, reg *repro.Registry, parent int32, req uint64, machine string, fs []*repro.Forest) error {
	nodes := 0
	for _, f := range fs {
		nodes += f.NumNodes()
	}
	sid := r.tr.reserve()
	t0 := time.Now()
	futs, err := srv.SubmitBatch(context.Background(), "perfbench", machine, fs)
	if err != nil {
		return err
	}
	for _, f := range futs {
		if _, err := f.Wait(); err != nil {
			return err
		}
	}
	t1 := time.Now()
	r.tr.put(sid, parent, req, "server.SubmitBatch", t0, t1, nodes)
	t0 = time.Now()
	lease, err := reg.Acquire(machine)
	if err != nil {
		return err
	}
	lease.Release()
	r.tr.record(sid, req, "repro.Acquire", t0, time.Now(), 0)
	lease, err = reg.Acquire(machine)
	if err != nil {
		return err
	}
	defer lease.Release()
	return probeCompile(r, lease.Selector, sid, req, fs)
}

// nsPerNode is a layer's time per IR node: self time when self is set,
// inclusive otherwise; 0 when the layer is absent.
func nsPerNode(ls *layerStat, self bool) float64 {
	if ls == nil || ls.Nodes == 0 {
		return 0
	}
	if self {
		return ls.Self / float64(ls.Nodes)
	}
	return ls.Total / float64(ls.Nodes)
}

// perCall is a layer's mean inclusive time per call in unit ns; 0 when
// absent.
func perCall(ls *layerStat, unit float64) float64 {
	if ls == nil || ls.Count == 0 {
		return 0
	}
	return ls.Total / float64(ls.Count) / unit
}

// layerMetrics derives the per-layer metrics every workload shares from
// the probe spans, plus the attribution of the traced latency.
func layerMetrics(r *runner, ls map[string]*layerStat, att attribution, reqs map[uint64]bool) map[string]float64 {
	requests := len(reqs)
	out := map[string]float64{
		"core.label_warm_ns_per_node": nsPerNode(ls["core.Label"], false),
		"reduce.ns_per_node":          nsPerNode(ls["repro.Compile.CostOnly"], true),
		"repro.acquire_ns":            perCall(ls["repro.Acquire"], 1),
		"server.submit_wait_us":       perCall(ls["server.SubmitBatch"], 1e3),
		"server.handler_us":           perCall(ls["server.handler"], 1e3),
		"http.roundtrip_us":           perCall(ls["http.roundtrip"], 1e3),
		"trace.e2e_ms":                att.E2EMs,
		"trace.attributed_ms":         att.AttributedMs,
		"trace.unattributed_ms":       att.UnattributedMs,
	}
	if s := ls["server.json"]; s != nil && requests > 0 {
		out["server.json_us"] = s.Total / float64(requests) / 1e3
	}
	if s := ls["http.roundtrip"]; s != nil && s.Count > 0 {
		out["http.socket_us"] = s.Self / float64(s.Count) / 1e3
	}
	for _, band := range []struct {
		name   string
		lo, hi int
	}{{"emit.ns_per_node.small", 0, 256}, {"emit.ns_per_node.large", 1024, 1 << 30}} {
		if self, nodes := r.tr.sizedTotals("repro.Compile", "repro.Compile.CostOnly", band.lo, band.hi, reqs); nodes > 0 {
			out[band.name] = self / nodes
		}
	}
	r.report["attribution"] = att
	r.report["layers"] = ls
	return out
}

// memStats snapshots the runtime counters the per-layer metrics diff.
func readMem() runtime.MemStats {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m
}

func memMetrics(out map[string]float64, before, after runtime.MemStats, nodes int) {
	out["runtime.gc_cycles"] = float64(after.NumGC - before.NumGC)
	out["runtime.gc_pause_ms"] = float64(after.PauseTotalNs-before.PauseTotalNs) / 1e6
	if nodes > 0 {
		out["runtime.alloc_bytes_per_node"] = float64(after.TotalAlloc-before.TotalAlloc) / float64(nodes)
	}
}

// coldLabel labels every machine's forests on a fresh selector from
// newSel that counts its work, and reports the time per node, the table
// miss ratio and the states built.
func coldLabel(out map[string]float64, n int, newSel func(mi int, c *repro.Counters) (*repro.Selector, error), forests func(mi int) []*repro.Forest) error {
	var c repro.Counters
	var elapsed time.Duration
	nodes := 0
	for mi := 0; mi < n; mi++ {
		sel, err := newSel(mi, &c)
		if err != nil {
			return err
		}
		for _, f := range forests(mi) {
			t0 := time.Now()
			lab, err := sel.Label(f)
			if err != nil {
				return err
			}
			releaseLabeling(sel, lab)
			elapsed += time.Since(t0)
			nodes += f.NumNodes()
		}
	}
	out["core.label_cold_ns_per_node"] = float64(elapsed) / float64(nodes)
	if c.TableProbes > 0 {
		out["core.miss_ratio"] = float64(c.TableMisses) / float64(c.TableProbes)
	}
	out["core.states_built"] = float64(c.StatesBuilt)
	return nil
}

// firstCompileMs is the summed time of each machine's first Compile of
// fs[mi] on a fresh selector from newSel: cold labeling plus the
// emitter's growth to the forest's size.
func firstCompileMs(n int, newSel func(mi int, c *repro.Counters) (*repro.Selector, error), fs []*repro.Forest) (float64, error) {
	var total time.Duration
	for mi := 0; mi < n; mi++ {
		sel, err := newSel(mi, nil)
		if err != nil {
			return 0, err
		}
		t0 := time.Now()
		if _, err := sel.Compile(context.Background(), fs[mi]); err != nil {
			return 0, err
		}
		total += time.Since(t0)
	}
	return float64(total) / 1e6, nil
}

// largestForest is the biggest function forest of a compiled corpus.
func largestForest(cs []*workload.Compiled) *repro.Forest {
	var best *repro.Forest
	for _, c := range cs {
		for _, f := range c.Forests() {
			if best == nil || f.NumNodes() > best.NumNodes() {
				best = f
			}
		}
	}
	return best
}

// onDemand builds fresh on-demand selectors for machines.
func onDemand(machines []*repro.Machine) func(mi int, c *repro.Counters) (*repro.Selector, error) {
	return func(mi int, c *repro.Counters) (*repro.Selector, error) {
		return machines[mi].NewSelector(repro.KindOnDemand, repro.Options{Metrics: c})
	}
}

// snapshotMetrics sums the serving selectors' automaton sizes.
func snapshotMetrics(out map[string]float64, sels []*repro.Selector) {
	var st, tr, mem int
	for _, sel := range sels {
		s := sel.Snapshot()
		st, tr, mem = st+s.States, tr+s.Transitions, mem+s.MemoryBytes
	}
	out["core.states"], out["core.transitions"], out["core.table_bytes"] = float64(st), float64(tr), float64(mem)
}

// rung is one offered rate of an open loop and what it achieved.
type rung struct {
	rate    float64
	p99     float64 // ms
	ok      bool    // met the latency limit with no growing backlog
	goodput float64 // requests per second that met the limit
}

// maxRate is the highest rate that meets limitMs: between the highest
// rung that meets it and the next rung, which misses, the rate at which
// p99 crosses the limit, interpolated on log-log scales (so the figure
// moves smoothly with capacity instead of jumping a whole rung). When the
// top rung meets the limit it is that rung's goodput (its rate, less the
// requests that missed); when no rung does, the first rung's goodput.
func maxRate(rungs []rung, limitMs float64) float64 {
	last := -1
	for i, g := range rungs {
		if g.ok {
			last = i
		}
	}
	switch {
	case last < 0:
		return rungs[0].goodput
	case last == len(rungs)-1:
		return rungs[last].goodput
	}
	lo, hi := rungs[last], rungs[last+1]
	p99 := max(hi.p99, limitMs) // a backlog miss can have a low median p99
	if p99 <= lo.p99 || lo.p99 <= 0 {
		return lo.rate
	}
	f := math.Log(limitMs/lo.p99) / math.Log(p99/lo.p99)
	return lo.rate * math.Exp(f*math.Log(hi.rate/lo.rate))
}

// coldSampler collects cold repetitions (each a measurement in ms) in
// turns between slices of the measured window. A burst of the host's load
// that lasts a second or two then slows a few of the repetitions instead
// of all of them.
type coldSampler struct {
	once func() (float64, error)
	ms   []float64
	err  error
}

// turn repeats the measurement for coldBudget/coldSlices, at least once.
// Each repetition starts on a freshly collected heap whose free memory has
// gone back to the system, so none pays for the last one's garbage or
// reuses its pages, and runs on one P: a cold compile is sequential, and
// on two the collector's idle workers would add however much of the other
// CPU happened to be free. The turn ends with a collection, so the window
// resumes on a clean heap.
func (c *coldSampler) turn() {
	if c.err != nil {
		return
	}
	procs := runtime.GOMAXPROCS(1)
	defer runtime.GOMAXPROCS(procs)
	start := time.Now()
	for n := 0; n == 0 || time.Since(start) < coldBudget/coldSlices; n++ {
		debug.FreeOSMemory()
		v, err := c.once()
		if err != nil {
			c.err = err
			return
		}
		c.ms = append(c.ms, v)
	}
	runtime.GC()
}

// turnBeside is a turn with h's sampling paused; it returns how long the
// turn took, which the window around it does not count.
func (c *coldSampler) turnBeside(h *heapSampler) time.Duration {
	t0 := time.Now()
	h.pause()
	c.turn()
	h.resume()
	return time.Since(t0)
}

// result reports the repetitions into the run's report and returns their
// median.
func (c *coldSampler) result(r *runner) (float64, error) {
	if c.err != nil {
		return 0, c.err
	}
	r.report["cold_ms"] = c.ms
	return median(c.ms), nil
}

// runSliced is runOpenLoop over the schedule due, cut into slices of
// length d/slices, with between called after each slice. Each slice is an
// open loop of its own, which starts when between returns; the result is
// in due's order.
func runSliced(due []time.Duration, d time.Duration, slices, conns int, send func(i int) error, between func()) openResult {
	var res openResult
	slice := d / time.Duration(slices)
	lo := 0
	for k := 0; k < slices; k++ {
		hi := len(due)
		if k < slices-1 {
			end := time.Duration(k+1) * slice
			hi = lo + sort.Search(len(due)-lo, func(j int) bool { return due[lo+j] >= end })
		}
		base, off := time.Duration(k)*slice, lo
		sub := make([]time.Duration, hi-lo)
		for j := range sub {
			sub[j] = due[lo+j] - base
		}
		sr := runOpenLoop(sub, conns, 3*slice+time.Second, func(i int) error { return send(off + i) })
		res.Lat = append(res.Lat, sr.Lat...)
		res.Late = append(res.Late, sr.Late...)
		res.From = append(res.From, sr.From...)
		res.Err = append(res.Err, sr.Err...)
		res.MaxBacklog = max(res.MaxBacklog, sr.MaxBacklog)
		res.Sent += sr.Sent
		res.Skipped += sr.Skipped
		lo = hi
		between()
	}
	return res
}

// unitForests lists u's function forests in order.
func unitForests(u *repro.Unit) []*repro.Forest {
	fs := make([]*repro.Forest, len(u.Funcs))
	for i, fn := range u.Funcs {
		fs[i] = fn.Forest
	}
	return fs
}

// spread picks k of n indexes, evenly spaced (all of them when n <= k).
func spread(n, k int) []int {
	k = min(n, k)
	out := make([]int, k)
	for j := range out {
		out[j] = j * n / k
	}
	return out
}
