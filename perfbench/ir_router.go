package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"time"

	"repro"
	"repro/internal/bench"
	"repro/internal/cluster"
	"repro/internal/gen"
	"repro/internal/ir"
	"repro/internal/server"
	"repro/internal/workload"
)

// ir_router: a two-replica fleet (bench.BootCluster) whose hybrid tables
// are built once by gen and spread through the blob exchange, behind
// cluster.Router, receiving an open loop of textual-IR POST /compile
// requests at one fixed rate, with a POST /swap to a machine's owner
// every irSwapEvery.
const (
	irRate        = 1000.0 // requests per second
	irSwapEvery   = 2 * time.Second
	irLimitMs     = 100.0
	irReplicas    = 2
	irReplication = 2
)

// irInput is one corpus function rendered as textual IR.
type irInput struct {
	machine int
	key     string
	url     string
	body    []byte
	forest  *repro.Forest // the tree the server parses from the text
	want    []int64
	nodes   int
}

type irRouter struct {
	machines []*repro.Machine
	inputs   []irInput

	storeDir string
	fleet    *bench.ClusterFleet
	client   *http.Client
	// owner is each machine's primary ring owner (replica index).
	owner []int

	genMs     float64
	blobBytes int
}

func (w *irRouter) setup(r *runner) error {
	w.machines, w.inputs, w.owner = nil, nil, nil
	w.genMs, w.blobBytes = 0, 0
	for _, name := range servedMachines {
		m, err := repro.LoadMachine(name)
		if err != nil {
			return err
		}
		w.machines = append(w.machines, m)
		// The AOT step the fleet runs once per machine, timed directly.
		t0 := time.Now()
		res, err := gen.CompileHybrid(m.Grammar, gen.Config{})
		if err != nil {
			return fmt.Errorf("gen %s: %w", name, err)
		}
		w.genMs += float64(time.Since(t0)) / 1e6
		w.blobBytes += len(res.Blob)
	}
	orc, err := newOracle(w.machines)
	if err != nil {
		return err
	}
	for mi, m := range w.machines {
		cs, err := workload.CompileAll(m.Grammar)
		if err != nil {
			return err
		}
		for _, c := range cs {
			for _, fn := range c.Unit.Funcs {
				text := fn.Forest.String(m.Grammar)
				f, err := ir.ParseTrees(m.Grammar, text)
				if err != nil {
					return fmt.Errorf("%s/%s: %w", c.Program.Name, fn.Name, err)
				}
				cost, err := orc.forestCost(mi, f)
				if err != nil {
					return err
				}
				body, err := json.Marshal(server.CompileRequest{Client: "perfbench", Trees: text})
				if err != nil {
					return err
				}
				w.inputs = append(w.inputs, irInput{machine: mi, key: m.Name + "/ir/" + c.Program.Name + "/" + fn.Name,
					url: "/compile?machine=" + m.Name, body: body, forest: f, want: []int64{cost}, nodes: f.NumNodes()})
			}
		}
	}
	w.storeDir, err = filepath.Abs(filepath.Join(r.outDir, fmt.Sprintf("fleet-%d", os.Getpid())))
	if err != nil {
		return err
	}
	if w.fleet, err = bench.BootCluster(servedMachines, irReplicas, irReplication, w.storeDir, 1); err != nil {
		return err
	}
	fs, err := w.fleet.FleetStats()
	if err != nil {
		return err
	}
	if err := bench.CheckWarmShards(fs); err != nil {
		return err
	}
	ring, err := cluster.NewRing(w.fleet.Peers, 0)
	if err != nil {
		return err
	}
	for _, m := range servedMachines {
		primary := ring.Owners(m, irReplication)[0]
		idx := slices.Index(w.fleet.Peers, primary)
		if idx < 0 {
			return fmt.Errorf("owner %s of %s not among the peers", primary, m)
		}
		w.owner = append(w.owner, idx)
	}
	w.client = newClient(r.procs)
	for i := range w.inputs {
		if err := w.send(r, i, w.fleet.RouterS.URL); err != nil {
			return fmt.Errorf("warm-up request: %w", err)
		}
	}
	return nil
}

func (w *irRouter) close() {
	if w.client != nil {
		w.client.CloseIdleConnections()
	}
	if w.fleet != nil {
		w.fleet.Close()
		w.fleet = nil
	}
	if w.storeDir != "" {
		os.RemoveAll(w.storeDir)
	}
}

func (w *irRouter) send(r *runner, i int, base string) error {
	in := &w.inputs[i]
	return postCompile(r, w.client, base+in.url, in.body, in.key, in.want, nil)
}

// swap hot-swaps machine mi on its primary owner and returns how long the
// POST /swap took.
func (w *irRouter) swap(r *runner, mi int) (time.Duration, error) {
	r.attempted.Add(1)
	url := w.fleet.Peers[w.owner[mi]] + "/swap?machine=" + servedMachines[mi]
	t0 := time.Now()
	resp, err := w.client.Post(url, "application/json", nil)
	if err != nil {
		return 0, r.chk.fail(fmt.Errorf("swap %s: %w", servedMachines[mi], err))
	}
	defer resp.Body.Close()
	msg, _ := io.ReadAll(resp.Body)
	d := time.Since(t0)
	if resp.StatusCode != http.StatusOK {
		return d, r.chk.fail(fmt.Errorf("swap %s: status %d: %s", servedMachines[mi], resp.StatusCode, bytes.TrimSpace(msg)))
	}
	return d, nil
}

// irOp is one scheduled op: a compile of input (or, for a swap, the
// machine index with swap set).
type irOp struct {
	input int
	swap  bool
}

// schedule is the seeded open loop over d: Poisson compile arrivals at
// irRate, plus a swap every irSwapEvery alternating machines.
func (w *irRouter) schedule(r *runner, d time.Duration) ([]time.Duration, []irOp) {
	type ev struct {
		at time.Duration
		op irOp
	}
	arr := poissonSchedule(newRand(r.seed, streamSchedule), irRate, d)
	picks := newDeck(newRand(r.seed, streamPicks), len(w.inputs))
	evs := make([]ev, 0, len(arr)+int(d/irSwapEvery))
	for _, at := range arr {
		evs = append(evs, ev{at, irOp{input: picks.next()}})
	}
	for k, at := 0, irSwapEvery/2; at < d; k, at = k+1, at+irSwapEvery {
		evs = append(evs, ev{at, irOp{input: k % len(w.machines), swap: true}})
	}
	sort.SliceStable(evs, func(i, j int) bool { return evs[i].at < evs[j].at })
	due := make([]time.Duration, len(evs))
	ops := make([]irOp, len(evs))
	for i, e := range evs {
		due[i], ops[i] = e.at, e.op
	}
	return due, ops
}

// phase runs one open-loop phase and splits its results into compile
// latencies and swap durations.
type irPhase struct {
	res     openResult
	lat     []float64 // compile ops only
	late    []float64
	due     []time.Duration
	swapsMs []float64
	nodes   int
}

// runPhase runs the schedule over d, traced or not; with between set (and
// untraced) it runs in coldSlices slices with between called after each.
func (w *irRouter) runPhase(r *runner, d time.Duration, traced bool, between func()) irPhase {
	due, ops := w.schedule(r, d)
	swapMs := make([]float64, len(ops))
	send := func(i int, parent int32) error {
		op := ops[i]
		if op.swap {
			t, err := w.swap(r, op.input)
			swapMs[i] = float64(t) / 1e6
			return err
		}
		start := time.Now()
		err := w.send(r, op.input, w.fleet.RouterS.URL)
		if traced {
			r.tr.record(parent, uint64(i+1), "cluster.route.live", start, time.Now(), 0)
		}
		return err
	}
	var p irPhase
	switch {
	case traced:
		p.res = runTracedLoop(r, due, send)
	case between != nil:
		p.res = runSliced(due, d, coldSlices, r.procs, func(i int) error { return send(i, 0) }, between)
	default:
		p.res = runOpenLoop(due, r.procs, 3*d+time.Second, func(i int) error { return send(i, 0) })
	}
	for i, op := range ops {
		if op.swap {
			p.swapsMs = append(p.swapsMs, swapMs[i])
			continue
		}
		p.lat = append(p.lat, p.res.Lat[i])
		p.late = append(p.late, p.res.Late[i])
		p.due = append(p.due, due[i])
		p.nodes += w.inputs[op.input].nodes
	}
	return p
}

func (w *irRouter) e2e(r *runner) (map[string]float64, error) {
	// An unmeasured lead-in settles the fleet after set-up.
	lead := time.Duration(warmShare * float64(r.window))
	w.runPhase(r, lead, false, nil)
	heap := startHeapSampler()
	cold := &coldSampler{once: w.coldOnce}
	var unmeasured time.Duration
	start := time.Now()
	p := w.runPhase(r, r.window-lead, false, func() { unmeasured += cold.turnBeside(heap) })
	elapsed := time.Since(start) - unmeasured
	peak := heap.Stop()
	lat := summarize(p.lat)
	p50 := secondMedian(p.lat, p.due)
	r.report["latency"] = lat
	r.report["p50_by_second_ms"] = p50
	r.report["rate_rps"] = irRate
	r.report["latency_limit_ms"] = irLimitMs
	r.report["swap_ms"] = p.swapsMs
	r.report["late_p99_ms"] = summarize(p.late).P99
	coldMs, err := cold.result(r)
	if err != nil {
		return nil, err
	}
	return map[string]float64{
		"lat_p50_ms":   p50,
		"lat_p99_ms":   lat.P99,
		"max_rate_rps": w.maxRate(p, r.window-lead),
		"knodes_per_s": float64(p.nodes) / elapsed.Seconds() / 1e3,
		"cold_ms":      coldMs,
		"peak_heap_mb": peak,
	}, nil
}

// maxRate is the phase's rate that met the limit (see maxRate): the
// fixed rate's goodput.
func (w *irRouter) maxRate(p irPhase, d time.Duration) float64 {
	p99 := summarize(p.lat).P99
	ok := p99 <= irLimitMs && p.res.endLateness() <= irLimitMs && p.res.failures() == 0
	return maxRate([]rung{{rate: irRate, p99: p99, ok: ok, goodput: goodput(p.lat, irLimitMs, d)}}, irLimitMs)
}

// goodput is the rate of ops that met limitMs over window.
func goodput(lat []float64, limitMs float64, window time.Duration) float64 {
	n := 0
	for _, l := range lat {
		if l <= limitMs {
			n++
		}
	}
	return float64(n) / window.Seconds()
}

// hybrid builds fresh hybrid selectors from the blob the machine's owner
// serves — the engine a swap cuts over to.
func (w *irRouter) hybrid() func(mi int, c *repro.Counters) (*repro.Selector, error) {
	return func(mi int, c *repro.Counters) (*repro.Selector, error) {
		path, _, ok := w.fleet.Replicas[w.owner[mi]].Store().Lookup(servedMachines[mi])
		if !ok {
			return nil, fmt.Errorf("no blob for %s on its owner", servedMachines[mi])
		}
		return w.machines[mi].NewSelector(repro.KindHybrid, repro.Options{PreloadPath: path, Metrics: c})
	}
}

func (w *irRouter) forests(mi int) []*repro.Forest {
	var fs []*repro.Forest
	for _, in := range w.inputs {
		if in.machine == mi {
			fs = append(fs, in.forest)
		}
	}
	return fs
}

// coldOnce compiles every IR input once on fresh hybrid selectors: the
// cold dynamic-rule path a swap reopens. It returns the summed CPU ms.
func (w *irRouter) coldOnce() (float64, error) {
	fresh := w.hybrid()
	var total time.Duration
	for mi := range w.machines {
		sel, err := fresh(mi, nil)
		if err != nil {
			return 0, err
		}
		t0 := processCPU()
		for _, f := range w.forests(mi) {
			if _, err := sel.Compile(context.Background(), f); err != nil {
				return 0, err
			}
		}
		total += processCPU() - t0
	}
	return float64(total) / 1e6, nil
}

func (w *irRouter) traced(r *runner) (map[string]float64, error) {
	untraced := w.runPhase(r, r.window/2, false, nil)
	before := readMem()
	p := w.runPhase(r, r.window/2, true, nil)
	after := readMem()

	// Probe compile requests spread over the traced phase (request ids
	// are op indexes + 1; swaps are not probed).
	_, ops := w.schedule(r, r.window/2)
	var compiles []int
	for i, op := range ops {
		if !op.swap {
			compiles = append(compiles, i)
		}
	}
	reqs := map[uint64]bool{}
	var e2e []float64
	for _, k := range spread(len(compiles), probeRequests) {
		i := compiles[k]
		if err := w.probe(r, uint64(i+1), ops[i].input); err != nil {
			return nil, err
		}
		reqs[uint64(i+1)] = true
		e2e = append(e2e, p.res.Lat[i])
	}
	ls := r.tr.layers(reqs)
	att := attribute(ls, len(reqs), mean(e2e), "request", "cluster.route.live")
	out := layerMetrics(r, ls, att, reqs)
	out["ir.parse_ns_per_node"] = nsPerNode(ls["ir.ParseTrees"], false)
	if s := ls["cluster.route"]; s != nil && s.Count > 0 {
		out["cluster.hop_us"] = s.Self / float64(s.Count) / 1e3
	}
	out["server.swap_ms"] = mean(p.swapsMs)
	out["loadgen.late_p99_ms"] = summarize(p.late).P99
	out["loadgen.backlog"] = float64(p.res.MaxBacklog)
	out["trace.overhead_ms"] = summarize(p.lat).P50 - summarize(untraced.lat).P50
	out["lat_p99_ms"] = summarize(untraced.lat).P99
	out["max_rate_rps"] = w.maxRate(untraced, r.window/2)
	out["gen.hybrid_ms"] = w.genMs
	out["gen.blob_bytes"] = float64(w.blobBytes)
	memMetrics(out, before, after, p.nodes)
	fs, err := w.fleet.FleetStats()
	if err != nil {
		return nil, err
	}
	out["cluster.retries"] = float64(fs.Routing.Retries)
	out["cluster.failovers"] = float64(fs.Routing.Failovers)
	var sels []*repro.Selector
	for mi, name := range servedMachines {
		if _, sel, err := w.fleet.Replicas[w.owner[mi]].Registry().Get(name); err == nil {
			sels = append(sels, sel)
		}
	}
	snapshotMetrics(out, sels)
	if err := coldLabel(out, len(w.machines), w.hybrid(), w.forests); err != nil {
		return nil, err
	}
	large := make([]*repro.Forest, len(w.machines))
	for mi := range w.machines {
		for _, f := range w.forests(mi) {
			if large[mi] == nil || f.NumNodes() > large[mi].NumNodes() {
				large[mi] = f
			}
		}
	}
	if out["emit.first_large_ms"], err = firstCompileMs(len(w.machines), w.hybrid(), large); err != nil {
		return nil, err
	}
	return out, nil
}

// probe decomposes compile request req (input i) into its layers' calls:
// the router hop, the owner's socket, its handler, and below it JSON, the
// IR parser, the server's submission and the compile layers.
func (w *irRouter) probe(r *runner, req uint64, i int) error {
	in := &w.inputs[i]
	rep := w.fleet.Replicas[w.owner[in.machine]]
	owner := w.fleet.Peers[w.owner[in.machine]]
	routeID, rtID, hid := r.tr.reserve(), r.tr.reserve(), r.tr.reserve()
	t0 := time.Now()
	if err := w.send(r, i, w.fleet.RouterS.URL); err != nil {
		return err
	}
	t1 := time.Now()
	if err := w.send(r, i, owner); err != nil {
		return err
	}
	t2 := time.Now()
	rec := httptest.NewRecorder()
	rep.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodPost, in.url, bytes.NewReader(in.body)))
	t3 := time.Now()
	if rec.Code != http.StatusOK {
		return fmt.Errorf("probe %s: status %d", in.key, rec.Code)
	}
	r.tr.put(routeID, 0, req, "cluster.route", t0, t1, in.nodes)
	r.tr.put(rtID, routeID, req, "http.roundtrip", t1, t2, in.nodes)
	r.tr.put(hid, rtID, req, "server.handler", t2, t3, in.nodes)

	var creq server.CompileRequest
	j0 := time.Now()
	if err := json.Unmarshal(in.body, &creq); err != nil {
		return err
	}
	r.tr.record(hid, req, "server.json", j0, time.Now(), 0)
	var cresp server.CompileResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &cresp); err != nil {
		return err
	}
	j0 = time.Now()
	if err := json.NewEncoder(io.Discard).Encode(cresp); err != nil {
		return err
	}
	r.tr.record(hid, req, "server.json", j0, time.Now(), 0)

	p0 := time.Now()
	f, err := ir.ParseTrees(w.machines[in.machine].Grammar, creq.Trees)
	if err != nil {
		return err
	}
	r.tr.record(hid, req, "ir.ParseTrees", p0, time.Now(), f.NumNodes())
	return probeSubmit(r, rep.Server(), rep.Registry(), hid, req, servedMachines[in.machine], []*repro.Forest{f})
}
