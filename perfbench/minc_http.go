package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"time"

	"repro"
	"repro/internal/frontend"
	"repro/internal/server"
	"repro/internal/workload"
)

// minc_http: one compile server over on-demand engines for every served
// machine, behind server.NewHandler on a loopback listener, receiving an
// open loop of POST /compile MinC requests at a ladder of fixed rates.

// The ladder: fixed offered rates (requests per second) from well under
// to just over what a shared 2-CPU machine sustains in this open loop
// (1500 to 2500 requests per second, depending on its neighbours), each
// given a share of the window; with the lead-in (warmShare) the shares
// add up to the whole window. mincNominal is the rung whose latency is the
// headline lat_p50_ms: the lowest, where queueing adds least
// and the figures move least with the machine's load from elsewhere.
var (
	mincRates   = []float64{500, 1000, 2000, 4000}
	mincShares  = []float64{0.55, 0.1, 0.15, 0.15}
	mincNominal = 0
)

// mincLimitMs is the p99 latency limit a rung must meet, with no growing
// backlog, to count towards max_rate_rps (see maxRate).
const mincLimitMs = 100.0

// mincInput is one (machine, program) request, prepared in set-up.
type mincInput struct {
	machine int
	url     string // path and query
	body    []byte
	key     string
	want    []int64
	nodes   int
}

type mincHTTP struct {
	machines []*repro.Machine
	inputs   []mincInput // machine-major
	programs int

	reg     *repro.Registry
	srv     *server.Server
	handler *server.Handler
	ln      net.Listener
	hs      *http.Server
	served  chan struct{}
	base    string
	client  *http.Client
}

func (w *mincHTTP) setup(r *runner) error {
	progs := workload.All()
	w.programs = len(progs)
	w.machines = nil
	w.inputs = nil
	w.reg = repro.NewRegistry()
	for _, name := range servedMachines {
		m, err := repro.LoadMachine(name)
		if err != nil {
			return err
		}
		w.machines = append(w.machines, m)
		if err := w.reg.AddMachine(m, repro.KindOnDemand, repro.Options{}); err != nil {
			return err
		}
	}
	orc, err := newOracle(w.machines)
	if err != nil {
		return err
	}
	for mi, m := range w.machines {
		for _, p := range progs {
			u, err := m.CompileMinC(p.Src)
			if err != nil {
				return fmt.Errorf("%s/%s: %w", m.Name, p.Name, err)
			}
			want, err := orc.unitCosts(mi, u)
			if err != nil {
				return err
			}
			body, err := json.Marshal(server.CompileRequest{Client: "perfbench", MinC: p.Src})
			if err != nil {
				return err
			}
			w.inputs = append(w.inputs, mincInput{machine: mi, url: "/compile?machine=" + m.Name,
				body: body, key: m.Name + "/minc/" + p.Name, want: want, nodes: u.TotalNodes()})
			// Warm-up: the automaton learns the corpus before timing.
			lease, err := w.reg.Acquire(m.Name)
			if err != nil {
				return err
			}
			_, err = lease.Selector.CompileUnit(context.Background(), u)
			lease.Release()
			if err != nil {
				return err
			}
		}
	}
	w.srv = server.New(w.reg, server.Config{Workers: r.procs})
	w.handler = server.NewHandler(w.srv)
	if w.ln, err = net.Listen("tcp", "127.0.0.1:0"); err != nil {
		return err
	}
	w.base = "http://" + w.ln.Addr().String()
	w.hs = &http.Server{Handler: w.handler}
	w.served = make(chan struct{})
	go func() {
		defer close(w.served)
		w.hs.Serve(w.ln)
	}()
	w.client = newClient(r.procs)
	// One request per input over the real socket: connections open and
	// every path is exercised before the first timed request.
	for i := range w.inputs {
		if err := w.send(r, i, nil); err != nil {
			return fmt.Errorf("warm-up request: %w", err)
		}
	}
	return nil
}

func (w *mincHTTP) close() {
	if w.hs != nil {
		w.hs.Close()
		<-w.served
		w.hs = nil
	}
	if w.client != nil {
		w.client.CloseIdleConnections()
	}
	if w.srv != nil {
		w.srv.Shutdown()
		w.srv = nil
	}
}

// send posts input i over the loopback socket and checks the answer.
func (w *mincHTTP) send(r *runner, i int, shed *atomic.Int64) error {
	in := &w.inputs[i]
	return postCompile(r, w.client, w.base+in.url, in.body, in.key, in.want, shed)
}

// picks draws the seeded request sequence for n ops.
func (w *mincHTTP) picks(r *runner, n int) []int {
	return deal(newRand(r.seed, streamPicks), len(w.inputs), n)
}

// ladder runs the lead-in and then every rung, scaled to d, and returns
// the nominal rung's result with the ladder's metrics. With cold set, the
// nominal rung runs in coldSlices slices with a turn of cold's between
// them, outside the measured time.
func (w *mincHTTP) ladder(r *runner, d time.Duration, cold *coldSampler) (openResult, map[string]float64) {
	rng := newRand(r.seed, streamSchedule)
	lead := time.Duration(warmShare * float64(d))
	warm := poissonSchedule(rng, mincRates[mincNominal], lead)
	var scheds [][]time.Duration
	total := len(warm)
	for k, rate := range mincRates {
		s := poissonSchedule(rng, rate, time.Duration(mincShares[k]*float64(d)))
		scheds = append(scheds, s)
		total += len(s)
	}
	picks := w.picks(r, total)
	// An unmeasured lead-in at the nominal rate settles the connections,
	// the scheduler and the collector's pacing after set-up.
	runOpenLoop(warm, r.procs, 3*lead+time.Second, func(i int) error {
		return w.send(r, picks[i], nil)
	})
	off := len(warm)
	heap := startHeapSampler()
	var nominal openResult
	var rungs []rung
	var report []map[string]any
	nodes := 0
	var unmeasured time.Duration
	between := func() { unmeasured += cold.turnBeside(heap) }
	start := time.Now()
	for k, sched := range scheds {
		ps := picks[off : off+len(sched)]
		off += len(sched)
		rd := time.Duration(mincShares[k] * float64(d))
		send := func(i int) error { return w.send(r, ps[i], nil) }
		var res openResult
		if k == mincNominal && cold != nil {
			res = runSliced(sched, rd, coldSlices, r.procs, send, between)
		} else {
			res = runOpenLoop(sched, r.procs, 3*rd+time.Second, send)
		}
		for _, p := range ps {
			nodes += w.inputs[p].nodes
		}
		lat := summarize(res.Lat)
		ok := lat.P99 <= mincLimitMs && res.endLateness() <= mincLimitMs && res.failures() == 0
		rungs = append(rungs, rung{rate: mincRates[k], p99: lat.P99, ok: ok, goodput: goodput(res.Lat, mincLimitMs, rd)})
		report = append(report, map[string]any{"rate_rps": mincRates[k], "latency": lat,
			"late_p99_ms": summarize(res.Late).P99, "max_backlog": res.MaxBacklog, "meets_limit": ok})
		if k == mincNominal {
			nominal = res
		}
	}
	elapsed := time.Since(start) - unmeasured
	peak := heap.Stop()
	r.report["ladder"] = report
	r.report["latency_limit_ms"] = mincLimitMs
	lat := summarize(nominal.Lat)
	p50 := secondMedian(nominal.Lat, scheds[mincNominal])
	r.report["nominal"] = map[string]any{"rate_rps": mincRates[mincNominal], "latency": lat, "p50_by_second_ms": p50}
	return nominal, map[string]float64{
		"lat_p50_ms":   p50,
		"lat_p99_ms":   lat.P99,
		"max_rate_rps": maxRate(rungs, mincLimitMs),
		"knodes_per_s": float64(nodes) / elapsed.Seconds() / 1e3,
		"peak_heap_mb": peak,
	}
}

func (w *mincHTTP) e2e(r *runner) (map[string]float64, error) {
	cold := &coldSampler{once: w.coldOnce}
	_, out := w.ladder(r, r.window, cold)
	coldMs, err := cold.result(r)
	if err != nil {
		return nil, err
	}
	out["cold_ms"] = coldMs
	return out, nil
}

// coldOnce builds a fresh registry of on-demand engines, serves every
// corpus program once through the HTTP handler in process, and returns
// the CPU ms the serving took.
func (w *mincHTTP) coldOnce() (float64, error) {
	reg := repro.NewRegistry()
	for _, m := range w.machines {
		if err := reg.AddMachine(m, repro.KindOnDemand, repro.Options{}); err != nil {
			return 0, err
		}
	}
	srv := server.New(reg, server.Config{Workers: 1})
	defer srv.Shutdown()
	h := server.NewHandler(srv)
	start := processCPU()
	for i := range w.inputs {
		in := &w.inputs[i]
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, in.url, bytes.NewReader(in.body)))
		if rec.Code != http.StatusOK {
			return 0, fmt.Errorf("cold %s: status %d: %s", in.key, rec.Code, rec.Body.String())
		}
	}
	return float64(processCPU()-start) / 1e6, nil
}

func (w *mincHTTP) traced(r *runner) (map[string]float64, error) {
	// Untraced: the ladder over half the window (its nominal rung is the
	// baseline of the tracing overhead); traced: the nominal rate.
	untraced, ladder := w.ladder(r, r.window/2, nil)
	sched := poissonSchedule(newRand(r.seed, streamSchedule), mincRates[mincNominal], r.window/2)
	picks := w.picks(r, len(sched))

	var shed atomic.Int64
	before := readMem()
	traced := runTracedLoop(r, sched, func(i int, parent int32) error {
		start := time.Now()
		err := w.send(r, picks[i], &shed)
		r.tr.record(parent, uint64(i+1), "http.roundtrip.live", start, time.Now(), 0)
		return err
	})
	after := readMem()
	liveNodes := 0
	for _, p := range picks {
		liveNodes += w.inputs[p].nodes
	}

	// Probes: each layer's public call, timed on its own, on the inputs
	// of traced requests spread over the phase.
	reqs := map[uint64]bool{}
	var e2e []float64
	for _, i := range spread(len(picks), probeRequests) {
		if err := w.probe(r, uint64(i+1), picks[i]); err != nil {
			return nil, err
		}
		reqs[uint64(i+1)] = true
		e2e = append(e2e, traced.Lat[i])
	}
	ls := r.tr.layers(reqs)
	att := attribute(ls, len(reqs), mean(e2e), "request", "http.roundtrip.live")
	out := layerMetrics(r, ls, att, reqs)
	out["frontend.parse_ns_per_node"] = nsPerNode(ls["frontend.Parse"], false)
	out["frontend.lower_ns_per_node"] = nsPerNode(ls["frontend.Lower"], false)
	out["server.shed"] = float64(shed.Load())
	out["loadgen.late_p99_ms"] = summarize(traced.Late).P99
	out["loadgen.backlog"] = float64(traced.MaxBacklog)
	out["trace.overhead_ms"] = summarize(traced.Lat).P50 - summarize(untraced.Lat).P50
	out["lat_p99_ms"], out["max_rate_rps"] = ladder["lat_p99_ms"], ladder["max_rate_rps"]
	memMetrics(out, before, after, liveNodes)
	var sels []*repro.Selector
	for _, m := range w.machines {
		if _, sel, err := w.reg.Get(m.Name); err == nil {
			sels = append(sels, sel)
		}
	}
	snapshotMetrics(out, sels)
	corpus := make([][]*repro.Forest, len(w.machines))
	large := make([]*repro.Forest, len(w.machines))
	for mi, m := range w.machines {
		cs, err := workload.CompileAll(m.Grammar)
		if err != nil {
			return nil, err
		}
		for _, c := range cs {
			corpus[mi] = append(corpus[mi], c.Forests()...)
		}
		large[mi] = largestForest(cs)
	}
	fresh := onDemand(w.machines)
	var err error
	if err = coldLabel(out, len(w.machines), fresh, func(mi int) []*repro.Forest { return corpus[mi] }); err != nil {
		return nil, err
	}
	if out["emit.first_large_ms"], err = firstCompileMs(len(w.machines), fresh, large); err != nil {
		return nil, err
	}
	return out, nil
}

// probe decomposes request req (input i) into its layers' public calls.
func (w *mincHTTP) probe(r *runner, req uint64, i int) error {
	in := &w.inputs[i]
	rt := r.tr.reserve()
	start := time.Now()
	if err := w.send(r, i, nil); err != nil {
		return err
	}
	end := time.Now()
	hid := r.tr.reserve()
	hstart := time.Now()
	rec := httptest.NewRecorder()
	w.handler.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, in.url, bytes.NewReader(in.body)))
	hend := time.Now()
	if rec.Code != http.StatusOK {
		return fmt.Errorf("probe %s: status %d", in.key, rec.Code)
	}
	r.tr.put(rt, 0, req, "http.roundtrip", start, end, in.nodes)
	r.tr.put(hid, rt, req, "server.handler", hstart, hend, in.nodes)

	// JSON: the server's request decode and response encode.
	var creq server.CompileRequest
	t0 := time.Now()
	if err := json.Unmarshal(in.body, &creq); err != nil {
		return err
	}
	r.tr.record(hid, req, "server.json", t0, time.Now(), 0)
	var cresp server.CompileResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &cresp); err != nil {
		return err
	}
	t0 = time.Now()
	if err := json.NewEncoder(io.Discard).Encode(cresp); err != nil {
		return err
	}
	r.tr.record(hid, req, "server.json", t0, time.Now(), 0)

	t0 = time.Now()
	prog, err := frontend.Parse(creq.MinC)
	t1 := time.Now()
	if err != nil {
		return err
	}
	m := w.machines[in.machine]
	u, err := frontend.Lower(prog, m.Grammar)
	t2 := time.Now()
	if err != nil {
		return err
	}
	r.tr.record(hid, req, "frontend.Parse", t0, t1, in.nodes)
	r.tr.record(hid, req, "frontend.Lower", t1, t2, in.nodes)
	return probeSubmit(r, w.srv, w.reg, hid, req, m.Name, unitForests(u))
}
