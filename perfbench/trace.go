package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"sync"
	"time"
)

// span is one timed call into a layer's public function, made by the
// benchmark's own code. Spans of one request share Req. Parent names the
// span of the layer that makes this call inside the system: live spans
// (the request as the client saw it) nest in time, while probe spans —
// each layer's call timed on its own on the same input — are linked to
// their caller's probe by Parent only.
type span struct {
	ID     int32  `json:"id"`
	Parent int32  `json:"parent"` // 0 for a root
	Req    uint64 `json:"req"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"` // since the tracer started
	End    int64  `json:"end_ns"`
	Nodes  int    `json:"nodes,omitempty"` // IR nodes the call processed
}

func (s span) dur() float64 { return float64(s.End - s.Start) }

// tracer keeps spans in memory; they are written out when the run ends.
type tracer struct {
	t0    time.Time
	mu    sync.Mutex
	next  int32
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// reserve allocates a span id, so children can name a parent that is
// recorded after them.
func (t *tracer) reserve() int32 {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.next++
	return t.next
}

// put records a finished span under a reserved id.
func (t *tracer) put(id, parent int32, req uint64, name string, start, end time.Time, nodes int) {
	s := span{ID: id, Parent: parent, Req: req, Name: name,
		Start: int64(start.Sub(t.t0)), End: int64(end.Sub(t.t0)), Nodes: nodes}
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// record is reserve+put for a span without children.
func (t *tracer) record(parent int32, req uint64, name string, start, end time.Time, nodes int) {
	t.put(t.reserve(), parent, req, name, start, end, nodes)
}

// layerStat aggregates the spans of one name.
type layerStat struct {
	Name  string  `json:"name"`
	Count int     `json:"count"`
	Total float64 `json:"total_ns"` // inclusive
	Self  float64 `json:"self_ns"`  // inclusive minus children
	Nodes int     `json:"nodes"`
}

// layers folds the spans of the requests in reqs into per-name totals. A
// span's self time is its duration minus its children's durations.
func (t *tracer) layers(reqs map[uint64]bool) map[string]*layerStat {
	t.mu.Lock()
	defer t.mu.Unlock()
	childSum := map[int32]float64{}
	for _, s := range t.spans {
		if s.Parent != 0 && reqs[s.Req] {
			childSum[s.Parent] += s.dur()
		}
	}
	out := map[string]*layerStat{}
	for _, s := range t.spans {
		if !reqs[s.Req] {
			continue
		}
		ls := out[s.Name]
		if ls == nil {
			ls = &layerStat{Name: s.Name}
			out[s.Name] = ls
		}
		ls.Count++
		ls.Total += s.dur()
		ls.Self += s.dur() - childSum[s.ID]
		ls.Nodes += s.Nodes
	}
	return out
}

// sizedTotals is the self time (net of children called child) and the
// nodes of the spans called name, of the requests in reqs, whose node
// count is in [lo, hi).
func (t *tracer) sizedTotals(name, child string, lo, hi int, reqs map[uint64]bool) (self, nodes float64) {
	t.mu.Lock()
	defer t.mu.Unlock()
	in := map[int32]bool{}
	for _, s := range t.spans {
		if s.Name == name && s.Nodes >= lo && s.Nodes < hi && reqs[s.Req] {
			in[s.ID] = true
			self += s.dur()
			nodes += float64(s.Nodes)
		}
	}
	for _, s := range t.spans {
		if s.Name == child && in[s.Parent] {
			self -= s.dur()
		}
	}
	return self, nodes
}

// write dumps every span as one JSON object per line.
func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	t.mu.Lock()
	spans := append([]span(nil), t.spans...)
	t.mu.Unlock()
	sort.Slice(spans, func(i, j int) bool { return spans[i].ID < spans[j].ID })
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// attribution is the traced run's account of one request's latency: the
// self time of every layer per request, and what no layer explains.
type attribution struct {
	E2EMs          float64            `json:"e2e_ms"`
	SelfMs         map[string]float64 `json:"self_ms_per_request"`
	AttributedMs   float64            `json:"attributed_ms"`
	UnattributedMs float64            `json:"unattributed_ms"`
}

// attribute divides each layer's self time by requests and compares the
// sum with the traced end-to-end latency e2eMs (a per-request mean). The
// excluded names are live spans whose time the probes decompose.
func attribute(ls map[string]*layerStat, requests int, e2eMs float64, exclude ...string) attribution {
	a := attribution{E2EMs: e2eMs, SelfMs: map[string]float64{}}
	skip := map[string]bool{}
	for _, e := range exclude {
		skip[e] = true
	}
	for name, s := range ls {
		if skip[name] || requests == 0 {
			continue
		}
		v := s.Self / float64(requests) / 1e6
		a.SelfMs[name] = v
		a.AttributedMs += v
	}
	a.UnattributedMs = e2eMs - a.AttributedMs
	return a
}

// selfLayer names the layer a span's self time belongs to, where that is
// not the span's own name: a probe span minus its children is the work of
// the call itself, not of what it calls.
var selfLayer = map[string]string{
	"loadgen.late":           "loadgen (send lateness)",
	"cluster.route":          "cluster (router hop)",
	"http.roundtrip":         "http (socket and client)",
	"server.handler":         "server (handler, mux)",
	"server.SubmitBatch":     "server (queue, dispatch)",
	"repro.Compile":          "emit",
	"repro.Compile.CostOnly": "reduce",
	"core.Label":             "core (label)",
}

func (a attribution) String() string {
	names := make([]string, 0, len(a.SelfMs))
	for n := range a.SelfMs {
		names = append(names, n)
	}
	sort.Slice(names, func(i, j int) bool { return a.SelfMs[names[i]] > a.SelfMs[names[j]] })
	s := fmt.Sprintf("traced e2e %.4f ms/request, self time per layer:\n", a.E2EMs)
	for _, n := range names {
		label := n
		if l, ok := selfLayer[n]; ok {
			label = l + " = " + n + " self"
		}
		s += fmt.Sprintf("  %-50s %9.4f ms  %5.1f%%\n", label, a.SelfMs[n], 100*a.SelfMs[n]/a.E2EMs)
	}
	s += fmt.Sprintf("  %-50s %9.4f ms  %5.1f%%\n", "(unattributed: live minus probes)", a.UnattributedMs, 100*a.UnattributedMs/a.E2EMs)
	return s
}
