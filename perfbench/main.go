// Command perfbench is the repository's benchmark. It drives one of three
// workloads against the instruction selector from one process, checks
// every output against the dp oracle, and prints one JSON result line:
//
//	go run . --workload minc_http --seed 1 --seconds 30 --trace 0
//
// (perfbench/run.sh builds it and runs it from the repository root.)
// With --trace 0 the result carries the end-to-end metrics; with
// --trace 1 a traced run replaces them with per-layer metrics and writes
// its spans to the output directory. A human-readable report goes to
// standard error and, as JSON, to the output directory.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"sync/atomic"
	"time"
)

// metricDef is one reported metric and its unit.
type metricDef struct{ name, unit string }

// endToEnd are the metrics of an untraced run, on every workload. The
// untraced run also reports lat_p99_ms and max_rate_rps outside the result
// line: on a shared 2-CPU machine the open loops' p99, and the capacity
// read from it, move by a quarter to a half between runs with the
// neighbours' load, too much for a regression bound, so the traced run
// carries them among the per-layer metrics instead.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"lat_p50_ms", "ms"},
	{"knodes_per_s", "knodes/s"},
	{"cold_ms", "ms"},
	{"peak_heap_mb", "MiB"},
}

// perLayer are the metrics of a traced run, on every workload; a layer a
// workload does not run reads 0.
var perLayer = []metricDef{
	{"frontend.parse_ns_per_node", "ns/node"},
	{"frontend.lower_ns_per_node", "ns/node"},
	{"ir.parse_ns_per_node", "ns/node"},
	{"core.label_warm_ns_per_node", "ns/node"},
	{"core.label_cold_ns_per_node", "ns/node"},
	{"core.miss_ratio", "ratio"},
	{"core.states_built", "count"},
	{"core.states", "count"},
	{"core.transitions", "count"},
	{"core.table_bytes", "bytes"},
	{"reduce.ns_per_node", "ns/node"},
	{"emit.ns_per_node.small", "ns/node"},
	{"emit.ns_per_node.large", "ns/node"},
	{"emit.first_large_ms", "ms"},
	{"repro.acquire_ns", "ns"},
	{"server.submit_wait_us", "us"},
	{"server.handler_us", "us"},
	{"server.json_us", "us"},
	{"http.roundtrip_us", "us"},
	{"http.socket_us", "us"},
	{"cluster.hop_us", "us"},
	{"cluster.retries", "count"},
	{"cluster.failovers", "count"},
	{"server.shed", "count"},
	{"server.swap_ms", "ms"},
	{"gen.hybrid_ms", "ms"},
	{"gen.blob_bytes", "bytes"},
	{"runtime.gc_cycles", "count"},
	{"runtime.gc_pause_ms", "ms"},
	{"runtime.alloc_bytes_per_node", "bytes/node"},
	{"loadgen.late_p99_ms", "ms"},
	{"loadgen.backlog", "count"},
	{"lat_p99_ms", "ms"},
	{"max_rate_rps", "1/s"},
	{"trace.e2e_ms", "ms"},
	{"trace.attributed_ms", "ms"},
	{"trace.unattributed_ms", "ms"},
	{"trace.overhead_ms", "ms"},
	{"failed_ratio", "ratio"},
	{"check.asm_changed", "count"},
	{"env.nproc", "count"},
	{"env.gomaxprocs", "count"},
}

// setupReps is how many times a run sets its workload up; setup_s is the
// median, and the last set-up is the one measured.
const setupReps = 15

// workloadImpl is one workload. setup builds every input and the system
// under test (it may be called again after close); e2e measures the
// untraced window and traced the traced one.
type workloadImpl interface {
	setup(r *runner) error
	close()
	e2e(r *runner) (map[string]float64, error)
	traced(r *runner) (map[string]float64, error)
}

var workloads = map[string]func() workloadImpl{
	"minc_http":   func() workloadImpl { return &mincHTTP{} },
	"ir_router":   func() workloadImpl { return &irRouter{} },
	"bigfunc_lib": func() workloadImpl { return &bigfuncLib{} },
}

// runner is one run's shared state.
type runner struct {
	seed   uint64
	window time.Duration
	procs  int // load-generating goroutines and connections (nproc)
	outDir string
	chk    *checker
	tr     *tracer

	attempted atomic.Int64
	report    map[string]any
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func run() error {
	start := time.Now()
	name := flag.String("workload", "", "workload: minc_http, ir_router or bigfunc_lib")
	seed := flag.Uint64("seed", 1, "input seed")
	seconds := flag.Float64("seconds", 30, "measured window in seconds")
	trace := flag.Int("trace", 0, "1 for the traced run (per-layer metrics)")
	outDir := flag.String("out", ".bench_build/perfbench-out", "directory for spans and reports")
	digests := flag.String("digests", "perfbench/asm_digest.json", "recorded assembly digests")
	record := flag.Bool("record-digests", false, "merge this run's assembly digests into --digests")
	flag.Parse()
	mk, ok := workloads[*name]
	if !ok {
		return fmt.Errorf("unknown --workload %q", *name)
	}
	if *seconds <= 0 {
		return fmt.Errorf("--seconds must be positive")
	}
	recorded, err := loadDigests(*digests)
	if err != nil {
		return err
	}
	if err := os.MkdirAll(*outDir, 0o755); err != nil {
		return err
	}
	r := &runner{
		seed:   *seed,
		window: time.Duration(*seconds * float64(time.Second)),
		procs:  runtime.NumCPU(),
		outDir: *outDir,
		chk:    newChecker(recorded),
		tr:     newTracer(),
		report: map[string]any{
			"workload": *name, "seed": *seed, "trace": *trace,
			"nproc": runtime.NumCPU(), "go": runtime.Version(),
		},
	}
	w := mk()
	defer w.close()
	var setups []float64
	for i := 0; i < setupReps; i++ {
		if i > 0 {
			// The last set-up's garbage is collected before timing the
			// next, as a fresh process would not have it.
			w.close()
			runtime.GC()
		}
		t0 := time.Now()
		if i == 0 {
			t0 = start
		}
		if err := w.setup(r); err != nil {
			return fmt.Errorf("set-up: %w", err)
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	// Set-up traffic (warm-up requests) is not part of the measurement.
	r.attempted.Store(0)
	r.chk.failed.Store(0)
	r.report["setup_s"] = setups

	defs := endToEnd
	var ms map[string]float64
	if *trace == 1 {
		defs = perLayer
		ms, err = w.traced(r)
	} else {
		ms, err = w.e2e(r)
		if ms != nil {
			ms["setup_s"] = median(setups)
		}
	}
	if err != nil {
		return err
	}
	attempted, failed := r.attempted.Load(), r.chk.failed.Load()
	if *trace == 1 {
		ms["failed_ratio"] = float64(failed) / float64(max(attempted, 1))
		ms["check.asm_changed"] = float64(r.chk.asmChanged.Load())
		ms["env.nproc"] = float64(runtime.NumCPU())
		ms["env.gomaxprocs"] = float64(runtime.GOMAXPROCS(0))
	}
	res := result{Correct: failed == 0 && attempted > 0, Attempted: attempted, Failed: failed, Metrics: map[string]metricValue{}}
	for _, d := range defs {
		res.Metrics[d.name] = metricValue{Value: ms[d.name], Unit: d.unit}
	}
	r.report["metrics"] = res.Metrics
	ungated := map[string]float64{}
	for k, v := range ms {
		if _, ok := res.Metrics[k]; !ok {
			ungated[k] = v
		}
	}
	r.report["ungated"] = ungated
	r.report["gomaxprocs"] = runtime.GOMAXPROCS(0)
	r.report["attempted"], r.report["failed"] = attempted, failed
	r.report["asm_checked"], r.report["asm_changed"] = r.chk.asmChecked.Load(), r.chk.asmChanged.Load()
	if e, ok := r.chk.firstErr.Load().(string); ok {
		r.report["first_error"] = e
	}
	if err := writeReport(r, *name, *trace == 1); err != nil {
		return err
	}
	if *record {
		if err := saveDigests(*digests, r.chk.digests()); err != nil {
			return err
		}
	}
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}

// writeReport prints the run's report to standard error and saves it, with
// the spans of a traced run, under the output directory.
func writeReport(r *runner, name string, traced bool) error {
	base := filepath.Join(r.outDir, fmt.Sprintf("%s-seed%d-trace%d", name, r.seed, map[bool]int{false: 0, true: 1}[traced]))
	b, err := json.MarshalIndent(r.report, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(base+".report.json", b, 0o644); err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "perfbench %s seed=%d nproc=%d GOMAXPROCS=%d %s\n", name, r.seed,
		runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version())
	if a, ok := r.report["attribution"].(attribution); ok {
		fmt.Fprint(os.Stderr, a.String())
	}
	ms := r.report["metrics"].(map[string]metricValue)
	names := make([]string, 0, len(ms))
	for n := range ms {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(os.Stderr, "  %-30s %14.4f %s\n", n, ms[n].Value, ms[n].Unit)
	}
	for n, v := range r.report["ungated"].(map[string]float64) {
		fmt.Fprintf(os.Stderr, "  %-30s %14.4f (not in the result line)\n", n, v)
	}
	fmt.Fprintf(os.Stderr, "  report: %s.report.json\n", base)
	if traced {
		return r.tr.write(base + ".spans.jsonl")
	}
	return nil
}
