package main

import (
	"encoding/json"
	"errors"
	"os"
	"slices"
	"testing"
	"time"

	"repro"
	"repro/internal/workload"
)

func loadServed(t *testing.T) ([]*repro.Machine, [][]*workload.Compiled) {
	t.Helper()
	var ms []*repro.Machine
	var corpus [][]*workload.Compiled
	for _, name := range servedMachines {
		m, err := repro.LoadMachine(name)
		if err != nil {
			t.Fatal(err)
		}
		cs, err := workload.CompileAll(m.Grammar)
		if err != nil {
			t.Fatal(err)
		}
		ms, corpus = append(ms, m), append(corpus, cs)
	}
	return ms, corpus
}

func streamKeys(t *testing.T, seed uint64, ms []*repro.Machine, corpus [][]*workload.Compiled) []string {
	t.Helper()
	items, err := libStream(seed, ms, corpus, 120)
	if err != nil {
		t.Fatal(err)
	}
	keys := make([]string, len(items))
	for i, it := range items {
		keys[i] = it.Key
	}
	return keys
}

func TestSeedGivesSameInputs(t *testing.T) {
	ms, corpus := loadServed(t)
	a, b, c := streamKeys(t, 7, ms, corpus), streamKeys(t, 7, ms, corpus), streamKeys(t, 8, ms, corpus)
	if !slices.Equal(a, b) {
		t.Error("the same seed gave different bigfunc_lib units")
	}
	if slices.Equal(a, c) {
		t.Error("different seeds gave the same bigfunc_lib units")
	}

	sched := func(seed uint64) []time.Duration {
		return poissonSchedule(newRand(seed, streamSchedule), 1000, time.Second)
	}
	if !slices.Equal(sched(7), sched(7)) {
		t.Error("the same seed gave different arrival schedules")
	}
	if slices.Equal(sched(7), sched(8)) {
		t.Error("different seeds gave the same arrival schedule")
	}
	picks := func(seed uint64) []int { return deal(newRand(seed, streamPicks), 32, 200) }
	if !slices.Equal(picks(7), picks(7)) {
		t.Error("the same seed gave different request picks")
	}
	if slices.Equal(picks(7), picks(8)) {
		t.Error("different seeds gave the same request picks")
	}
}

func TestPoissonScheduleRate(t *testing.T) {
	s := poissonSchedule(newRand(1, streamSchedule), 2000, 2*time.Second)
	if len(s) < 3600 || len(s) > 4400 {
		t.Errorf("2 s at 2000/s gave %d arrivals", len(s))
	}
	if !slices.IsSorted(s) || s[len(s)-1] >= 2*time.Second {
		t.Error("schedule is not ordered within its duration")
	}
}

func TestLibMixHasBothSizeBands(t *testing.T) {
	ms, corpus := loadServed(t)
	items, err := libStream(3, ms, corpus, 200)
	if err != nil {
		t.Fatal(err)
	}
	small, big := 0, 0
	machines := map[int]bool{}
	for _, it := range items {
		switch {
		case it.Big:
			if it.Nodes < bigMinNodes || it.Nodes > bigMaxNodes {
				t.Errorf("generated unit %s has %d nodes, outside %d..%d", it.Key, it.Nodes, bigMinNodes, bigMaxNodes)
			}
			machines[it.Machine] = true
			big++
		case it.Nodes < 256:
			small++
		}
	}
	if big != len(items)/bigEvery {
		t.Errorf("%d generated units in %d, want one in %d", big, len(items), bigEvery)
	}
	if small < len(items)/2 {
		t.Errorf("only %d of %d units are small corpus units", small, len(items))
	}
	if len(machines) != len(ms) {
		t.Errorf("generated units cover %d of %d machines", len(machines), len(ms))
	}
}

func TestOracleCountsWrongCost(t *testing.T) {
	ms, corpus := loadServed(t)
	orc, err := newOracle(ms)
	if err != nil {
		t.Fatal(err)
	}
	u := corpus[0][0].Unit
	want, err := orc.unitCosts(0, u)
	if err != nil {
		t.Fatal(err)
	}
	sel, err := ms[0].NewSelector(repro.KindOnDemand, repro.Options{})
	if err != nil {
		t.Fatal(err)
	}
	outs, err := sel.CompileUnit(t.Context(), u)
	if err != nil {
		t.Fatal(err)
	}
	got := make([]int64, len(outs))
	asm := make([]string, len(outs))
	for i, o := range outs {
		got[i], asm[i] = int64(o.Cost), o.Asm
	}
	chk := newChecker(nil)
	if err := chk.check("k", want, got, asm); err != nil || chk.failed.Load() != 0 {
		t.Fatalf("the engine's own answer failed the check: %v", err)
	}
	got[len(got)-1]++
	if err := chk.check("k", want, got, asm); !errors.Is(err, errWrongCost) {
		t.Errorf("an injected wrong cost gave %v, want errWrongCost", err)
	}
	if chk.failed.Load() != 1 {
		t.Errorf("failed = %d after one wrong cost, want 1", chk.failed.Load())
	}
	asm[0] += "\n"
	got[len(got)-1]--
	if err := chk.check("k", want, got, asm); err != nil {
		t.Errorf("changed assembly with right costs failed: %v", err)
	}
	if chk.asmChanged.Load() != 1 || chk.failed.Load() != 1 {
		t.Errorf("changed assembly: asm_changed=%d failed=%d, want 1 and 1", chk.asmChanged.Load(), chk.failed.Load())
	}
}

func TestOpenLoopChargesStall(t *testing.T) {
	const stall = 60 * time.Millisecond
	due := make([]time.Duration, 40)
	for i := range due {
		due[i] = time.Duration(i) * time.Millisecond
	}
	res := runOpenLoop(due, 1, time.Minute, func(i int) error {
		if i == 0 {
			time.Sleep(stall)
		}
		return nil
	})
	if res.Sent != len(due) || res.Skipped != 0 {
		t.Fatalf("sent %d skipped %d of %d", res.Sent, res.Skipped, len(due))
	}
	for i := 1; i < len(due); i++ {
		// Op i waited behind the stalled op 0 from its due time until
		// the stall ended.
		if want := float64(stall-due[i]) / 1e6; res.Lat[i] < want || res.Late[i] < want {
			t.Errorf("op %d: latency %.1f ms, late %.1f ms; the stall charges at least %.1f ms", i, res.Lat[i], res.Late[i], want)
		}
	}
	if res.MaxBacklog < len(due)/2 {
		t.Errorf("max backlog %d, want the ops queued behind the stall", res.MaxBacklog)
	}
}

// overSleeper wakes late by a fixed amount, as an idle virtual CPU does
// on a busy host.
type overSleeper struct{ late time.Duration }

func (s overSleeper) sleep(d time.Duration) { time.Sleep(d + s.late) }
func (s overSleeper) close()                {}

func TestOpenLoopLeavesOutIdleSenderLateness(t *testing.T) {
	const late = 15 * time.Millisecond
	due := make([]time.Duration, 8)
	for i := range due {
		due[i] = time.Duration(i) * 2 * late
	}
	res := openLoop(due, 1, time.Minute, func() waiter { return overSleeper{late} }, func(int) error { return nil })
	for i := 1; i < len(due); i++ {
		// The sender slept for op i and woke at least late after its due
		// time; the op itself took no time.
		if res.Late[i] < float64(late)/1e6 {
			t.Errorf("op %d: late %.1f ms, want at least %v", i, res.Late[i], late)
		}
		if res.Lat[i] >= float64(late)/2e6 {
			t.Errorf("op %d: latency %.1f ms charges the sender's own lateness", i, res.Lat[i])
		}
		if res.From[i]+res.Lat[i] < res.Late[i] {
			t.Errorf("op %d: latency starts %.1f ms after due, lasts %.1f ms, ends before the send %.1f ms after due", i, res.From[i], res.Lat[i], res.Late[i])
		}
	}
}

func TestSecondMedianIgnoresShortBurst(t *testing.T) {
	// Ten seconds of 100 ops at 1 ms, two of them slowed to 9 ms.
	var lat []float64
	var due []time.Duration
	for k := 0; k < 1000; k++ {
		at := time.Duration(k) * 10 * time.Millisecond
		l := 1.0
		if s := at / time.Second; s == 3 || s == 4 {
			l = 9
		}
		lat, due = append(lat, l), append(due, at)
	}
	if got := secondMedian(lat, due); got != 1 {
		t.Errorf("secondMedian = %v, want 1: a burst in 2 of 10 seconds moved it", got)
	}
}

func TestRunSlicedKeepsScheduleOrder(t *testing.T) {
	due := make([]time.Duration, 30)
	for i := range due {
		due[i] = time.Duration(i) * time.Millisecond
	}
	var sent []int
	turns := 0
	res := runSliced(due, 30*time.Millisecond, 3, 1, func(i int) error {
		sent = append(sent, i)
		return nil
	}, func() { turns++ })
	if turns != 3 {
		t.Errorf("between ran %d times, want once per slice (3)", turns)
	}
	if res.Sent != len(due) || len(res.Lat) != len(due) || len(res.From) != len(due) {
		t.Fatalf("sent %d, %d latencies, %d origins; want %d each", res.Sent, len(res.Lat), len(res.From), len(due))
	}
	for i, op := range sent {
		if op != i {
			t.Fatalf("op %d sent as %d-th; want every op once, in schedule order", op, i)
		}
	}
}

// TestMetricsMatchBenchmarkJSON keeps the metric lists the program prints
// identical to the ones BENCHMARK.json declares.
func TestMetricsMatchBenchmarkJSON(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	check := func(kind string, got []metricDef, want []struct{ Name, Unit string }) {
		if len(got) != len(want) {
			t.Errorf("%s: program has %d metrics, BENCHMARK.json %d", kind, len(got), len(want))
			return
		}
		for i := range got {
			if got[i].name != want[i].Name || got[i].unit != want[i].Unit {
				t.Errorf("%s %d: program %s [%s], BENCHMARK.json %s [%s]", kind, i, got[i].name, got[i].unit, want[i].Name, want[i].Unit)
			}
		}
	}
	check("end_to_end", endToEnd, spec.EndToEnd)
	check("per_layer", perLayer, spec.PerLayer)
	for _, w := range spec.Workloads {
		if _, ok := workloads[w.Name]; !ok {
			t.Errorf("BENCHMARK.json workload %s is not implemented", w.Name)
		}
	}
}
