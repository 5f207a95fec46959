package main

import (
	"runtime/metrics"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// openResult is what one open-loop phase observed, per scheduled op.
type openResult struct {
	// Lat is each op's latency in ms, timed from when it was due, so a
	// stall is charged to every op queued behind it. The one exception is
	// an op whose sender was idle, waiting for its due time: the sender's
	// timer firing late is the host waking an idle virtual CPU late, not
	// the server, so such an op is timed from when the sender woke. An op
	// the generator skipped because the phase overran its deadline is
	// charged its wait up to then, a lower bound.
	Lat []float64
	// Late is how long after its due time each op was sent, in ms,
	// whatever the cause.
	Late []float64
	// From is how long after its due time each op's latency starts, in
	// ms: the idle sender's lateness in waking, else 0.
	From []float64
	// Err is each op's failure (nil on success).
	Err []error
	// MaxBacklog is the most ops that were due but not yet sent at once.
	MaxBacklog int
	// Sent counts the ops actually sent; Skipped the ones missed.
	Sent, Skipped int
}

// waiter blocks an open loop's sender until an op is due.
type waiter interface {
	sleep(d time.Duration)
	close()
}

// runOpenLoop sends op i at start+due[i] on one of conns goroutines, each
// sending synchronously: the open loop's concurrency is bounded by conns
// (never more goroutines or connections than that), and an op due while
// every goroutine is busy is sent late, its wait counted in its latency.
// Ops not sent by start+deadline are skipped and reported as misses.
func runOpenLoop(due []time.Duration, conns int, deadline time.Duration, send func(i int) error) openResult {
	return openLoop(due, conns, deadline, func() waiter { return newSleeper() }, send)
}

// openLoop is runOpenLoop with each sender waiting on its own newWaiter.
func openLoop(due []time.Duration, conns int, deadline time.Duration, newWaiter func() waiter, send func(i int) error) openResult {
	n := len(due)
	res := openResult{Lat: make([]float64, n), Late: make([]float64, n), From: make([]float64, n), Err: make([]error, n)}
	var next atomic.Int64
	var maxBacklog, sent, skipped atomic.Int64
	start := time.Now()
	var wg sync.WaitGroup
	for w := 0; w < conns; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			sl := newWaiter()
			defer sl.close()
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				dueAt := start.Add(due[i])
				from := dueAt
				if d := time.Until(dueAt); d > 0 {
					sl.sleep(d)
					if woke := time.Now(); woke.After(from) {
						from = woke
					}
				}
				now := time.Since(start)
				if now > deadline {
					res.Lat[i] = float64(now-due[i]) / 1e6
					res.Late[i] = res.Lat[i]
					skipped.Add(1)
					continue
				}
				// Ops due by now but not yet claimed (this one included).
				backlog := int64(sort.Search(n, func(j int) bool { return due[j] > now }) - i)
				for {
					m := maxBacklog.Load()
					if backlog <= m || maxBacklog.CompareAndSwap(m, backlog) {
						break
					}
				}
				sentAt := time.Now()
				res.Err[i] = send(i)
				doneAt := time.Now()
				sent.Add(1)
				res.Late[i] = float64(sentAt.Sub(dueAt)) / 1e6
				res.Lat[i] = float64(doneAt.Sub(from)) / 1e6
				res.From[i] = float64(from.Sub(dueAt)) / 1e6
			}
		}()
	}
	wg.Wait()
	res.MaxBacklog = int(maxBacklog.Load())
	res.Sent = int(sent.Load())
	res.Skipped = int(skipped.Load())
	return res
}

// secondMedian is the median, over the seconds of a phase, of the median
// latency of the ops due in each second. A burst of the host's load slows
// the seconds it falls in; as long as it spans fewer than half of them it
// leaves this figure where the phase's quiet seconds put it, where it
// would pull the median of all the phase's ops up with it.
func secondMedian(lat []float64, due []time.Duration) float64 {
	var bySecond [][]float64
	for i, l := range lat {
		k := int(due[i] / time.Second)
		for len(bySecond) <= k {
			bySecond = append(bySecond, nil)
		}
		bySecond[k] = append(bySecond[k], l)
	}
	var p50s []float64
	for _, ls := range bySecond {
		if len(ls) > 0 {
			p50s = append(p50s, median(ls))
		}
	}
	return median(p50s)
}

// endLateness is the median send lateness of the last 1% of ops (at
// least one): near zero while the generator keeps up, and growing with
// the phase when the offered rate exceeds capacity.
func (r openResult) endLateness() float64 {
	k := len(r.Late) / 100
	if k < 1 {
		k = 1
	}
	if k > len(r.Late) {
		return 0
	}
	return median(r.Late[len(r.Late)-k:])
}

// heapSampler samples the heap's in-use spans (runtime.MemStats.HeapInuse,
// read through runtime/metrics so sampling never stops the world) every
// period until stopped, keeping the peak of each second.
type heapSampler struct {
	stop   chan struct{}
	done   chan struct{}
	paused atomic.Bool
	peaks  []float64 // MiB, one per second (0 for a second not sampled)
}

func startHeapSampler() *heapSampler {
	const period = 20 * time.Millisecond
	h := &heapSampler{stop: make(chan struct{}), done: make(chan struct{})}
	samples := []metrics.Sample{
		{Name: "/memory/classes/heap/objects:bytes"},
		{Name: "/memory/classes/heap/unused:bytes"},
	}
	start := time.Now()
	read := func() {
		if h.paused.Load() {
			return
		}
		metrics.Read(samples)
		v := float64(samples[0].Value.Uint64()+samples[1].Value.Uint64()) / (1 << 20)
		sec := int(time.Since(start) / time.Second)
		for len(h.peaks) <= sec {
			h.peaks = append(h.peaks, 0)
		}
		h.peaks[sec] = max(h.peaks[sec], v)
	}
	read()
	go func() {
		defer close(h.done)
		t := time.NewTicker(period)
		defer t.Stop()
		for {
			select {
			case <-h.stop:
				read()
				return
			case <-t.C:
				read()
			}
		}
	}()
	return h
}

// pause stops sampling until resume, while the run does something that
// is not measured.
func (h *heapSampler) pause()  { h.paused.Store(true) }
func (h *heapSampler) resume() { h.paused.Store(false) }

// Stop ends sampling and returns the median of the per-second peaks in
// MiB: the run's typical peak, which one collector cycle landing late
// cannot move.
func (h *heapSampler) Stop() float64 {
	close(h.stop)
	<-h.done
	var sampled []float64
	for _, p := range h.peaks {
		if p > 0 {
			sampled = append(sampled, p)
		}
	}
	return median(sampled)
}
