// Package telemetry is the serving tier's observability plane: pooled
// per-request trace spans, lock-free log-bucketed latency histograms
// with mergeable snapshots, a ring buffer of the slowest requests, a
// Prometheus-text exposition writer (plus an in-repo well-formedness
// parser, so CI can assert /metrics without external deps), and one
// leveled logger for the registry's and cluster's operational events.
//
// The plane is built to be paid for: recording a latency is one atomic
// add into a power-of-two bucket, a trace is a pooled fixed-size struct
// stamped with monotonic time.Since deltas only at stage boundaries,
// and nothing on the warm compile path allocates. The alloc guards in
// the repo root and the PF trajectory's telemetry column hold it to
// that.
package telemetry

// Stage names one segment of a request's life inside the compilation
// server. The stages are strictly sequential per job — lease acquire,
// queue wait, label, reduce, emit — so a Trace needs only one running
// mark to span all of them.
type Stage uint8

const (
	// StageLease is registry Acquire: version pin + lazy construction
	// (zero when the machine is warm).
	StageLease Stage = iota
	// StageQueue is the bounded-queue wait between submit and a worker
	// picking the job up.
	StageQueue
	// StageLabel is the labeling pass (automaton walk or DP).
	StageLabel
	// StageReduce is the reducer's walk over the labeling, which returns
	// the selected cover as a reduction list.
	StageReduce
	// StageEmit is emission: the emitter's pass over the reduction list
	// plus assembly interning.
	StageEmit

	// NumStages is the span-array size.
	NumStages = int(StageEmit) + 1
)

var stageNames = [NumStages]string{"lease", "queue", "label", "reduce", "emit"}

// String returns the stage's label value ("lease", "queue", ...).
func (s Stage) String() string {
	if int(s) < NumStages {
		return stageNames[s]
	}
	return "unknown"
}

// Stages lists every stage in order, for iteration by exporters.
func Stages() [NumStages]Stage {
	return [NumStages]Stage{StageLease, StageQueue, StageLabel, StageReduce, StageEmit}
}
