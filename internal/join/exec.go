package join

import (
	"fmt"

	"relquery/internal/governor"
	"relquery/internal/obs"
	"relquery/internal/relation"
)

// Exec is the execution context of one join node, passed as the first
// argument of every strategy entry point: the metrics its algorithms
// count tuple traffic into, the governor their hot loops tick at
// tuple-batch granularity, and the span its materializations are traced
// on. The zero Exec is ungoverned and untraced — every field is nil-safe,
// so the whole context reduces to nil checks on the fast path.
type Exec struct {
	Metrics *obs.Metrics
	Gov     *governor.Governor
	Span    *obs.Span
}

// Observe is the single accounting point for a relation the engine
// materializes: it folds r into the span's peak, then enforces the
// governor's intermediate-row budget and charges r to its memory
// account. The n-ary executors call it exactly once per relation they
// materialize — Multi after each binary join, Yannakakis after each
// semijoin and tree join, the evaluator on wcoj and projection outputs.
// Binary joins never call it; they only count their own JoinWork.
func (x Exec) Observe(r *relation.Relation) error {
	x.Span.ObservePeak(r.Len())
	if x.Gov == nil {
		return nil
	}
	if err := x.Gov.CheckRows(r.Len()); err != nil {
		return err
	}
	return x.Gov.ChargeBytes(relationBytes(r))
}

// relationBytes is the governor's memory model for one materialized
// relation: a coarse per-value estimate (string header + small payload)
// plus per-tuple overhead. Deliberately simple and deterministic — the
// budget bounds an estimate of cumulative materialization, not RSS.
func relationBytes(r *relation.Relation) int64 {
	const bytesPerValue, bytesPerTuple = 24, 48
	return int64(r.Len()) * int64(r.Scheme().Len()*bytesPerValue+bytesPerTuple)
}

// checkBatch is how many tuples a governed loop processes between
// row-budget checks and fault-injection crossings. Tied to the governor's
// own tick amortization so both checks share the batch boundary.
const checkBatch = governor.CheckEvery

// recoveredError converts a recovered panic value into an error,
// preserving error payloads (like *fault.InjectedPanic) for errors.As.
func recoveredError(what string, rec any) error {
	if err, ok := rec.(error); ok {
		return fmt.Errorf("join: %s panicked: %w", what, err)
	}
	return fmt.Errorf("join: %s panicked: %v", what, rec)
}
