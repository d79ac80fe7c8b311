// Package governor is the resource-governance layer of the query engine:
// context-aware cancellation, deadlines, row and memory budgets, and
// pre-flight admission control, shared by every evaluation strategy.
//
// The package exists because the paper proves that query evaluation can
// blow up super-polynomially with no warning (Cosmadakis 1983, Lemma 1),
// and the repo already computes the warning signs — AGM bounds
// (internal/join/agm.go), greedy-plan peak predictions
// (join.PredictedPeakGreedy / join.WorstCasePeakGreedy) and the decide
// budget — but, before this package, nothing could stop an evaluation
// once started. A Governor threads a context.Context and a Limits through
// the whole stack; every join strategy checks it cooperatively at
// tuple-batch granularity, so a runaway evaluation dies with a typed,
// errors.Is-able sentinel instead of running to completion or OOM.
//
// Atserias–Grohe–Marx size bounds are the principled basis for the
// admission-control half: when the n-ary AGM bound or the worst-case
// greedy peak already exceeds the intermediate-row budget, the query is
// rejected before any join runs (ErrAdmission) rather than killed
// after the fact.
//
// # Zero-overhead contract
//
// Mirroring internal/obs: every method is safe to call on a nil
// *Governor and does nothing there. Ungoverned evaluation threads a nil
// governor and the entire layer reduces to nil checks — no atomics, no
// clock reads. A live governor amortizes its clock reads over CheckEvery
// ticks, so even governed hot loops pay one atomic add per tuple batch.
//
// governor sits below every engine package: it imports only the standard
// library and internal/obs (for the partial span tree a Violation
// carries), so internal/join, internal/algebra, internal/decide and
// internal/sat can all consult it without cycles.
package governor

import (
	"context"
	"errors"
	"fmt"
	"sync/atomic"
	"time"

	"relquery/internal/obs"
)

// Sentinel errors. Every governance violation arrives wrapped (via
// fmt.Errorf("%w: ...") or a *Violation), so callers must match with
// errors.Is, never ==; the errwrapcheck analyzer enforces this.
var (
	// ErrDeadline reports that the evaluation's wall-clock deadline
	// (Limits.Deadline or the context's own deadline) passed.
	ErrDeadline = errors.New("governor: deadline exceeded")
	// ErrCanceled reports that the evaluation's context was canceled.
	ErrCanceled = errors.New("governor: evaluation canceled")
	// ErrRowBudget reports that a materialized relation exceeded
	// Limits.MaxIntermediateRows, or the final result exceeded
	// Limits.MaxRows.
	ErrRowBudget = errors.New("governor: row budget exceeded")
	// ErrMemBudget reports that the evaluation's estimated resident bytes
	// exceeded Limits.MaxMemoryBytes.
	ErrMemBudget = errors.New("governor: memory budget exceeded")
	// ErrAdmission reports a pre-flight rejection: the AGM bound or the
	// predicted greedy peak of a join node already exceeds the
	// intermediate-row budget, so the join was refused before running.
	ErrAdmission = errors.New("governor: admission denied")
)

// Limits bounds one evaluation. The zero Limits is unlimited.
type Limits struct {
	// Deadline is the wall-clock budget for the whole evaluation,
	// measured from New. Zero means no deadline (the context's own
	// deadline, if any, still applies).
	Deadline time.Duration
	// MaxRows, when positive, caps the final result cardinality.
	MaxRows int
	// MaxIntermediateRows, when positive, caps the cardinality of every
	// materialized intermediate relation — the guard rail against the
	// paper's exponential blow-up, and the threshold admission control
	// compares predictions against.
	MaxIntermediateRows int
	// MaxMemoryBytes, when positive, caps the evaluation's estimated
	// cumulative materialized bytes (a scheme-width model, not a
	// measured RSS; see Governor.ChargeBytes).
	MaxMemoryBytes int64
}

// Enabled reports whether any limit is set.
func (l Limits) Enabled() bool {
	return l.Deadline > 0 || l.MaxRows > 0 || l.MaxIntermediateRows > 0 || l.MaxMemoryBytes > 0
}

// CheckEvery is the tick granularity: a governed loop calls Tick once
// per tuple (or unit of work), and the governor performs the real
// context/deadline check every CheckEvery-th tick. The value trades
// cancellation latency (at most CheckEvery tuples of extra work) against
// per-tuple overhead (one atomic add).
const CheckEvery = 256

// Governor carries one evaluation's context and limits through the
// engine. A single Governor is shared by every goroutine of one
// evaluation (all state is atomic); violations are sticky — once any
// checkpoint trips, every subsequent checkpoint returns the same error,
// which is what lets parallel workers drain promptly after a first
// failure.
//
// The nil *Governor is the ungoverned evaluation: every method no-ops.
type Governor struct {
	ctx      context.Context
	limits   Limits
	deadline time.Time // zero when no deadline applies

	// metrics, when non-nil, receives one Violation count — keyed by the
	// sentinel that tripped — when the sticky failure latch first trips.
	metrics *obs.Metrics

	ticks atomic.Int64
	bytes atomic.Int64
	// failure holds the first violation (*governedErr) once tripped.
	failure atomic.Pointer[governedErr]
}

type governedErr struct{ err error }

// New returns a Governor enforcing limits under ctx. A nil result is
// returned when ctx is context.Background() (or nil) and no limit is
// set, so ungoverned callers stay on the zero-overhead path.
func New(ctx context.Context, limits Limits) *Governor {
	if ctx == nil {
		ctx = context.Background()
	}
	if !limits.Enabled() && ctx.Done() == nil {
		return nil
	}
	g := &Governor{ctx: ctx, limits: limits}
	if limits.Deadline > 0 {
		g.deadline = time.Now().Add(limits.Deadline)
	}
	if d, ok := ctx.Deadline(); ok && (g.deadline.IsZero() || d.Before(g.deadline)) {
		g.deadline = d
	}
	return g
}

// Limits returns the governor's limits (the zero Limits for nil).
func (g *Governor) Limits() Limits {
	if g == nil {
		return Limits{}
	}
	return g.limits
}

// Context returns the governor's context (context.Background for nil),
// for layers — like the SAT solver — that take a context directly.
func (g *Governor) Context() context.Context {
	if g == nil {
		return context.Background()
	}
	return g.ctx
}

// Err returns the sticky violation, or nil. Parallel workers poll it to
// drain promptly after another worker trips a checkpoint.
func (g *Governor) Err() error {
	if g == nil {
		return nil
	}
	if f := g.failure.Load(); f != nil {
		return f.err
	}
	return nil
}

// WithMetrics attaches an obs.Metrics to the governor: when the sticky
// failure latch first trips on a governance sentinel, the matching
// violation counter is incremented — exactly once per evaluation, so the
// counters read as "evaluations killed, by sentinel" and an admission
// rejection is as visible as a mid-flight kill. A nil governor or nil
// metrics passes through unchanged, preserving the zero-overhead path.
// WithMetrics returns its receiver for call chaining; it must be called
// before the governor is shared across goroutines.
func (g *Governor) WithMetrics(m *obs.Metrics) *Governor {
	if g == nil || m == nil {
		return g
	}
	g.metrics = m
	return g
}

// violationKind maps a violation chain to its obs counter kind, or ""
// for non-sentinel errors (Fail broadcasts engine errors too — those are
// failures, not governance violations).
func violationKind(err error) string {
	switch {
	case errors.Is(err, ErrDeadline):
		return obs.ViolationDeadline
	case errors.Is(err, ErrCanceled):
		return obs.ViolationCanceled
	case errors.Is(err, ErrRowBudget):
		return obs.ViolationRowBudget
	case errors.Is(err, ErrMemBudget):
		return obs.ViolationMemBudget
	case errors.Is(err, ErrAdmission):
		return obs.ViolationAdmission
	default:
		return ""
	}
}

// fail records err as the sticky violation (first writer wins), counts
// it into the attached metrics, and returns the violation in effect.
func (g *Governor) fail(err error) error {
	ge := &governedErr{err: err}
	if g.failure.CompareAndSwap(nil, ge) {
		if kind := violationKind(err); kind != "" {
			g.metrics.Violation(kind)
		}
		return err
	}
	return g.failure.Load().err
}

// Fail records err as the evaluation's sticky failure (first writer
// wins) and returns the failure in effect. Engines use it to broadcast a
// failure the governor's own checkpoints cannot see — a recovered worker
// panic — so sibling workers drain on their next poll. A nil governor or
// nil err passes err through unchanged.
func (g *Governor) Fail(err error) error {
	if g == nil || err == nil {
		return err
	}
	return g.fail(err)
}

// Tick is the per-tuple cooperative checkpoint: it counts one unit of
// work and, every CheckEvery-th call, performs the full
// cancellation/deadline check. Tuple loops call it unconditionally —
// the nil receiver returns nil immediately.
func (g *Governor) Tick() error {
	if g == nil {
		return nil
	}
	if g.ticks.Add(1)%CheckEvery != 0 {
		if f := g.failure.Load(); f != nil {
			return f.err
		}
		return nil
	}
	return g.Check()
}

// Check performs the full checkpoint immediately: sticky violation,
// context cancellation, then deadline. Engines call it at coarse
// boundaries (between binary joins, per semijoin sweep); hot loops use
// Tick.
func (g *Governor) Check() error {
	if g == nil {
		return nil
	}
	if f := g.failure.Load(); f != nil {
		return f.err
	}
	if err := g.ctx.Err(); err != nil {
		if errors.Is(err, context.DeadlineExceeded) {
			return g.fail(fmt.Errorf("%w: context deadline passed", ErrDeadline))
		}
		return g.fail(fmt.Errorf("%w: %w", ErrCanceled, context.Cause(g.ctx)))
	}
	if !g.deadline.IsZero() && time.Now().After(g.deadline) {
		return g.fail(fmt.Errorf("%w: evaluation ran past %v budget", ErrDeadline, g.limits.Deadline))
	}
	return nil
}

// CheckRows enforces MaxIntermediateRows against one materialized
// intermediate relation's cardinality.
func (g *Governor) CheckRows(rows int) error {
	if g == nil {
		return nil
	}
	if max := g.limits.MaxIntermediateRows; max > 0 && rows > max {
		return g.fail(fmt.Errorf("%w: intermediate relation has %d rows > budget %d", ErrRowBudget, rows, max))
	}
	return nil
}

// CheckOutput enforces MaxRows against the final result cardinality.
func (g *Governor) CheckOutput(rows int) error {
	if g == nil {
		return nil
	}
	if max := g.limits.MaxRows; max > 0 && rows > max {
		return g.fail(fmt.Errorf("%w: result has %d rows > -max-rows %d", ErrRowBudget, rows, max))
	}
	return nil
}

// ChargeBytes adds an allocation estimate to the evaluation's memory
// account and enforces MaxMemoryBytes. The account only grows — the
// engine materializes set-semantics relations whose lifetime the
// governor cannot see, so the model is cumulative bytes materialized, a
// conservative (over-)estimate of peak residency.
func (g *Governor) ChargeBytes(n int64) error {
	if g == nil || n <= 0 {
		return nil
	}
	total := g.bytes.Add(n)
	if max := g.limits.MaxMemoryBytes; max > 0 && total > max {
		return g.fail(fmt.Errorf("%w: ≈%d bytes materialized > budget %d", ErrMemBudget, total, max))
	}
	return nil
}

// BytesCharged reports the cumulative materialized-byte estimate.
func (g *Governor) BytesCharged() int64 {
	if g == nil {
		return 0
	}
	return g.bytes.Load()
}

// Admit is the budget comparison behind join.Plan.Admit: it rejects
// when predictedPeak exceeds MaxIntermediateRows, unless the chosen
// strategy's own peak bound (boundedPeak; 0 for none) stays within
// budget. With no MaxIntermediateRows, admission always passes.
func (g *Governor) Admit(predictedPeak, boundedPeak float64) error {
	if g == nil {
		return nil
	}
	max := g.limits.MaxIntermediateRows
	if max <= 0 || predictedPeak <= float64(max) {
		return nil
	}
	if boundedPeak > 0 && boundedPeak <= float64(max) {
		return nil
	}
	return g.fail(&AdmissionError{PredictedPeak: predictedPeak, Budget: max})
}

// AdmissionError is the rejection Admit returns: the numbers the gate
// compared, so a caller (relqueryd's 429 body) reports them without
// re-deriving them. It matches errors.Is(err, ErrAdmission); read it
// with errors.As.
type AdmissionError struct {
	// PredictedPeak is the node's predicted peak intermediate.
	PredictedPeak float64
	// AGMBound is the rejected node's n-ary AGM bound, filled in by
	// join.Plan.Admit, which knows the node's inputs.
	AGMBound float64
	// Budget is the intermediate-row budget the prediction exceeded.
	Budget int
}

// Error implements error.
func (e *AdmissionError) Error() string {
	return fmt.Sprintf("%v: predicted peak intermediate ≈%.0f rows > budget %d",
		ErrAdmission, e.PredictedPeak, e.Budget)
}

// Unwrap exposes ErrAdmission to errors.Is.
func (e *AdmissionError) Unwrap() error { return ErrAdmission }

// Violation is a governance failure annotated with the partial obs span
// tree at the time of death, so EXPLAIN ANALYZE can render where the
// budget died. It wraps (never replaces) the sentinel chain: errors.Is
// against the Err* sentinels sees through it.
type Violation struct {
	// Err is the wrapped violation chain containing one of the package
	// sentinels.
	Err error
	// Trace is the partial span tree + metrics captured when evaluation
	// died (nil when no collector was attached).
	Trace *obs.Trace
}

// Error implements error.
func (v *Violation) Error() string { return v.Err.Error() }

// Unwrap exposes the sentinel chain to errors.Is / errors.As.
func (v *Violation) Unwrap() error { return v.Err }

// Violated reports whether err is (or wraps) any governor sentinel.
func Violated(err error) bool {
	return errors.Is(err, ErrDeadline) ||
		errors.Is(err, ErrCanceled) ||
		errors.Is(err, ErrRowBudget) ||
		errors.Is(err, ErrMemBudget) ||
		errors.Is(err, ErrAdmission)
}

// TraceOf extracts the partial trace carried by a Violation in err's
// chain, or nil.
func TraceOf(err error) *obs.Trace {
	var v *Violation
	if errors.As(err, &v) {
		return v.Trace
	}
	return nil
}

// WrapContextErr translates a bare context error into the matching
// governor sentinel chain, for layers that consult a context directly
// (the SAT solver's search loops). Non-context errors pass through
// unchanged; nil stays nil.
func WrapContextErr(err error) error {
	switch {
	case err == nil:
		return nil
	case errors.Is(err, context.DeadlineExceeded):
		return fmt.Errorf("%w: context deadline passed", ErrDeadline)
	case errors.Is(err, context.Canceled):
		return fmt.Errorf("%w: %w", ErrCanceled, err)
	default:
		return err
	}
}
