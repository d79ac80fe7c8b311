// Package obs is the query-evaluation observability layer: per-evaluation
// metrics counters and a span tree tracing every operator of a
// project–join evaluation.
//
// The package exists because the paper's central phenomenon — intermediate
// results exponentially larger than input and output (Cosmadakis 1983,
// Introduction) — is invisible from a query's result alone. A Collector
// attached to an algebra.Evaluator records, per operator, the observed
// cardinalities, wall time, join algorithm, cache status and worker count,
// and accumulates evaluation-wide counters (tuples built/probed/emitted,
// partitions, broadcast and sequential fallbacks, cache hits/misses).
// algebra.ExplainAnalyze renders the span tree; cmd/relquery -trace emits
// it as JSON.
//
// # Zero-overhead contract
//
// Every method in this package is safe to call on a nil receiver and does
// nothing there. Instrumented code therefore needs no conditionals: it
// threads a possibly-nil *Collector (or *Span, or *Metrics) through and
// calls methods unconditionally. With no collector attached the entire
// layer reduces to nil checks — no allocation, no clock reads, no atomics
// — which is what keeps the instrumented engine within noise of the
// uninstrumented one (see BenchmarkE9ParallelEval and BENCH_obs.txt).
//
// obs sits below every engine package: it imports only the standard
// library, so internal/join, internal/algebra and internal/decide can all
// report into it without cycles.
package obs

import (
	"fmt"
	"sync/atomic"
)

// Metrics accumulates evaluation-wide counters. All updates are atomic, so
// one Metrics can be shared by the parallel evaluator's workers and — the
// fix over the old mutex-plus-exported-fields join statistics —
// snapshotted race-free while evaluation is still running.
//
// All methods are nil-safe no-ops, per the package's zero-overhead
// contract.
type Metrics struct {
	joins              atomic.Int64
	maxIntermediate    atomic.Int64
	intermediateTuples atomic.Int64

	tuplesBuilt   atomic.Int64
	tuplesProbed  atomic.Int64
	tuplesEmitted atomic.Int64

	partitionedJoins    atomic.Int64
	partitions          atomic.Int64
	broadcastJoins      atomic.Int64
	sequentialFallbacks atomic.Int64

	wcojJoins         atomic.Int64
	wcojCandidates    atomic.Int64
	wcojIntersections atomic.Int64

	yannakakisJoins atomic.Int64
	semijoins       atomic.Int64
	semijoinRows    atomic.Int64

	degradedEvals atomic.Int64

	violationDeadline  atomic.Int64
	violationCanceled  atomic.Int64
	violationRowBudget atomic.Int64
	violationMemBudget atomic.Int64
	violationAdmission atomic.Int64

	cacheHits          atomic.Int64
	cacheMisses        atomic.Int64
	cacheInvalidations atomic.Int64
}

// Governor-violation kinds, one per sentinel in internal/governor. The
// strings double as the Prometheus label values of
// relquery_governor_violations_total. They live here — not in
// internal/governor — because governor imports obs, never the reverse.
const (
	ViolationDeadline  = "deadline"
	ViolationCanceled  = "canceled"
	ViolationRowBudget = "row_budget"
	ViolationMemBudget = "mem_budget"
	ViolationAdmission = "admission"
)

// ViolationKinds lists every violation kind in exposition order, so
// exporters emit a stable, complete set of series even when all counts
// are zero.
func ViolationKinds() []string {
	return []string{ViolationDeadline, ViolationCanceled, ViolationRowBudget, ViolationMemBudget, ViolationAdmission}
}

// Violation records one governance violation of the given kind (a
// Violation* constant). The governor calls it exactly once per
// evaluation — when its sticky failure latch first trips — so the
// counters read as "evaluations killed, by sentinel". Unknown kinds are
// ignored: the governor's Fail broadcast also carries non-governance
// engine errors, which are not violations.
func (m *Metrics) Violation(kind string) {
	if m == nil {
		return
	}
	switch kind {
	case ViolationDeadline:
		m.violationDeadline.Add(1)
	case ViolationCanceled:
		m.violationCanceled.Add(1)
	case ViolationRowBudget:
		m.violationRowBudget.Add(1)
	case ViolationMemBudget:
		m.violationMemBudget.Add(1)
	case ViolationAdmission:
		m.violationAdmission.Add(1)
	}
}

// ObserveJoin records one binary join producing out tuples: it counts the
// join and folds the output size into the intermediate-result statistics.
func (m *Metrics) ObserveJoin(out int) {
	if m == nil {
		return
	}
	m.joins.Add(1)
	m.observeIntermediate(out)
}

// ObserveIntermediate folds an intermediate relation's cardinality (a
// projection output, or a join node's passthrough input) into
// MaxIntermediate and IntermediateTuples without counting a join.
func (m *Metrics) ObserveIntermediate(rows int) {
	if m == nil {
		return
	}
	m.observeIntermediate(rows)
}

func (m *Metrics) observeIntermediate(rows int) {
	n := int64(rows)
	m.intermediateTuples.Add(n)
	for {
		cur := m.maxIntermediate.Load()
		if n <= cur || m.maxIntermediate.CompareAndSwap(cur, n) {
			return
		}
	}
}

// JoinWork records one binary join's tuple traffic. The exact meaning of
// built/probed is per algorithm (hash: build-side and probe-side rows;
// nested loop: 0 and pairs examined; sort-merge: rows sorted and rows
// merged); emitted is always the output cardinality.
func (m *Metrics) JoinWork(built, probed, emitted int) {
	if m == nil {
		return
	}
	m.tuplesBuilt.Add(int64(built))
	m.tuplesProbed.Add(int64(probed))
	m.tuplesEmitted.Add(int64(emitted))
}

// Partitioned records that a parallel join ran the partitioned strategy
// over the given number of buckets.
func (m *Metrics) Partitioned(buckets int) {
	if m == nil {
		return
	}
	m.partitionedJoins.Add(1)
	m.partitions.Add(int64(buckets))
}

// Broadcast records that a parallel join fell back to the broadcast
// strategy (shared build table, chunked probe side).
func (m *Metrics) Broadcast() {
	if m == nil {
		return
	}
	m.broadcastJoins.Add(1)
}

// SequentialFallback records that a parallel join delegated to the
// sequential hash join (tiny inputs or no shared attributes).
func (m *Metrics) SequentialFallback() {
	if m == nil {
		return
	}
	m.sequentialFallbacks.Add(1)
}

// WCOJ records one worst-case-optimal generic join with its search
// counters: candidate values enumerated and attribute intersections
// performed.
func (m *Metrics) WCOJ(candidates, intersections int) {
	if m == nil {
		return
	}
	m.wcojJoins.Add(1)
	m.wcojCandidates.Add(int64(candidates))
	m.wcojIntersections.Add(int64(intersections))
}

// Semijoin records one semijoin pass producing out tuples (the full
// reducer's sweeps and the pairwise fixpoint prefilter both report here).
func (m *Metrics) Semijoin(out int) {
	if m == nil {
		return
	}
	m.semijoins.Add(1)
	m.semijoinRows.Add(int64(out))
}

// Yannakakis records one acyclic n-ary join evaluated by the full
// reducer. Per-pass semijoin counts arrive separately via Semijoin.
func (m *Metrics) Yannakakis() {
	if m == nil {
		return
	}
	m.yannakakisJoins.Add(1)
}

// Degraded records one graceful degradation: a wcoj or yannakakis join
// node failed (engine error or recovered panic) and was retried on the
// greedy binary path.
func (m *Metrics) Degraded() {
	if m == nil {
		return
	}
	m.degradedEvals.Add(1)
}

// CacheHit records a subexpression served from a cache (the per-call memo
// or the shared fingerprint-keyed cache) without re-evaluation.
func (m *Metrics) CacheHit() {
	if m == nil {
		return
	}
	m.cacheHits.Add(1)
}

// CacheMiss records a subexpression that had to be evaluated.
func (m *Metrics) CacheMiss() {
	if m == nil {
		return
	}
	m.cacheMisses.Add(1)
}

// CacheInvalidated records n cache entries dropped (shared-cache reset or
// fingerprint change).
func (m *Metrics) CacheInvalidated(n int) {
	if m == nil {
		return
	}
	m.cacheInvalidations.Add(int64(n))
}

// Snapshot returns a consistent-enough copy of the counters: each field is
// read atomically, so reading concurrently with a running evaluation is
// race-free (fields may be mutually skewed by in-flight updates, which is
// inherent to any non-stop-the-world snapshot). The zero snapshot is
// returned for a nil receiver.
func (m *Metrics) Snapshot() MetricsSnapshot {
	if m == nil {
		return MetricsSnapshot{}
	}
	return MetricsSnapshot{
		Joins:               m.joins.Load(),
		MaxIntermediate:     m.maxIntermediate.Load(),
		IntermediateTuples:  m.intermediateTuples.Load(),
		TuplesBuilt:         m.tuplesBuilt.Load(),
		TuplesProbed:        m.tuplesProbed.Load(),
		TuplesEmitted:       m.tuplesEmitted.Load(),
		PartitionedJoins:    m.partitionedJoins.Load(),
		Partitions:          m.partitions.Load(),
		BroadcastJoins:      m.broadcastJoins.Load(),
		SequentialFallbacks: m.sequentialFallbacks.Load(),
		WCOJJoins:           m.wcojJoins.Load(),
		WCOJCandidates:      m.wcojCandidates.Load(),
		WCOJIntersections:   m.wcojIntersections.Load(),
		YannakakisJoins:     m.yannakakisJoins.Load(),
		Semijoins:           m.semijoins.Load(),
		SemijoinRows:        m.semijoinRows.Load(),
		DegradedEvals:       m.degradedEvals.Load(),
		ViolationsDeadline:  m.violationDeadline.Load(),
		ViolationsCanceled:  m.violationCanceled.Load(),
		ViolationsRowBudget: m.violationRowBudget.Load(),
		ViolationsMemBudget: m.violationMemBudget.Load(),
		ViolationsAdmission: m.violationAdmission.Load(),
		CacheHits:           m.cacheHits.Load(),
		CacheMisses:         m.cacheMisses.Load(),
		CacheInvalidations:  m.cacheInvalidations.Load(),
	}
}

// MetricsSnapshot is a plain-value copy of a Metrics, ready for JSON
// encoding or printing.
type MetricsSnapshot struct {
	// Joins is the number of binary joins performed.
	Joins int64 `json:"joins"`
	// MaxIntermediate is the largest cardinality of any intermediate
	// relation produced (including the final result) — the paper's
	// headline number.
	MaxIntermediate int64 `json:"max_intermediate"`
	// IntermediateTuples totals the cardinalities of all intermediate
	// results.
	IntermediateTuples int64 `json:"intermediate_tuples"`
	// TuplesBuilt counts rows inserted into build-side structures.
	TuplesBuilt int64 `json:"tuples_built"`
	// TuplesProbed counts rows scanned against build-side structures.
	TuplesProbed int64 `json:"tuples_probed"`
	// TuplesEmitted counts rows emitted by binary joins.
	TuplesEmitted int64 `json:"tuples_emitted"`
	// PartitionedJoins counts parallel joins that ran partitioned.
	PartitionedJoins int64 `json:"partitioned_joins"`
	// Partitions totals the buckets used by partitioned joins.
	Partitions int64 `json:"partitions"`
	// BroadcastJoins counts parallel joins that ran broadcast.
	BroadcastJoins int64 `json:"broadcast_joins"`
	// SequentialFallbacks counts parallel joins that delegated to the
	// sequential hash join.
	SequentialFallbacks int64 `json:"sequential_fallbacks"`
	// WCOJJoins counts n-ary joins run by the worst-case-optimal generic
	// join.
	WCOJJoins int64 `json:"wcoj_joins"`
	// WCOJCandidates totals the candidate attribute values the generic
	// join enumerated.
	WCOJCandidates int64 `json:"wcoj_candidates"`
	// WCOJIntersections totals the attribute-level intersection passes
	// the generic join performed.
	WCOJIntersections int64 `json:"wcoj_intersections"`
	// YannakakisJoins counts n-ary joins evaluated by the Yannakakis
	// full reducer over an acyclic join tree.
	YannakakisJoins int64 `json:"yannakakis_joins"`
	// Semijoins counts semijoin passes: the full reducer's sweeps,
	// including the pairwise reduction inside a binary Yannakakis join.
	Semijoins int64 `json:"semijoins"`
	// SemijoinRows totals the output cardinalities of all semijoin
	// passes — the per-pass cardinality trail of the full reducer.
	SemijoinRows int64 `json:"semijoin_rows"`
	// DegradedEvals counts join nodes whose wcoj/yannakakis strategy
	// failed and was retried on the greedy binary path.
	DegradedEvals int64 `json:"degraded_evals"`
	// ViolationsDeadline counts evaluations killed by the wall-clock
	// deadline (governor.ErrDeadline).
	ViolationsDeadline int64 `json:"violations_deadline"`
	// ViolationsCanceled counts evaluations killed by context
	// cancellation (governor.ErrCanceled).
	ViolationsCanceled int64 `json:"violations_canceled"`
	// ViolationsRowBudget counts evaluations killed by the row budget
	// (governor.ErrRowBudget — intermediate or final-result cap).
	ViolationsRowBudget int64 `json:"violations_row_budget"`
	// ViolationsMemBudget counts evaluations killed by the estimated
	// memory budget (governor.ErrMemBudget).
	ViolationsMemBudget int64 `json:"violations_mem_budget"`
	// ViolationsAdmission counts evaluations rejected pre-flight by
	// admission control (governor.ErrAdmission).
	ViolationsAdmission int64 `json:"violations_admission"`
	// CacheHits counts subexpressions served from a cache.
	CacheHits int64 `json:"cache_hits"`
	// CacheMisses counts subexpressions that were evaluated.
	CacheMisses int64 `json:"cache_misses"`
	// CacheInvalidations counts cache entries dropped.
	CacheInvalidations int64 `json:"cache_invalidations"`
}

// ViolationCount is one (kind, count) pair of the governor-violation
// counters, for exporters and footers that enumerate them.
type ViolationCount struct {
	// Kind is a Violation* constant.
	Kind string
	// Count is how many evaluations died on that sentinel.
	Count int64
}

// ViolationCounts returns the violation counters in the ViolationKinds
// order, including zero counts.
func (s MetricsSnapshot) ViolationCounts() []ViolationCount {
	return []ViolationCount{
		{ViolationDeadline, s.ViolationsDeadline},
		{ViolationCanceled, s.ViolationsCanceled},
		{ViolationRowBudget, s.ViolationsRowBudget},
		{ViolationMemBudget, s.ViolationsMemBudget},
		{ViolationAdmission, s.ViolationsAdmission},
	}
}

// ViolationsTotal sums the violation counters across sentinels.
func (s MetricsSnapshot) ViolationsTotal() int64 {
	return s.ViolationsDeadline + s.ViolationsCanceled + s.ViolationsRowBudget +
		s.ViolationsMemBudget + s.ViolationsAdmission
}

// fold accumulates another snapshot into s: counters add, the peak
// intermediate takes the maximum. It is the Registry's cross-evaluation
// aggregation step.
func (s *MetricsSnapshot) fold(o MetricsSnapshot) {
	if o.MaxIntermediate > s.MaxIntermediate {
		s.MaxIntermediate = o.MaxIntermediate
	}
	s.Joins += o.Joins
	s.IntermediateTuples += o.IntermediateTuples
	s.TuplesBuilt += o.TuplesBuilt
	s.TuplesProbed += o.TuplesProbed
	s.TuplesEmitted += o.TuplesEmitted
	s.PartitionedJoins += o.PartitionedJoins
	s.Partitions += o.Partitions
	s.BroadcastJoins += o.BroadcastJoins
	s.SequentialFallbacks += o.SequentialFallbacks
	s.WCOJJoins += o.WCOJJoins
	s.WCOJCandidates += o.WCOJCandidates
	s.WCOJIntersections += o.WCOJIntersections
	s.YannakakisJoins += o.YannakakisJoins
	s.Semijoins += o.Semijoins
	s.SemijoinRows += o.SemijoinRows
	s.DegradedEvals += o.DegradedEvals
	s.ViolationsDeadline += o.ViolationsDeadline
	s.ViolationsCanceled += o.ViolationsCanceled
	s.ViolationsRowBudget += o.ViolationsRowBudget
	s.ViolationsMemBudget += o.ViolationsMemBudget
	s.ViolationsAdmission += o.ViolationsAdmission
	s.CacheHits += o.CacheHits
	s.CacheMisses += o.CacheMisses
	s.CacheInvalidations += o.CacheInvalidations
}

// String renders the snapshot as a single stats line.
func (s MetricsSnapshot) String() string {
	return fmt.Sprintf(
		"joins=%d "+FieldMaxIntermediate+"=%d intermediate_tuples=%d "+
			"built=%d probed=%d emitted=%d "+
			"partitioned=%d partitions=%d broadcast=%d seq_fallback=%d "+
			"wcoj=%d wcoj_candidates=%d wcoj_intersections=%d "+
			"yannakakis=%d "+FieldSemijoins+"=%d semijoin_rows=%d "+FieldDegraded+"=%d "+
			"viol_deadline=%d viol_canceled=%d viol_row_budget=%d viol_mem_budget=%d viol_admission=%d "+
			"cache_hits=%d cache_misses=%d cache_invalidations=%d",
		s.Joins, s.MaxIntermediate, s.IntermediateTuples,
		s.TuplesBuilt, s.TuplesProbed, s.TuplesEmitted,
		s.PartitionedJoins, s.Partitions, s.BroadcastJoins, s.SequentialFallbacks,
		s.WCOJJoins, s.WCOJCandidates, s.WCOJIntersections,
		s.YannakakisJoins, s.Semijoins, s.SemijoinRows, s.DegradedEvals,
		s.ViolationsDeadline, s.ViolationsCanceled, s.ViolationsRowBudget,
		s.ViolationsMemBudget, s.ViolationsAdmission,
		s.CacheHits, s.CacheMisses, s.CacheInvalidations)
}
