package algebra

import (
	"context"
	"fmt"
	"sync"
	"time"

	"relquery/internal/fault"
	"relquery/internal/governor"
	"relquery/internal/join"
	"relquery/internal/obs"
	"relquery/internal/relation"
)

// Evaluator materializes project–join expressions against a database. The
// zero value is ready to use: hash joins, greedy join ordering, no
// statistics.
type Evaluator struct {
	// Algorithm performs each binary join; nil means join.Hash.
	Algorithm join.Algorithm
	// Order sequences n-ary joins (join.Greedy or join.Sequential).
	Order join.Order
	// Limits bounds the evaluation with the resource governor: a
	// wall-clock deadline, a final-result row cap, the intermediate-row
	// budget and an estimated-memory budget. Every join strategy checks
	// the governor cooperatively at tuple-batch granularity, so
	// violations abort mid-join with a typed sentinel (governor.ErrDeadline,
	// ErrRowBudget, ErrMemBudget, ErrCanceled) rather than after
	// materializing. The zero Limits (with a background context) keeps the
	// engine on its ungoverned zero-overhead path.
	Limits governor.Limits
	// Admit, when true, turns on pre-flight admission control: a join
	// node about to run on the greedy binary planner is rejected by its
	// join.Plan (Plan.Admit) when the predicted peak intermediate exceeds
	// the intermediate-row budget, instead of being killed mid-flight.
	// Nodes routed to the output-bounded strategies (wcoj, yannakakis)
	// are always admitted — the row budget still guards them during
	// execution. False (the default) is the override: mis-predicted
	// queries run and the mid-flight checkpoints catch real violations.
	Admit bool
	// Degrade, when true, retries a join node once on the greedy binary
	// path (hash join, greedy order) when its wcoj or yannakakis strategy
	// fails with an engine error or a recovered panic. Governor
	// violations never degrade — retrying after a deadline or budget kill
	// on a strategy with *weaker* guarantees would only dig deeper. Each
	// retry is recorded in the degraded_evals metric and marks the span.
	Degrade bool
	// AutoWCOJ, when true, lets each n-ary join node of three or more
	// inputs switch to the worst-case-optimal generic join (join.Generic)
	// when its join.Plan predicts a blow-up: the greedy binary planner's
	// predicted peak (Plan.Peak) exceeds the node's AGM output bound —
	// the regime of the paper's Lemma 1 gadgets. Nodes below that
	// threshold keep the configured binary algorithm.
	// Set Algorithm to join.Generic{} to force the generic join on every
	// join node instead.
	AutoWCOJ bool
	// AutoYannakakis, when true, runs GYO ear removal over each n-ary
	// join node's scheme hypergraph and evaluates α-acyclic nodes with
	// Yannakakis' algorithm (join.Yannakakis): full semijoin reduction
	// along the join tree, then joins that never outgrow the output — the
	// Durand–Grandjean tractable frontier. Cyclic nodes fall through to
	// AutoWCOJ (if set) and the binary planner; together the two flags are
	// the -join=auto three-way selector: acyclic → yannakakis, cyclic with
	// predicted blow-up → wcoj, else greedy binary. Set Algorithm to
	// join.Yannakakis{} to force the strategy on every join node instead
	// (cyclic nodes then use its pairwise-reduced binary fallback).
	AutoYannakakis bool
	// Cache, when true, memoizes structurally identical subexpressions
	// within one Eval call (common-subexpression elimination), keyed by
	// the rendered expression text. The memo does not outlive the call —
	// the database may change between calls. The memo is compute-once
	// even under parallel evaluation.
	Cache bool
	// Parallelism, when > 1, evaluates independent join subtrees
	// concurrently on a worker pool of this size and makes the default
	// join algorithm the partitioned parallel hash join
	// (join.Parallel{Workers: Parallelism}). Results are identical to
	// sequential evaluation: relations are sets, every operator is
	// order-deterministic, and the Collector's metrics are atomic. <= 1
	// means sequential — the zero value preserves pre-parallel behavior.
	Parallelism int
	// SharedCache, when non-nil, memoizes subexpression results across
	// Eval calls, keyed by expression text plus the content fingerprints
	// of the referenced relations (relation.Fingerprint), so entries
	// survive only as long as the underlying relations are unchanged.
	SharedCache *SubexprCache
	// Collector, when non-nil, records a span per operator (cardinalities,
	// scheme width, wall time, join algorithm, cache status, worker count,
	// AGM bound) and evaluation-wide counters into an obs trace. Nil — the
	// zero value — keeps the engine on its uninstrumented fast path: span
	// and metric calls reduce to nil checks, with no allocation or clock
	// reads (see BenchmarkE9ParallelEval's traced/untraced pairs). Its
	// metrics snapshots are race-free mid-run (Collector.Metrics.Snapshot).
	Collector *obs.Collector
	// Registry, when non-nil, aggregates every EvalContext outcome —
	// success or violation — into process-wide telemetry: wall time into
	// the latency histogram and, when a Collector is also attached, the
	// trace's metrics and span tree into the cross-evaluation totals and
	// the /debug/traces ring. Nil (the zero value) publishes nothing and
	// costs one nil check per evaluation.
	Registry *obs.Registry
}

// AlgorithmName names the binary-join algorithm the evaluator will
// actually use, resolving the nil default ("hash", or "parallel" when
// Parallelism > 1).
func (ev *Evaluator) AlgorithmName() string { return ev.algorithm().Name() }

func (ev *Evaluator) algorithm() join.Algorithm {
	if ev.Algorithm != nil {
		return ev.Algorithm
	}
	if ev.Parallelism > 1 {
		return join.Parallel{Workers: ev.Parallelism}
	}
	return join.Hash{}
}

// Eval computes e(db). Operand references are checked against the
// database: the named relation must exist and its scheme must be set-equal
// to the operand's declared scheme.
func (ev *Evaluator) Eval(e Expr, db relation.Database) (*relation.Relation, error) {
	return ev.EvalContext(context.Background(), e, db)
}

// EvalContext is Eval under a context and the evaluator's Limits: the
// governor carries both through every join strategy, which check it
// cooperatively at tuple-batch granularity. Cancellation, deadlines and
// budget violations surface as errors.Is-able governor sentinels; when a
// collector is attached, the error also carries the partial span tree
// (governor.TraceOf) so EXPLAIN ANALYZE can render where the budget
// died. A background context with zero Limits keeps the whole governance
// layer on its nil fast path.
func (ev *Evaluator) EvalContext(ctx context.Context, e Expr, db relation.Database) (*relation.Relation, error) {
	var start time.Time
	if ev.Registry != nil {
		start = time.Now() // clock read only when telemetry is on
	}
	gov := governor.New(ctx, ev.Limits).WithMetrics(ev.Collector.M())
	var memo *memoTable
	if ev.Cache {
		memo = newMemoTable()
	}
	r, err := ev.eval(e, db, memo, ev.newSpan(nil, e), gov)
	if err == nil {
		err = gov.CheckOutput(r.Len())
	}
	if ev.Registry != nil {
		ev.Registry.Observe(ev.Collector.Trace(), time.Since(start))
	}
	if err != nil {
		return nil, ev.violation(err)
	}
	return r, nil
}

// violation annotates a governor violation with the partial span tree
// captured at the time of death. Non-violations and collector-less
// evaluations pass through unchanged, as do errors already annotated.
func (ev *Evaluator) violation(err error) error {
	if ev.Collector == nil || !governor.Violated(err) || governor.TraceOf(err) != nil {
		return err
	}
	return &governor.Violation{Err: err, Trace: ev.Collector.Trace()}
}

// newSpan opens the span for node e under parent (a root span when parent
// is nil). It returns nil — and allocates nothing — when no collector is
// attached. Spans for a join's arguments are created sequentially before
// the parallel fan-out, so Children order always matches argument order.
func (ev *Evaluator) newSpan(parent *obs.Span, e Expr) *obs.Span {
	if ev.Collector == nil {
		return nil
	}
	op := spanOp(e)
	label := nodeLabel(e)
	var sp *obs.Span
	if parent == nil {
		sp = ev.Collector.Start(op, label)
	} else {
		sp = parent.Child(op, label)
	}
	sp.SetSchemeWidth(e.Scheme().Len())
	return sp
}

func spanOp(e Expr) string {
	switch e.(type) {
	case *Operand:
		return obs.OpScan
	case *Project:
		return obs.OpProject
	case *Join:
		return obs.OpJoin
	default:
		return fmt.Sprintf("%T", e)
	}
}

// eval computes one node, recording its span (sp may be nil: tracing
// off). A node served from the per-call memo or the shared cache gets a
// span with cache status "hit" and no children — its subtree was not
// executed. Every node is a governor checkpoint, so cancellation reaches
// even join-free expressions; only *successful* node results enter the
// caches (both cache layers skip storing errors), so an aborted
// evaluation can never poison a cache with a partial relation.
func (ev *Evaluator) eval(e Expr, db relation.Database, memo *memoTable, sp *obs.Span, gov *governor.Governor) (*relation.Relation, error) {
	sp.Begin()
	fault.Hit(fault.EvalNode)
	if err := gov.Check(); err != nil {
		return ev.finishSpan(sp, "", nil, err)
	}
	// Operands are cheap lookups; only memoize composite nodes.
	if _, isOp := e.(*Operand); isOp || (memo == nil && ev.SharedCache == nil) {
		r, err := ev.evalNode(e, db, memo, sp, gov)
		return ev.finishSpan(sp, "", r, err)
	}
	cacheStatus := obs.CacheMiss
	compute := func() (*relation.Relation, error) {
		if ev.SharedCache != nil {
			r, hit, err := ev.SharedCache.do(e, db, func() (*relation.Relation, error) {
				return ev.evalNode(e, db, memo, sp, gov)
			})
			if hit {
				cacheStatus = obs.CacheHit
			}
			return r, err
		}
		return ev.evalNode(e, db, memo, sp, gov)
	}
	var r *relation.Relation
	var err error
	if memo != nil {
		var hit bool
		r, hit, err = memo.do(e.String(), compute)
		if hit {
			cacheStatus = obs.CacheHit
		}
	} else {
		r, err = compute()
	}
	if cacheStatus == obs.CacheHit {
		ev.Collector.M().CacheHit()
	} else {
		ev.Collector.M().CacheMiss()
	}
	return ev.finishSpan(sp, cacheStatus, r, err)
}

// finishSpan closes sp with the node's outcome and passes the result
// through.
func (ev *Evaluator) finishSpan(sp *obs.Span, cacheStatus string, r *relation.Relation, err error) (*relation.Relation, error) {
	if sp != nil {
		sp.SetCache(cacheStatus)
		sp.SetErr(err)
		rows := 0
		if r != nil {
			rows = r.Len()
		}
		sp.Finish(rows)
	}
	if err != nil {
		return nil, err
	}
	return r, nil
}

func (ev *Evaluator) evalNode(e Expr, db relation.Database, memo *memoTable, sp *obs.Span, gov *governor.Governor) (*relation.Relation, error) {
	switch x := e.(type) {
	case *Operand:
		r, err := db.Get(x.Name())
		if err != nil {
			return nil, err
		}
		if !r.Scheme().Equal(x.Scheme()) {
			return nil, fmt.Errorf("algebra: operand %q declared over %v but database relation has scheme %v",
				x.Name(), x.Scheme(), r.Scheme())
		}
		return r, nil

	case *Project:
		child, err := ev.eval(x.Of(), db, memo, ev.newSpan(sp, x.Of()), gov)
		if err != nil {
			return nil, err
		}
		if sp != nil {
			sp.SetInputs([]int{child.Len()})
		}
		out, err := child.Project(x.Onto())
		if err != nil {
			return nil, err
		}
		ev.Collector.M().ObserveIntermediate(out.Len())
		// A projection is not a join node: its context carries no span.
		if err := (join.Exec{Gov: gov}).Observe(out); err != nil {
			return nil, err
		}
		return out, nil

	case *Join:
		args, err := ev.evalArgs(x.Args(), db, memo, sp, gov)
		if err != nil {
			return nil, err
		}
		out, err := ev.multi(args, sp, gov)
		if err != nil {
			return nil, err
		}
		return out, nil

	default:
		return nil, fmt.Errorf("algebra: unknown expression type %T", e)
	}
}

// evalArgs evaluates a join node's argument subtrees — concurrently on a
// worker pool of ev.Parallelism when the parallel engine is on, else in
// order. The pool bounds this node's fan-out; nested join nodes each get
// their own pool, so total goroutines can exceed Parallelism briefly,
// but every worker makes progress (the memo's waiting is well-founded on
// the expression tree) so there is no deadlock.
func (ev *Evaluator) evalArgs(exprs []Expr, db relation.Database, memo *memoTable, sp *obs.Span, gov *governor.Governor) ([]*relation.Relation, error) {
	args := make([]*relation.Relation, len(exprs))
	if ev.Parallelism <= 1 || len(exprs) < 2 {
		for i, a := range exprs {
			r, err := ev.eval(a, db, memo, ev.newSpan(sp, a), gov)
			if err != nil {
				return nil, err
			}
			args[i] = r
		}
		return args, nil
	}
	// Child spans are created here, in argument order, before any worker
	// starts: the trace's child order stays deterministic under
	// concurrency.
	spans := make([]*obs.Span, len(exprs))
	for i, a := range exprs {
		spans[i] = ev.newSpan(sp, a)
	}
	sem := make(chan struct{}, ev.Parallelism)
	errs := make([]error, len(exprs))
	var wg sync.WaitGroup
	for i, a := range exprs {
		wg.Add(1)
		go func(i int, a Expr) {
			defer wg.Done()
			sem <- struct{}{}
			defer func() { <-sem }()
			args[i], errs[i] = ev.eval(a, db, memo, spans[i], gov)
		}(i, a)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return args, nil
}

// multi joins args under the node's execution context, aborting
// mid-plan — and, under a governor, mid-join — as soon as any checkpoint
// trips. The node's join.Plan is built once here; the strategy choice,
// the admission gate, the span annotation and the n-ary executors all
// read it.
func (ev *Evaluator) multi(args []*relation.Relation, sp *obs.Span, gov *governor.Governor) (*relation.Relation, error) {
	if sp != nil {
		ins := make([]int, len(args))
		for i, a := range args {
			ins[i] = a.Len()
		}
		sp.SetInputs(ins)
	}
	x := join.Exec{Metrics: ev.Collector.M(), Gov: gov, Span: sp}
	p := join.NewPlan(args)
	alg := ev.algorithm()
	_, forcedY := alg.(join.Yannakakis)
	if forcedY || (ev.AutoYannakakis && len(args) > 2) {
		// A binary join's only intermediate is its own output, so the
		// full reducer has nothing to save there — auto mode runs GYO
		// detection on 3+-ary nodes only. Forced mode always detects:
		// two edges are trivially acyclic.
		if _, acyclic := p.JoinTree(); acyclic {
			return ev.outputBounded(x, p, join.Yannakakis{})
		}
		// Cyclic: record the verdict and fall through — to the AGM
		// blow-up check under auto, or (forced) to the binary planner
		// over the algorithm's pairwise-reduced joins.
		sp.SetStructure(obs.StructureCyclic)
	}
	// The Lemma 1 regime: the binary planner's predicted peak exceeds the
	// n-ary AGM bound. Binary joins cannot exceed their own AGM bound, so
	// only 3+-ary nodes can blow up past the n-ary bound.
	_, forced := alg.(join.Generic)
	if forced || (ev.AutoWCOJ && len(args) > 2 && p.AGMBound() > 0 && p.Peak() > p.AGMBound()) {
		return ev.outputBounded(x, p, join.Generic{})
	}
	return ev.multiBinary(x, p, alg, ev.Order)
}

// annotate records the node's AGM bound and strategy on its span.
func annotate(sp *obs.Span, p *join.Plan, alg join.Algorithm) {
	if sp == nil {
		return
	}
	sp.SetAGMBound(p.AGMBound())
	workers := 0
	if par, ok := alg.(join.Parallel); ok {
		workers = par.EffectiveWorkers()
	}
	sp.SetAlgorithm(alg.Name(), workers)
}

// multiBinary runs the binary-join planner tail of multi: the admission
// gate, span annotation and the plan itself (join.Multi observes every
// binary-join output through x), with strategy panics recovered to
// errors. It is also the graceful-degradation retry target.
func (ev *Evaluator) multiBinary(x join.Exec, p *join.Plan, alg join.Algorithm, order join.Order) (*relation.Relation, error) {
	if ev.Admit {
		if err := p.Admit(x.Gov, false); err != nil {
			return nil, err
		}
	}
	annotate(x.Span, p, alg)
	return safeJoin("binary join plan", func() (*relation.Relation, error) {
		return join.Multi(x, p.Inputs(), alg, order)
	})
}

// safeJoin runs one join strategy with panic recovery: a crash inside a
// strategy (or injected by the fault harness) surfaces as an error —
// preserving error payloads for errors.As — instead of killing the
// process.
func safeJoin(what string, fn func() (*relation.Relation, error)) (out *relation.Relation, err error) {
	defer func() {
		if rec := recover(); rec != nil {
			if e, ok := rec.(error); ok {
				err = fmt.Errorf("algebra: %s panicked: %w", what, e)
			} else {
				err = fmt.Errorf("algebra: %s panicked: %v", what, rec)
			}
			out = nil
		}
	}()
	return fn()
}

// outputBounded evaluates a join node on an output-bounded strategy:
// join.Yannakakis on an α-acyclic node (it observes every relation it
// materializes through x) or join.Generic on a predicted blow-up (its
// only materialization, observed here, is its output — at most the AGM
// bound the span records). A failure degrades as the Degrade field
// describes, to the greedy binary path with the default hash join; the
// retry's own failure propagates.
func (ev *Evaluator) outputBounded(x join.Exec, p *join.Plan, alg join.Algorithm) (*relation.Relation, error) {
	annotate(x.Span, p, alg)
	what := "wcoj strategy"
	_, acyclic := alg.(join.Yannakakis)
	if acyclic {
		what = "yannakakis strategy"
		x.Span.SetStructure(obs.StructureAcyclic)
	}
	var ys join.YannakakisStats
	var gs join.GenericStats
	out, err := safeJoin(what, func() (r *relation.Relation, err error) {
		if acyclic {
			r, ys, err = join.Yannakakis{}.JoinAll(x, p)
		} else {
			r, gs, err = join.Generic{}.JoinAll(x, p)
		}
		return r, err
	})
	if err != nil {
		if !ev.Degrade || governor.Violated(err) {
			return nil, err
		}
		x.Metrics.Degraded()
		x.Span.SetDegraded()
		out, rerr := ev.multiBinary(x, p, join.Hash{}, join.Greedy)
		if rerr != nil {
			return nil, fmt.Errorf("algebra: degraded retry failed: %w (original failure: %w)", rerr, err)
		}
		return out, nil
	}
	if acyclic {
		x.Span.SetYannakakis(ys.Semijoins, ys.ReducedRows)
		return out, nil
	}
	x.Span.SetWCOJ(gs.Candidates, gs.Intersections)
	if err := x.Observe(out); err != nil {
		return nil, err
	}
	return out, nil
}

// Eval evaluates e(db) with default settings (hash join, greedy order).
func Eval(e Expr, db relation.Database) (*relation.Relation, error) {
	ev := Evaluator{}
	return ev.Eval(e, db)
}

// EvalSingle evaluates an expression whose operands all name the same
// single relation — the common case for the paper's constructions, where
// every query runs against one relation R.
func EvalSingle(e Expr, name string, r *relation.Relation) (*relation.Relation, error) {
	return Eval(e, relation.Single(name, r))
}
