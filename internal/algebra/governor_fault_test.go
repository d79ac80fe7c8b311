package algebra

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"testing"

	"relquery/internal/fault"
	"relquery/internal/governor"
	"relquery/internal/join"
	"relquery/internal/obs"
	"relquery/internal/relation"
)

// chainWorkload builds an acyclic three-relation chain join
// R1(A,B) ∗ R2(B,C) ∗ R3(C,D) large enough that every strategy crosses
// many governor tick batches (governor.CheckEvery) and several fault
// injection points: ~12k output tuples from ~1.4k input tuples. Being a
// chain it is α-acyclic, so the same expression drives the greedy binary,
// parallel, wcoj and yannakakis strategies.
func chainWorkload(t testing.TB) (Expr, relation.Database) {
	t.Helper()
	r1 := relation.New(relation.MustScheme("A", "B"))
	r2 := relation.New(relation.MustScheme("B", "C"))
	r3 := relation.New(relation.MustScheme("C", "D"))
	for i := 0; i < 600; i++ {
		r1.MustAdd(relation.TupleOf(fmt.Sprintf("a%d", i), fmt.Sprintf("b%d", i%20)))
	}
	for j := 0; j < 400; j++ {
		r2.MustAdd(relation.TupleOf(fmt.Sprintf("b%d", j%20), fmt.Sprintf("c%d", j)))
		r3.MustAdd(relation.TupleOf(fmt.Sprintf("c%d", j), fmt.Sprintf("d%d", j)))
	}
	db := relation.NewDatabase()
	db.Put("R1", r1)
	db.Put("R2", r2)
	db.Put("R3", r3)
	e := MustJoin(
		MustOperand("R1", r1.Scheme()),
		MustOperand("R2", r2.Scheme()),
		MustOperand("R3", r3.Scheme()),
	)
	return e, db
}

// evalStrategy pairs one evaluation strategy with the fault point its
// hot loop crosses, so cancellation and panic can be injected mid-join
// (not merely before the join starts).
type evalStrategy struct {
	name  string
	point fault.Point
	mk    func() *Evaluator
}

// evalStrategies returns the four join strategies the governor must
// interrupt: greedy binary hash, parallel hash, worst-case-optimal
// generic, and Yannakakis.
func evalStrategies() []evalStrategy {
	return []evalStrategy{
		{"greedy-hash", fault.JoinBatch, func() *Evaluator {
			return &Evaluator{Order: join.Greedy}
		}},
		{"parallel", fault.ParallelWorker, func() *Evaluator {
			return &Evaluator{Order: join.Greedy, Parallelism: 4}
		}},
		{"wcoj", fault.WCOJSearch, func() *Evaluator {
			return &Evaluator{Order: join.Greedy, Algorithm: join.Generic{}}
		}},
		{"yannakakis", fault.Semijoin, func() *Evaluator {
			return &Evaluator{Order: join.Greedy, Algorithm: join.Yannakakis{}}
		}},
	}
}

// chainBaselines evaluates the workload ungoverned once per strategy and
// returns each strategy's reference rendering, cross-checked for set
// equality against the greedy engine (strategies may emit a different —
// but fixed — column order, so byte-identity only holds within one
// strategy).
func chainBaselines(t *testing.T, e Expr, db relation.Database) map[string]string {
	t.Helper()
	ref, err := (&Evaluator{Order: join.Greedy}).Eval(e, db)
	if err != nil {
		t.Fatal(err)
	}
	if ref.Len() == 0 {
		t.Fatal("chain workload produced an empty join")
	}
	out := make(map[string]string, len(evalStrategies()))
	for _, st := range evalStrategies() {
		got, err := st.mk().Eval(e, db)
		if err != nil {
			t.Fatalf("%s baseline: %v", st.name, err)
		}
		if !got.Equal(ref) {
			t.Fatalf("%s baseline disagrees with the greedy engine", st.name)
		}
		out[st.name] = relation.RenderSorted(got)
	}
	return out
}

// TestCancelMidJoinParity is the cancellation parity suite: for each of
// the four strategies, a fault rule cancels the evaluation's context from
// inside the strategy's own hot loop. The evaluation must die with the
// typed governor.ErrCanceled sentinel, must not poison the shared
// subexpression cache with a partial relation, and a rerun against the
// same cache must be byte-identical to the ungoverned baseline.
func TestCancelMidJoinParity(t *testing.T) {
	e, db := chainWorkload(t)
	baselines := chainBaselines(t, e, db)
	for _, st := range evalStrategies() {
		t.Run(st.name, func(t *testing.T) {
			cache := NewSubexprCache()
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			restore := fault.Set(fault.NewScript(fault.Rule{
				Point: st.point, N: 2, Act: fault.Call, Func: cancel,
			}))
			ev := st.mk()
			ev.Cache = true
			ev.SharedCache = cache
			out, err := ev.EvalContext(ctx, e, db)
			restore()
			if err == nil {
				t.Fatalf("evaluation survived a context cancel injected at %s (got %d rows)", st.point, out.Len())
			}
			if !errors.Is(err, governor.ErrCanceled) {
				t.Fatalf("want governor.ErrCanceled in chain, got %v", err)
			}
			if !governor.Violated(err) {
				t.Fatalf("cancellation must register as a governor violation: %v", err)
			}

			// Byte-identical rerun over the same shared cache: an aborted
			// evaluation must not have stored partial results.
			ev2 := st.mk()
			ev2.Cache = true
			ev2.SharedCache = cache
			got, err := ev2.Eval(e, db)
			if err != nil {
				t.Fatalf("rerun after cancel failed: %v", err)
			}
			if relation.RenderSorted(got) != baselines[st.name] {
				t.Fatalf("%s: rerun after cancel is not byte-identical to the baseline", st.name)
			}
		})
	}
}

// TestCancelBetweenOperatorsIsTyped cancels at an algebra-node boundary
// (fault.EvalNode) rather than inside a join loop: the per-node governor
// checkpoint must surface the same typed sentinel.
func TestCancelBetweenOperatorsIsTyped(t *testing.T) {
	e, db := chainWorkload(t)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	restore := fault.Set(fault.NewScript(fault.Rule{
		Point: fault.EvalNode, N: 2, Act: fault.Call, Func: cancel,
	}))
	defer restore()
	ev := &Evaluator{Order: join.Greedy}
	if _, err := ev.EvalContext(ctx, e, db); !errors.Is(err, governor.ErrCanceled) {
		t.Fatalf("want governor.ErrCanceled from node checkpoint, got %v", err)
	}
}

// TestPreCanceledContext verifies the fastest kill: a context canceled
// before evaluation starts dies at the first node checkpoint under every
// strategy, before any join work.
func TestPreCanceledContext(t *testing.T) {
	e, db := chainWorkload(t)
	for _, st := range evalStrategies() {
		t.Run(st.name, func(t *testing.T) {
			ctx, cancel := context.WithCancel(context.Background())
			cancel()
			col := &obs.Collector{}
			ev := st.mk()
			ev.Collector = col
			_, err := ev.EvalContext(ctx, e, db)
			if !errors.Is(err, governor.ErrCanceled) {
				t.Fatalf("want governor.ErrCanceled, got %v", err)
			}
			if snap := col.Metrics.Snapshot(); snap.MaxIntermediate != 0 {
				t.Fatalf("pre-canceled evaluation still materialized %d intermediate rows", snap.MaxIntermediate)
			}
		})
	}
}

// TestInjectedPanicSurfacesAsError is the panic-recovery half of the
// fault matrix: a panic injected into each strategy's hot loop must
// surface as an error that preserves the *fault.InjectedPanic payload
// through errors.As — never crash the process, and never masquerade as a
// governor violation. The engine must stay usable afterwards.
func TestInjectedPanicSurfacesAsError(t *testing.T) {
	e, db := chainWorkload(t)
	baselines := chainBaselines(t, e, db)
	points := make(map[string]fault.Point, len(evalStrategies())+1)
	for _, st := range evalStrategies() {
		points[st.name] = st.point
	}
	for _, st := range evalStrategies() {
		t.Run(st.name, func(t *testing.T) {
			restore := fault.Set(fault.NewScript(fault.Rule{
				Point: points[st.name], Act: fault.Panic,
			}))
			ev := st.mk()
			_, err := ev.EvalContext(context.Background(), e, db)
			restore()
			if err == nil {
				t.Fatalf("injected panic at %s did not surface as an error", points[st.name])
			}
			var ip *fault.InjectedPanic
			if !errors.As(err, &ip) {
				t.Fatalf("recovered panic lost its payload: %v", err)
			}
			if ip.Point != points[st.name] {
				t.Fatalf("payload names point %s, injected at %s", ip.Point, points[st.name])
			}
			if governor.Violated(err) {
				t.Fatalf("a strategy crash must not register as a governor violation: %v", err)
			}

			// The process-global harness is restored: the same evaluator
			// configuration must now succeed.
			ev2 := st.mk()
			got, err := ev2.Eval(e, db)
			if err != nil {
				t.Fatalf("rerun after injected panic failed: %v", err)
			}
			if relation.RenderSorted(got) != baselines[st.name] {
				t.Fatalf("%s: rerun after injected panic is not byte-identical to the baseline", st.name)
			}
		})
	}
}

// TestGracefulDegradation injects a panic into the wcoj and yannakakis
// strategies with Degrade on: the node must be retried once on the greedy
// binary hash path, produce the exact baseline result, count one
// degraded_evals metric, and mark the span so EXPLAIN ANALYZE shows the
// downgrade.
func TestGracefulDegradation(t *testing.T) {
	e, db := chainWorkload(t)
	ref, err := (&Evaluator{Order: join.Greedy}).Eval(e, db)
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name  string
		point fault.Point
		alg   join.Algorithm
	}{
		{"wcoj", fault.WCOJSearch, join.Generic{}},
		{"yannakakis", fault.Semijoin, join.Yannakakis{}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			restore := fault.Set(fault.NewScript(fault.Rule{
				Point: tc.point, Act: fault.Panic,
			}))
			defer restore()
			col := &obs.Collector{}
			ev := &Evaluator{Order: join.Greedy, Algorithm: tc.alg, Degrade: true, Collector: col}
			got, err := ev.Eval(e, db)
			if err != nil {
				t.Fatalf("degraded evaluation failed: %v", err)
			}
			if !got.Equal(ref) {
				t.Fatal("degraded retry produced a different result than the baseline")
			}
			if n := col.Metrics.Snapshot().DegradedEvals; n != 1 {
				t.Fatalf("degraded_evals = %d, want 1", n)
			}
			render := RenderTrace(col.Trace())
			if !strings.Contains(render, " degraded") {
				t.Fatalf("trace rendering does not mark the degraded span:\n%s", render)
			}
		})
	}
}

// TestDegradeOffPropagatesStrategyFailure is the Degrade=false control
// for the degradation ladder: the same injected crash must propagate.
func TestDegradeOffPropagatesStrategyFailure(t *testing.T) {
	e, db := chainWorkload(t)
	restore := fault.Set(fault.NewScript(fault.Rule{Point: fault.WCOJSearch, Act: fault.Panic}))
	defer restore()
	col := &obs.Collector{}
	ev := &Evaluator{Order: join.Greedy, Algorithm: join.Generic{}, Collector: col}
	_, err := ev.Eval(e, db)
	var ip *fault.InjectedPanic
	if !errors.As(err, &ip) {
		t.Fatalf("want the injected panic to propagate with Degrade off, got %v", err)
	}
	if n := col.Metrics.Snapshot().DegradedEvals; n != 0 {
		t.Fatalf("degraded_evals = %d with Degrade off, want 0", n)
	}
}

// TestGovernorViolationNeverDegrades kills a wcoj evaluation with the row
// budget and verifies Degrade does not retry it on the greedier binary
// path: a budget violation would only dig deeper there.
func TestGovernorViolationNeverDegrades(t *testing.T) {
	e, db := chainWorkload(t)
	col := &obs.Collector{}
	ev := &Evaluator{
		Order:     join.Greedy,
		Algorithm: join.Generic{},
		Degrade:   true,
		Collector: col,
		Limits:    governor.Limits{MaxIntermediateRows: 100},
	}
	_, err := ev.Eval(e, db)
	if !errors.Is(err, governor.ErrRowBudget) {
		t.Fatalf("want governor.ErrRowBudget, got %v", err)
	}
	if n := col.Metrics.Snapshot().DegradedEvals; n != 0 {
		t.Fatalf("a row-budget kill degraded %d times, want 0", n)
	}
}

// TestAdmissionControlChain verifies pre-flight admission on the chain
// workload: with a budget below the binary planner's predicted peak the
// greedy path is rejected before any join work, while the forced wcoj
// path — whose peak is bounded by its own output — is admitted and
// completes under the same budget.
func TestAdmissionControlChain(t *testing.T) {
	e, db := chainWorkload(t)
	ev := Evaluator{Order: join.Greedy}
	out, err := ev.Eval(e, db)
	if err != nil {
		t.Fatal(err)
	}
	args := make([]*relation.Relation, 0, 3)
	for _, name := range []string{"R1", "R2", "R3"} {
		r, err := db.Get(name)
		if err != nil {
			t.Fatal(err)
		}
		args = append(args, r)
	}
	predicted := max(join.PredictedPeakGreedy(args), join.WorstCasePeakGreedy(args))
	budget := out.Len() + 1
	if float64(budget) >= predicted {
		t.Fatalf("workload cannot separate admission from output: budget %d, predicted peak %.0f", budget, predicted)
	}

	t.Run("greedy-rejected", func(t *testing.T) {
		col := &obs.Collector{}
		ev := &Evaluator{Order: join.Greedy, Admit: true, Collector: col,
			Limits: governor.Limits{MaxIntermediateRows: budget}}
		_, err := ev.Eval(e, db)
		if !errors.Is(err, governor.ErrAdmission) {
			t.Fatalf("want governor.ErrAdmission, got %v", err)
		}
		if snap := col.Metrics.Snapshot(); snap.MaxIntermediate != 0 {
			t.Fatalf("admission rejection came after materializing %d rows; must be pre-flight", snap.MaxIntermediate)
		}
	})
	t.Run("wcoj-admitted", func(t *testing.T) {
		ev := &Evaluator{Order: join.Greedy, Algorithm: join.Generic{}, Admit: true,
			Limits: governor.Limits{MaxIntermediateRows: budget}}
		got, err := ev.Eval(e, db)
		if err != nil {
			t.Fatalf("output-bounded strategy must be admitted under the same budget: %v", err)
		}
		if !got.Equal(out) {
			t.Fatal("wcoj result under budget differs from ungoverned result")
		}
	})
}
