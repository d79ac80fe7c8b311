package algebra

import (
	"fmt"
	"math/rand"
	"testing"

	"relquery/internal/governor"
	"relquery/internal/obs"
	"relquery/internal/relation"
)

// randomWideRel builds a relation over the given attributes with enough
// rows to push intermediate joins over join.MinParallelRows.
func randomWideRel(t *testing.T, seed int64, attrs []string, rows, vals int) *relation.Relation {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	s, err := relation.SchemeOf(joinStrings(attrs))
	if err != nil {
		t.Fatal(err)
	}
	r := relation.New(s)
	for i := 0; i < rows; i++ {
		row := make([]string, len(attrs))
		for j := range row {
			row[j] = fmt.Sprintf("v%d", rng.Intn(vals))
		}
		r.MustAdd(relation.TupleOf(row...))
	}
	return r
}

func joinStrings(parts []string) string {
	out := ""
	for i, p := range parts {
		if i > 0 {
			out += " "
		}
		out += p
	}
	return out
}

// legsExpr builds the paper-shaped query ∗_i π_{Y_i}(T): one projection
// leg per attribute pair, joined.
func legsExpr(t *testing.T, op *Operand, pairs [][]string) Expr {
	t.Helper()
	legs := make([]Expr, len(pairs))
	for i, p := range pairs {
		s, err := relation.SchemeOf(joinStrings(p))
		if err != nil {
			t.Fatal(err)
		}
		legs[i] = MustProject(s, op)
	}
	e, err := JoinAll(legs...)
	if err != nil {
		t.Fatal(err)
	}
	return e
}

// TestParallelEvalMatchesSequential runs the same project–join query
// through the sequential engine and the parallel engine at parallelism
// 1, 2 and 8, requiring set-equal results and byte-identical sorted
// renderings.
func TestParallelEvalMatchesSequential(t *testing.T) {
	r := randomWideRel(t, 42, []string{"A", "B", "C", "D"}, 500, 12)
	db := relation.Single("T", r)
	op := MustOperand("T", r.Scheme())
	e := legsExpr(t, op, [][]string{{"A", "B"}, {"B", "C"}, {"C", "D"}})

	seq := Evaluator{}
	want, err := seq.Eval(e, db)
	if err != nil {
		t.Fatal(err)
	}
	for _, par := range []int{1, 2, 8} {
		ev := &Evaluator{Parallelism: par, Cache: true}
		got, err := ev.Eval(e, db)
		if err != nil {
			t.Fatalf("parallelism %d: %v", par, err)
		}
		if !got.Equal(want) {
			t.Fatalf("parallelism %d: result differs (%d vs %d tuples)", par, got.Len(), want.Len())
		}
		if relation.RenderSorted(got) != relation.RenderSorted(want) {
			t.Fatalf("parallelism %d: sorted rendering differs", par)
		}
	}
}

// TestParallelEvalStats checks that a collector shared across the
// parallel workers survives concurrent observation and counts the same
// number of joins as sequential evaluation.
func TestParallelEvalStats(t *testing.T) {
	r := randomWideRel(t, 7, []string{"A", "B", "C"}, 400, 10)
	db := relation.Single("T", r)
	op := MustOperand("T", r.Scheme())
	e := legsExpr(t, op, [][]string{{"A", "B"}, {"B", "C"}, {"A", "C"}})

	seqCol := &obs.Collector{}
	if _, err := (&Evaluator{Collector: seqCol}).Eval(e, db); err != nil {
		t.Fatal(err)
	}
	parCol := &obs.Collector{}
	ev := Evaluator{Parallelism: 8, Collector: parCol}
	if _, err := ev.Eval(e, db); err != nil {
		t.Fatal(err)
	}
	seqJoins := seqCol.Metrics.Snapshot().Joins
	parJoins := parCol.Metrics.Snapshot().Joins
	if seqJoins != parJoins {
		t.Fatalf("join count differs: sequential %d, parallel %d", seqJoins, parJoins)
	}
}

// TestMemoComputeOnceUnderParallelism verifies the per-call memo's
// compute-once guarantee: with duplicated legs evaluated concurrently,
// each distinct subexpression must be evaluated exactly once.
func TestMemoComputeOnceUnderParallelism(t *testing.T) {
	r := randomWideRel(t, 9, []string{"A", "B", "C"}, 400, 10)
	db := relation.Single("T", r)
	op := MustOperand("T", r.Scheme())
	leg := MustProject(relation.MustScheme("A", "B"), op)
	other := MustProject(relation.MustScheme("B", "C"), op)
	// The same leg appears three times; flattening keeps the duplicates.
	e := MustJoin(leg, other, leg, leg)

	// Compute-once is observable through the shared cache: each distinct
	// composite subexpression misses exactly once even though the
	// duplicated leg is requested three times by concurrent workers.
	cache := NewSubexprCache()
	ev2 := Evaluator{Parallelism: 4, Cache: true, SharedCache: cache}
	if _, err := ev2.Eval(e, db); err != nil {
		t.Fatal(err)
	}
	_, misses, entries := cache.Stats()
	// Distinct composite subexpressions: the two projection legs and the
	// top-level join = 3.
	if misses != 3 || entries != 3 {
		t.Fatalf("cache misses=%d entries=%d, want 3 and 3", misses, entries)
	}
	// Re-evaluating against the unchanged database is all hits.
	if _, err := ev2.Eval(e, db); err != nil {
		t.Fatal(err)
	}
	hits, misses2, _ := cache.Stats()
	if misses2 != 3 {
		t.Fatalf("second eval recomputed: misses %d", misses2)
	}
	if hits == 0 {
		t.Fatal("second eval produced no cache hits")
	}
}

// TestSharedCacheInvalidation: mutating a referenced relation changes
// its fingerprint, so the cache must miss rather than serve stale data.
func TestSharedCacheInvalidation(t *testing.T) {
	r := mkrel(t, "A B", "1 x", "2 y")
	db := relation.Single("T", r)
	op := MustOperand("T", r.Scheme())
	e := MustJoin(
		MustProject(relation.MustScheme("A"), op),
		MustProject(relation.MustScheme("B"), op),
	)
	cache := NewSubexprCache()
	ev := Evaluator{Cache: true, SharedCache: cache}
	first, err := ev.Eval(e, db)
	if err != nil {
		t.Fatal(err)
	}
	if first.Len() != 4 {
		t.Fatalf("first eval: %d tuples, want 4", first.Len())
	}
	// Mutate T: the cached legs are now stale.
	r.MustAdd(relation.TupleOf("3", "z"))
	second, err := ev.Eval(e, db)
	if err != nil {
		t.Fatal(err)
	}
	if second.Len() != 9 {
		t.Fatalf("after mutation: %d tuples, want 9 (stale cache?)", second.Len())
	}
}

// TestParallelEvalBudget: the intermediate-size budget must abort
// parallel evaluation just as it does sequential.
func TestParallelEvalBudget(t *testing.T) {
	r := randomWideRel(t, 11, []string{"A", "B", "C"}, 500, 8)
	db := relation.Single("T", r)
	op := MustOperand("T", r.Scheme())
	e := legsExpr(t, op, [][]string{{"A", "B"}, {"B", "C"}})
	ev := Evaluator{Parallelism: 8, Limits: governor.Limits{MaxIntermediateRows: 10}}
	if _, err := ev.Eval(e, db); err == nil {
		t.Fatal("budget 10 not enforced under parallel evaluation")
	}
}
