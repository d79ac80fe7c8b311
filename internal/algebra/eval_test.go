package algebra

import (
	"errors"
	"strings"
	"testing"

	"relquery/internal/governor"
	"relquery/internal/join"
	"relquery/internal/obs"
	"relquery/internal/relation"
)

func mkrel(t *testing.T, scheme string, rows ...string) *relation.Relation {
	t.Helper()
	s, err := relation.SchemeOf(scheme)
	if err != nil {
		t.Fatal(err)
	}
	r := relation.New(s)
	for _, row := range rows {
		if _, err := r.Add(relation.TupleOf(strings.Fields(row)...)); err != nil {
			t.Fatal(err)
		}
	}
	return r
}

func TestEvalOperand(t *testing.T) {
	r := mkrel(t, "A B", "1 2")
	db := relation.Single("T", r)
	e := MustOperand("T", r.Scheme())
	got, err := Eval(e, db)
	if err != nil {
		t.Fatal(err)
	}
	if !got.Equal(r) {
		t.Errorf("Eval(T) = %v", got.Sorted())
	}
	// Missing operand.
	if _, err := Eval(MustOperand("U", r.Scheme()), db); err == nil {
		t.Error("missing operand evaluated")
	}
	// Scheme mismatch.
	bad := MustOperand("T", relation.MustScheme("A", "Z"))
	if _, err := Eval(bad, db); err == nil {
		t.Error("mismatched operand scheme evaluated")
	}
}

func TestEvalProjectJoin(t *testing.T) {
	r := mkrel(t, "A B C",
		"1 x p",
		"2 x q",
		"2 y q",
	)
	db := relation.Single("T", r)
	op := MustOperand("T", r.Scheme())
	// pi[A B](T) * pi[B C](T)
	e := MustJoin(
		MustProject(relation.MustScheme("A", "B"), op),
		MustProject(relation.MustScheme("B", "C"), op),
	)
	got, err := Eval(e, db)
	if err != nil {
		t.Fatal(err)
	}
	want := mkrel(t, "A B C",
		"1 x p", "1 x q",
		"2 x p", "2 x q",
		"2 y q",
	)
	if !got.Equal(want) {
		t.Errorf("Eval = %v, want %v", got.Sorted(), want.Sorted())
	}
	// The expression is "lossy at recombination": the original relation is
	// always a subset of the project-join of its projections.
	sub, err := r.SubsetOf(got)
	if err != nil || !sub {
		t.Errorf("R ⊆ π(R)*π(R) violated: %v %v", sub, err)
	}
}

func TestEvalAllAlgorithmsAndOrders(t *testing.T) {
	r := mkrel(t, "A B C", "1 x p", "2 x q", "2 y q", "3 z r")
	db := relation.Single("T", r)
	op := MustOperand("T", r.Scheme())
	e := MustJoin(
		MustProject(relation.MustScheme("A", "B"), op),
		MustProject(relation.MustScheme("B", "C"), op),
		MustProject(relation.MustScheme("A", "C"), op),
	)
	ref, err := Eval(e, db)
	if err != nil {
		t.Fatal(err)
	}
	for _, algName := range join.Names() {
		alg, err := join.ByName(algName)
		if err != nil {
			t.Fatal(err)
		}
		for _, order := range []join.Order{join.Sequential, join.Greedy} {
			ev := Evaluator{Algorithm: alg, Order: order}
			got, err := ev.Eval(e, db)
			if err != nil {
				t.Fatalf("%s/%v: %v", algName, order, err)
			}
			if !got.Equal(ref) {
				t.Errorf("%s/%v disagrees with default", algName, order)
			}
		}
	}
}

func TestEvalStats(t *testing.T) {
	r := mkrel(t, "A B C", "1 x p", "2 x q")
	db := relation.Single("T", r)
	op := MustOperand("T", r.Scheme())
	e := MustProject(relation.MustScheme("A"),
		MustJoin(
			MustProject(relation.MustScheme("A", "B"), op),
			MustProject(relation.MustScheme("B", "C"), op),
		))
	col := &obs.Collector{}
	ev := Evaluator{Collector: col}
	got, err := ev.Eval(e, db)
	if err != nil {
		t.Fatal(err)
	}
	if got.Len() != 2 {
		t.Errorf("result = %v", got.Sorted())
	}
	snap := col.Metrics.Snapshot()
	if snap.Joins != 1 {
		t.Errorf("Joins = %d", snap.Joins)
	}
	// Join result has 4 tuples (both A's match both C's via B=x).
	if snap.MaxIntermediate != 4 {
		t.Errorf("MaxIntermediate = %d, want 4", snap.MaxIntermediate)
	}
}

func TestEvalBudget(t *testing.T) {
	// Cross product of two 4-tuple relations = 16 tuples > budget 10.
	db := relation.NewDatabase()
	db.Put("L", mkrel(t, "A", "1", "2", "3", "4"))
	db.Put("R", mkrel(t, "B", "1", "2", "3", "4"))
	e := MustJoin(
		MustOperand("L", relation.MustScheme("A")),
		MustOperand("R", relation.MustScheme("B")),
	)
	ev := Evaluator{Limits: governor.Limits{MaxIntermediateRows: 10}}
	_, err := ev.Eval(e, db)
	if !errors.Is(err, governor.ErrRowBudget) {
		t.Errorf("err = %v, want ErrRowBudget", err)
	}
	ev = Evaluator{Limits: governor.Limits{MaxIntermediateRows: 16}}
	if _, err := ev.Eval(e, db); err != nil {
		t.Errorf("budget 16 failed: %v", err)
	}
}

func TestEvalBudgetOnProjection(t *testing.T) {
	db := relation.Single("T", mkrel(t, "A B", "1 1", "2 2", "3 3"))
	e := MustProject(relation.MustScheme("A"), MustOperand("T", relation.MustScheme("A", "B")))
	ev := Evaluator{Limits: governor.Limits{MaxIntermediateRows: 2}}
	if _, err := ev.Eval(e, db); !errors.Is(err, governor.ErrRowBudget) {
		t.Errorf("err = %v, want ErrRowBudget", err)
	}
}

func TestEvalSingle(t *testing.T) {
	r := mkrel(t, "A B", "1 2")
	e := MustProject(relation.MustScheme("B"), MustOperand("R", r.Scheme()))
	got, err := EvalSingle(e, "R", r)
	if err != nil {
		t.Fatal(err)
	}
	if !got.Equal(mkrel(t, "B", "2")) {
		t.Errorf("EvalSingle = %v", got.Sorted())
	}
}

func TestEvalMultiRelationDatabase(t *testing.T) {
	db := relation.NewDatabase()
	db.Put("R", mkrel(t, "A B", "1 x", "2 y"))
	db.Put("S", mkrel(t, "B C", "x p", "y q"))
	e := MustJoin(
		MustOperand("R", relation.MustScheme("A", "B")),
		MustOperand("S", relation.MustScheme("B", "C")),
	)
	got, err := Eval(e, db)
	if err != nil {
		t.Fatal(err)
	}
	if !got.Equal(mkrel(t, "A B C", "1 x p", "2 y q")) {
		t.Errorf("Eval = %v", got.Sorted())
	}
}

func TestEvalAutoYannakakisRemovesDangling(t *testing.T) {
	// Hub workload: the binary plan's first join materializes all pairs;
	// the acyclic route's full reducer lets the empty-matching third
	// relation empty everything before any join runs.
	db := relation.NewDatabase()
	l := mkrel(t, "A B")
	r := mkrel(t, "B C")
	for i := 0; i < 20; i++ {
		l.MustAdd(relation.TupleOf(string(rune('a'+i)), "hub"))
		r.MustAdd(relation.TupleOf("hub", string(rune('A'+i))))
	}
	db.Put("L", l)
	db.Put("R", r)
	db.Put("S", mkrel(t, "C D", "nomatch z"))
	e := MustJoin(
		MustOperand("L", relation.MustScheme("A", "B")),
		MustOperand("R", relation.MustScheme("B", "C")),
		MustOperand("S", relation.MustScheme("C", "D")),
	)
	plain, reduced := &obs.Collector{}, &obs.Collector{}
	evPlain := Evaluator{Order: join.Sequential, Collector: plain}
	got1, err := evPlain.Eval(e, db)
	if err != nil {
		t.Fatal(err)
	}
	evReduced := Evaluator{Order: join.Sequential, Collector: reduced, AutoYannakakis: true}
	got2, err := evReduced.Eval(e, db)
	if err != nil {
		t.Fatal(err)
	}
	if !got1.Equal(got2) {
		t.Fatal("full reduction changed the result")
	}
	if got1.Len() != 0 {
		t.Fatalf("result = %d tuples, want 0", got1.Len())
	}
	if maxI := plain.Metrics.Snapshot().MaxIntermediate; maxI < 400 {
		t.Errorf("plain max intermediate = %d, expected the 20x20 blowup", maxI)
	}
	if maxI := reduced.Metrics.Snapshot().MaxIntermediate; maxI != 0 {
		t.Errorf("reduced max intermediate = %d, want 0", maxI)
	}
}

func TestEvalCacheSharesSubexpressions(t *testing.T) {
	r := mkrel(t, "A B C", "1 x p", "2 x q", "2 y q")
	db := relation.Single("T", r)
	op := MustOperand("T", r.Scheme())
	inner := MustJoin(
		MustProject(relation.MustScheme("A", "B"), op),
		MustProject(relation.MustScheme("B", "C"), op),
	)
	// Two projections of the SAME join: with caching the join runs once.
	e := MustJoin(
		MustProject(relation.MustScheme("A"), inner),
		MustProject(relation.MustScheme("C"), inner),
	)
	plain, cached := &obs.Collector{}, &obs.Collector{}
	evPlain := Evaluator{Collector: plain}
	want, err := evPlain.Eval(e, db)
	if err != nil {
		t.Fatal(err)
	}
	evCached := Evaluator{Collector: cached, Cache: true}
	got, err := evCached.Eval(e, db)
	if err != nil {
		t.Fatal(err)
	}
	if !got.Equal(want) {
		t.Fatal("cache changed the result")
	}
	if joins := plain.Metrics.Snapshot().Joins; joins != 3 { // inner twice + outer
		t.Errorf("plain Joins = %d, want 3", joins)
	}
	if joins := cached.Metrics.Snapshot().Joins; joins != 2 { // inner once + outer
		t.Errorf("cached Joins = %d, want 2", joins)
	}
}
