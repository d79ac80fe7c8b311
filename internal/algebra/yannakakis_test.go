package algebra

import (
	"errors"
	"fmt"
	"testing"

	"relquery/internal/governor"
	"relquery/internal/join"
	"relquery/internal/obs"
	"relquery/internal/relation"
)

// spansWith collects every join span evaluated with the given algorithm.
func spansWith(sp *obs.Span, alg string) []*obs.Span {
	if sp == nil {
		return nil
	}
	var out []*obs.Span
	if sp.Op == obs.OpJoin && sp.Algorithm == alg {
		out = append(out, sp)
	}
	for _, c := range sp.Children {
		out = append(out, spansWith(c, alg)...)
	}
	return out
}

// danglingPath builds the acyclic blow-up family over schemes
// A B / B C / C D: every relation has n+1 tuples, so the greedy planner's
// size products all tie and its first-pair tie-break joins R1 ⋈ R2 —
// materializing n²+1 tuples of which the C D leg keeps only one chain —
// while the full reducer deletes the n dangling tuples on each side first
// and never materializes more than max(input, output) = n+1.
func danglingPath(t *testing.T, n int) (relation.Database, Expr) {
	t.Helper()
	r1 := relation.New(relation.MustScheme("A", "B"))
	r2 := relation.New(relation.MustScheme("B", "C"))
	r3 := relation.New(relation.MustScheme("C", "D"))
	for i := 0; i < n; i++ {
		r1.MustAdd(relation.TupleOf(fmt.Sprintf("a%d", i), "b0"))
		r2.MustAdd(relation.TupleOf("b0", fmt.Sprintf("c%d", i)))
		r3.MustAdd(relation.TupleOf("c*", fmt.Sprintf("d%d", i)))
	}
	r1.MustAdd(relation.TupleOf("a*", "b1"))
	r2.MustAdd(relation.TupleOf("b1", "c*"))
	r3.MustAdd(relation.TupleOf("c*", fmt.Sprintf("d%d", n)))
	db := relation.NewDatabase()
	db.Put("R1", r1)
	db.Put("R2", r2)
	db.Put("R3", r3)
	e, err := JoinAll(
		MustOperand("R1", r1.Scheme()),
		MustOperand("R2", r2.Scheme()),
		MustOperand("R3", r3.Scheme()),
	)
	if err != nil {
		t.Fatal(err)
	}
	return db, e
}

// TestAutoYannakakisSelectsAcyclic is the selector's core contract: on an
// acyclic node with dangling tuples, -join=auto runs Yannakakis, the span
// says so, and the peak materialization collapses from greedy's n²+1 to
// at most output + largest input.
func TestAutoYannakakisSelectsAcyclic(t *testing.T) {
	const n = 8
	db, e := danglingPath(t, n)

	refCol := &obs.Collector{}
	ref := Evaluator{Order: join.Greedy, Collector: refCol}
	want, err := ref.Eval(e, db)
	if err != nil {
		t.Fatal(err)
	}
	greedyPeak := int(refCol.Metrics.Snapshot().MaxIntermediate)
	if greedyPeak != n*n+1 {
		t.Fatalf("family lost its blow-up: greedy peak = %d, want %d", greedyPeak, n*n+1)
	}
	if want.Len() != n+1 {
		t.Fatalf("output = %d tuples, want %d", want.Len(), n+1)
	}

	col := &obs.Collector{}
	auto := Evaluator{Order: join.Greedy, AutoWCOJ: true, AutoYannakakis: true, Collector: col}
	got, err := auto.Eval(e, db)
	if err != nil {
		t.Fatal(err)
	}
	if !got.Equal(want) {
		t.Fatalf("auto result differs from greedy engine (%d vs %d tuples)", got.Len(), want.Len())
	}
	spans := spansWith(col.Trace().Root(), "yannakakis")
	if len(spans) != 1 {
		t.Fatalf("auto selected %d yannakakis spans, want 1", len(spans))
	}
	sp := spans[0]
	if sp.Structure != obs.StructureAcyclic {
		t.Errorf("structure = %q, want %q", sp.Structure, obs.StructureAcyclic)
	}
	if sp.Semijoins != 4 {
		t.Errorf("semijoins = %d, want 4", sp.Semijoins)
	}
	if sp.ReducedRows != 2+(n+1) { // one surviving tuple in R1 and R2, all of R3
		t.Errorf("reduced rows = %d, want %d", sp.ReducedRows, 2+n+1)
	}
	peak := sp.MaxIntermediate
	if sp.OutputRows > peak {
		peak = sp.OutputRows
	}
	if limit := want.Len() + (n + 1); peak > limit {
		t.Errorf("yannakakis peak %d exceeds output+largest input %d", peak, limit)
	}
	if peak >= greedyPeak {
		t.Errorf("yannakakis peak %d did not improve on greedy peak %d", peak, greedyPeak)
	}
}

// TestAutoCyclicRouting pins the selector's other two arms: a cyclic node
// whose predicted greedy peak exceeds the AGM bound goes to wcoj, and a
// cyclic node below the bound keeps the binary algorithm — both marked
// structure=cyclic.
func TestAutoCyclicRouting(t *testing.T) {
	t.Run("blowup to wcoj", func(t *testing.T) {
		// Triangle, 3 rows each: the first greedy accumulator's AGM bound
		// is 9, above the triangle bound 3^1.5 ≈ 5.2.
		db := relation.NewDatabase()
		db.Put("R", mkrel(t, "A B", "1 1", "2 2", "3 3"))
		db.Put("S", mkrel(t, "B C", "1 1", "2 2", "3 3"))
		db.Put("U", mkrel(t, "A C", "1 1", "2 2", "3 3"))
		e, err := JoinAll(
			MustOperand("R", relation.MustScheme("A", "B")),
			MustOperand("S", relation.MustScheme("B", "C")),
			MustOperand("U", relation.MustScheme("A", "C")),
		)
		if err != nil {
			t.Fatal(err)
		}
		col := &obs.Collector{}
		auto := Evaluator{Order: join.Greedy, AutoWCOJ: true, AutoYannakakis: true, Collector: col}
		got, err := auto.Eval(e, db)
		if err != nil {
			t.Fatal(err)
		}
		if got.Len() != 3 {
			t.Fatalf("triangle join = %d tuples, want 3", got.Len())
		}
		spans := spansWith(col.Trace().Root(), "wcoj")
		if len(spans) != 1 {
			t.Fatalf("cyclic blow-up node ran %d wcoj spans, want 1", len(spans))
		}
		if spans[0].Structure != obs.StructureCyclic {
			t.Errorf("structure = %q, want %q", spans[0].Structure, obs.StructureCyclic)
		}
	})
	t.Run("no blowup stays binary", func(t *testing.T) {
		// A 4-cycle's first greedy accumulator has the same AGM bound as
		// the whole node (N²), so the blow-up predicate does not fire.
		db := relation.NewDatabase()
		db.Put("R", mkrel(t, "A B", "1 1", "2 2"))
		db.Put("S", mkrel(t, "B C", "1 1", "2 2"))
		db.Put("U", mkrel(t, "C D", "1 1", "2 2"))
		db.Put("V", mkrel(t, "D A", "1 1", "2 2"))
		e, err := JoinAll(
			MustOperand("R", relation.MustScheme("A", "B")),
			MustOperand("S", relation.MustScheme("B", "C")),
			MustOperand("U", relation.MustScheme("C", "D")),
			MustOperand("V", relation.MustScheme("D", "A")),
		)
		if err != nil {
			t.Fatal(err)
		}
		col := &obs.Collector{}
		auto := Evaluator{Order: join.Greedy, AutoWCOJ: true, AutoYannakakis: true, Collector: col}
		if _, err := auto.Eval(e, db); err != nil {
			t.Fatal(err)
		}
		root := col.Trace().Root()
		if n := len(spansWith(root, "wcoj")) + len(spansWith(root, "yannakakis")); n != 0 {
			t.Fatalf("cyclic no-blow-up node left the binary path (%d special spans)", n)
		}
		spans := spansWith(root, "hash")
		if len(spans) != 1 || spans[0].Structure != obs.StructureCyclic {
			t.Errorf("binary span missing structure=cyclic: %+v", spans)
		}
	})
}

// TestForcedYannakakis covers -join=yannakakis: acyclic nodes run the
// full reducer, cyclic nodes fall back to the binary planner over the
// strategy's pairwise-reduced joins — same result either way.
func TestForcedYannakakis(t *testing.T) {
	db, e := danglingPath(t, 4)
	want, err := (&Evaluator{Order: join.Greedy}).Eval(e, db)
	if err != nil {
		t.Fatal(err)
	}
	col := &obs.Collector{}
	forced := Evaluator{Algorithm: join.Yannakakis{}, Order: join.Greedy, Collector: col}
	got, err := forced.Eval(e, db)
	if err != nil {
		t.Fatal(err)
	}
	if !got.Equal(want) {
		t.Fatal("forced yannakakis differs from greedy engine")
	}
	if len(spansWith(col.Trace().Root(), "yannakakis")) != 1 {
		t.Fatal("forced yannakakis did not produce a yannakakis span")
	}

	// Cyclic: forced strategy is still sound via pairwise fallback.
	tri := relation.NewDatabase()
	tri.Put("R", mkrel(t, "A B", "1 1", "1 2"))
	tri.Put("S", mkrel(t, "B C", "1 1", "2 1"))
	tri.Put("U", mkrel(t, "A C", "1 1"))
	te, err := JoinAll(
		MustOperand("R", relation.MustScheme("A", "B")),
		MustOperand("S", relation.MustScheme("B", "C")),
		MustOperand("U", relation.MustScheme("A", "C")),
	)
	if err != nil {
		t.Fatal(err)
	}
	twant, err := (&Evaluator{Order: join.Greedy}).Eval(te, tri)
	if err != nil {
		t.Fatal(err)
	}
	tcol := &obs.Collector{}
	tforced := Evaluator{Algorithm: join.Yannakakis{}, Order: join.Greedy, Collector: tcol}
	tgot, err := tforced.Eval(te, tri)
	if err != nil {
		t.Fatal(err)
	}
	if !tgot.Equal(twant) {
		t.Fatal("forced yannakakis on cyclic query differs from greedy engine")
	}
	spans := spansWith(tcol.Trace().Root(), "yannakakis")
	if len(spans) != 1 || spans[0].Structure != obs.StructureCyclic {
		t.Fatalf("cyclic forced span not marked: %+v", spans)
	}
}

// TestAutoSelectorEdgeCases routes the GYO edge shapes through
// -join=auto: single atoms, self-joins on one relation symbol, and
// disconnected hypergraphs with cartesian-product components.
func TestAutoSelectorEdgeCases(t *testing.T) {
	auto := func(col *obs.Collector) Evaluator {
		return Evaluator{Order: join.Greedy, AutoWCOJ: true, AutoYannakakis: true, Collector: col}
	}
	t.Run("single atom", func(t *testing.T) {
		r := mkrel(t, "A B", "1 x", "2 y")
		db := relation.Single("T", r)
		ev := auto(nil)
		got, err := ev.Eval(MustOperand("T", r.Scheme()), db)
		if err != nil {
			t.Fatal(err)
		}
		if !got.Equal(r) {
			t.Errorf("single atom = %v", got.Sorted())
		}
	})
	t.Run("self-join same symbol", func(t *testing.T) {
		r := mkrel(t, "A B", "1 x", "2 y")
		db := relation.Single("T", r)
		op := MustOperand("T", r.Scheme())
		e, err := JoinAll(op, op, op)
		if err != nil {
			t.Fatal(err)
		}
		col := &obs.Collector{}
		ev := auto(col)
		got, err := ev.Eval(e, db)
		if err != nil {
			t.Fatal(err)
		}
		if !got.Equal(r) { // T ∗ T ∗ T = T
			t.Errorf("self-join = %v", got.Sorted())
		}
		spans := spansWith(col.Trace().Root(), "yannakakis")
		if len(spans) != 1 || spans[0].Structure != obs.StructureAcyclic {
			t.Errorf("self-join not routed to yannakakis: %+v", spans)
		}
	})
	t.Run("cartesian components", func(t *testing.T) {
		db := relation.NewDatabase()
		db.Put("R", mkrel(t, "A B", "1 x", "2 dead"))
		db.Put("S", mkrel(t, "B C", "x p"))
		db.Put("U", mkrel(t, "D E", "d1 e", "d2 e"))
		e, err := JoinAll(
			MustOperand("R", relation.MustScheme("A", "B")),
			MustOperand("S", relation.MustScheme("B", "C")),
			MustOperand("U", relation.MustScheme("D", "E")),
		)
		if err != nil {
			t.Fatal(err)
		}
		want, err := (&Evaluator{Order: join.Greedy}).Eval(e, db)
		if err != nil {
			t.Fatal(err)
		}
		col := &obs.Collector{}
		ev := auto(col)
		got, err := ev.Eval(e, db)
		if err != nil {
			t.Fatal(err)
		}
		if !got.Equal(want) || got.Len() != 2 {
			t.Errorf("cartesian components = %v, want %v", got.Sorted(), want.Sorted())
		}
		spans := spansWith(col.Trace().Root(), "yannakakis")
		if len(spans) != 1 || spans[0].Structure != obs.StructureAcyclic {
			t.Errorf("disconnected query not routed to yannakakis: %+v", spans)
		}
	})
}

// TestYannakakisBudgetEnforced checks the evaluation budget reaches into
// the full reducer's materializations.
func TestYannakakisBudgetEnforced(t *testing.T) {
	db, e := danglingPath(t, 8)
	ev := Evaluator{Algorithm: join.Yannakakis{}, Order: join.Greedy, Limits: governor.Limits{MaxIntermediateRows: 2}}
	_, err := ev.Eval(e, db)
	if err == nil {
		t.Fatal("budget 2 not enforced under yannakakis")
	}
	if !errors.Is(err, governor.ErrRowBudget) {
		t.Fatalf("error is not ErrRowBudget: %v", err)
	}
}
