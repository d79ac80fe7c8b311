package join

import (
	"context"
	"errors"
	"testing"

	"relquery/internal/governor"
	"relquery/internal/obs"
	"relquery/internal/relation"
)

func TestYannakakisChainWithDanglingTuples(t *testing.T) {
	// A chain with dangling tuples on both ends: the full reducer must
	// delete them before any join materializes a combination.
	r1 := rel(t, "A B", "1 x", "9 dead")
	r2 := rel(t, "B C", "x p", "dead2 q")
	r3 := rel(t, "C D", "p 7", "q 8")
	m := &obs.Metrics{}
	out, stats, err := Yannakakis{}.JoinAll(Exec{Metrics: m}, NewPlan([]*relation.Relation{r1, r2, r3}))
	if err != nil {
		t.Fatal(err)
	}
	if !out.Equal(rel(t, "A B C D", "1 x p 7")) {
		t.Errorf("join = %v", out.Sorted())
	}
	if !stats.Acyclic {
		t.Error("chain reported cyclic")
	}
	if stats.Semijoins != 4 { // 2·(edges−1)
		t.Errorf("semijoins = %d, want 4", stats.Semijoins)
	}
	if stats.InputRows != 6 || stats.ReducedRows != 3 {
		t.Errorf("rows = %d→%d, want 6→3", stats.InputRows, stats.ReducedRows)
	}
	snap := m.Snapshot()
	if snap.YannakakisJoins != 1 || snap.Semijoins != 4 {
		t.Errorf("metrics: yannakakis=%d semijoins=%d", snap.YannakakisJoins, snap.Semijoins)
	}
	// Inputs untouched.
	if r1.Len() != 2 || r2.Len() != 2 || r3.Len() != 2 {
		t.Error("JoinAll mutated its inputs")
	}
}

func TestYannakakisCyclicFallback(t *testing.T) {
	r1 := rel(t, "A B", "1 2", "2 3")
	r2 := rel(t, "B C", "2 3", "3 1")
	r3 := rel(t, "A C", "1 3", "2 1")
	want, err := Multi(Exec{}, []*relation.Relation{r1, r2, r3}, Hash{}, Greedy)
	if err != nil {
		t.Fatal(err)
	}
	out, stats, err := Yannakakis{}.JoinAll(Exec{}, NewPlan([]*relation.Relation{r1, r2, r3}))
	if err != nil {
		t.Fatal(err)
	}
	if stats.Acyclic {
		t.Error("triangle reported acyclic")
	}
	if !out.Equal(want) {
		t.Errorf("cyclic fallback = %v, want %v", out.Sorted(), want.Sorted())
	}
}

func TestYannakakisBinaryAndSingle(t *testing.T) {
	r1 := rel(t, "A B", "1 x", "2 y")
	r2 := rel(t, "B C", "x p")
	out, err := Yannakakis{}.Join(Exec{}, r1, r2)
	if err != nil {
		t.Fatal(err)
	}
	if !out.Equal(rel(t, "A B C", "1 x p")) {
		t.Errorf("binary join = %v", out.Sorted())
	}
	single, stats, err := Yannakakis{}.JoinAll(Exec{}, NewPlan([]*relation.Relation{r1}))
	if err != nil || single != r1 {
		t.Errorf("single input: %v, %v", single, err)
	}
	if !stats.Acyclic || stats.InputRows != 2 || stats.ReducedRows != 2 {
		t.Errorf("single-input stats = %+v", stats)
	}
	if _, _, err := (Yannakakis{}).JoinAll(Exec{}, NewPlan(nil)); err == nil {
		t.Error("zero inputs accepted")
	}
}

func TestYannakakisDisconnectedComponents(t *testing.T) {
	// Two components: a cartesian product of a reduced chain and a lone
	// relation. GYO links components through empty-intersection
	// containment, and the tree joins produce the cross product.
	r1 := rel(t, "A B", "1 x", "2 dead")
	r2 := rel(t, "B C", "x p")
	r3 := rel(t, "D", "d1", "d2")
	want, err := Multi(Exec{}, []*relation.Relation{r1, r2, r3}, Hash{}, Greedy)
	if err != nil {
		t.Fatal(err)
	}
	out, stats, err := Yannakakis{}.JoinAll(Exec{}, NewPlan([]*relation.Relation{r1, r2, r3}))
	if err != nil {
		t.Fatal(err)
	}
	if !stats.Acyclic {
		t.Error("disconnected acyclic components reported cyclic")
	}
	if !out.Equal(want) {
		t.Errorf("disconnected join = %v, want %v", out.Sorted(), want.Sorted())
	}
	if out.Len() != 2 { // (1 x p) × {d1, d2}
		t.Errorf("cross product has %d tuples, want 2", out.Len())
	}
}

func TestYannakakisEmptyRelationEmptiesJoin(t *testing.T) {
	r1 := rel(t, "A B", "1 x")
	r2 := rel(t, "B C") // empty
	r3 := rel(t, "C D", "p 7")
	out, stats, err := Yannakakis{}.JoinAll(Exec{}, NewPlan([]*relation.Relation{r1, r2, r3}))
	if err != nil {
		t.Fatal(err)
	}
	if out.Len() != 0 {
		t.Errorf("join with empty input = %v", out.Sorted())
	}
	if stats.ReducedRows != 0 {
		t.Errorf("reduced rows = %d, want 0", stats.ReducedRows)
	}
}

func TestYannakakisObserveAborts(t *testing.T) {
	r1 := rel(t, "A B", "1 x", "2 y")
	r2 := rel(t, "B C", "x p", "y q")
	r3 := rel(t, "C D", "p 7", "q 8")
	// The first semijoin result already overdraws a one-byte memory
	// budget: Observe's charge must abort the reduction.
	x := Exec{Gov: governor.New(context.Background(), governor.Limits{MaxMemoryBytes: 1})}
	_, _, err := Yannakakis{}.JoinAll(x, NewPlan([]*relation.Relation{r1, r2, r3}))
	if !errors.Is(err, governor.ErrMemBudget) {
		t.Errorf("observe error not propagated: %v", err)
	}
}

func TestFullReduceRejectsCyclic(t *testing.T) {
	r1 := rel(t, "A B", "1 1")
	r2 := rel(t, "B C", "1 1")
	r3 := rel(t, "A C", "1 1")
	if _, _, err := FullReduce([]*relation.Relation{r1, r2, r3}); err == nil {
		t.Error("cyclic full reduction accepted")
	}
	out, n, err := FullReduce(nil)
	if err != nil || len(out) != 0 || n != 0 {
		t.Errorf("FullReduce(nil) = %v, %d, %v", out, n, err)
	}
}
