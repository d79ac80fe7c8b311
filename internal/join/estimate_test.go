package join

import (
	"math"
	"testing"

	"relquery/internal/obs"
	"relquery/internal/relation"
)

func TestAnalyze(t *testing.T) {
	r := rel(t, "A B", "1 x", "2 x", "2 y")
	s := Analyze(r)
	if s.Rows != 3 {
		t.Errorf("Rows = %d", s.Rows)
	}
	if s.Distinct["A"] != 2 || s.Distinct["B"] != 2 {
		t.Errorf("Distinct = %v", s.Distinct)
	}
	empty := Analyze(relation.New(relation.MustScheme("A")))
	if empty.Rows != 0 || empty.Distinct["A"] != 0 {
		t.Errorf("empty stats = %+v", empty)
	}
}

func TestEstimateJoinSizeExactOnKeys(t *testing.T) {
	// Key-foreign-key join: every left tuple matches exactly one right
	// tuple; the estimate is exact under uniformity.
	l := rel(t, "A K", "1 k1", "2 k2", "3 k1")
	r := rel(t, "K B", "k1 x", "k2 y")
	est := EstimateJoinSize(l.Scheme(), Analyze(l), r.Scheme(), Analyze(r))
	got, err := (Hash{}).Join(Exec{}, l, r)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(est-float64(got.Len())) > 0.01 {
		t.Errorf("estimate %.2f, actual %d", est, got.Len())
	}
	// Cross product estimate: exact.
	dl := rel(t, "A", "1", "2")
	dr := rel(t, "B", "x", "y", "z")
	est = EstimateJoinSize(dl.Scheme(), Analyze(dl), dr.Scheme(), Analyze(dr))
	if est != 6 {
		t.Errorf("cross estimate = %.2f, want 6", est)
	}
}

func TestPredictedPeakGreedyAvoidsSkewTrap(t *testing.T) {
	// The hub workload: R1 and R2 meet on a single hub value (their join
	// is N×N); R3 keeps only one C value, so R2 ∗ R3 has one row and the
	// result has N. The size-based greedy planner sees identical size
	// products and walks into the hub; the estimate-driven simulation
	// sees V(B) = 1 vs V(C) = N, starts with the selective pair, and
	// predicts a peak far below the hub blow-up the actual plan builds.
	n := 40
	r1 := relation.New(relation.MustScheme("A", "B"))
	r2 := relation.New(relation.MustScheme("B", "C"))
	r3 := relation.New(relation.MustScheme("C", "D"))
	cval := func(j int) string {
		return string(rune('c')) + string(rune('0'+j%10)) + string(rune('A'+j/10))
	}
	for j := 0; j < n; j++ {
		r1.MustAdd(relation.TupleOf(string(rune('a'))+string(rune('0'+j%10))+string(rune('A'+j/10)), "hub"))
		r2.MustAdd(relation.TupleOf("hub", cval(j)))
	}
	r3.MustAdd(relation.TupleOf(cval(0), "z"))
	inputs := []*relation.Relation{r1, r2, r3}
	var m obs.Metrics
	if _, err := Multi(Exec{Metrics: &m}, inputs, Hash{}, Greedy); err != nil {
		t.Fatal(err)
	}
	greedyMax := m.Snapshot().MaxIntermediate
	est := PredictedPeakGreedy(inputs)
	if est > float64(greedyMax) {
		t.Errorf("predicted peak %.0f above the greedy plan's %d", est, greedyMax)
	}
	if est >= float64(n*n) {
		t.Errorf("predicted peak %.0f includes the hub blowup", est)
	}
}
