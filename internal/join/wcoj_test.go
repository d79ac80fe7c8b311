package join

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"relquery/internal/obs"
	"relquery/internal/relation"
)

// multiHash is the binary-plan reference the generic join must agree
// with on every input.
func multiHash(t *testing.T, inputs []*relation.Relation) *relation.Relation {
	t.Helper()
	out, err := Multi(Exec{}, inputs, Hash{}, Greedy)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

func TestGenericMatchesMultiOnFixedCases(t *testing.T) {
	cases := map[string][]*relation.Relation{
		"triangle": {
			rel(t, "A B", "1 1", "1 2", "2 1", "3 3"),
			rel(t, "B C", "1 1", "2 1", "1 2", "3 3"),
			rel(t, "A C", "1 1", "1 2", "2 2", "3 3"),
		},
		"chain": {
			rel(t, "A B", "1 x", "2 x", "2 y"),
			rel(t, "B C", "x p", "y q"),
			rel(t, "C D", "p 7", "q 8", "q 9"),
		},
		"binary": {
			rel(t, "A B", "1 x", "2 x", "2 y"),
			rel(t, "B C", "x p", "y q", "z r"),
		},
		"cross": {
			rel(t, "A", "1", "2"),
			rel(t, "B", "x", "y", "z"),
		},
		"duplicate schemes": {
			rel(t, "A B", "1 x", "2 y", "3 z"),
			rel(t, "A B", "1 x", "2 y"),
			rel(t, "B A", "x 1"),
		},
		"shared and cross mixed": {
			rel(t, "A B", "1 x", "2 y"),
			rel(t, "B C", "x p", "y q"),
			rel(t, "D", "7", "8"),
		},
		"empty scheme passthrough": {
			rel(t, "A", "1", "2"),
			rel(t, ""),
		},
	}
	// The nullary-scheme relation holding the empty tuple is the join's
	// neutral element.
	cases["empty scheme passthrough"][1].MustAdd(relation.Tuple{})

	for name, inputs := range cases {
		t.Run(name, func(t *testing.T) {
			want := multiHash(t, inputs)
			got, gs, err := Generic{}.JoinAll(Exec{}, NewPlan(inputs))
			if err != nil {
				t.Fatal(err)
			}
			if !got.Equal(want) {
				t.Fatalf("generic join = %v, want %v", got.Sorted(), want.Sorted())
			}
			if !got.Scheme().Equal(want.Scheme()) {
				t.Fatalf("scheme %v, want set-equal to %v", got.Scheme(), want.Scheme())
			}
			if got.Len() > 0 && (gs.Intersections == 0 || gs.Candidates == 0) {
				t.Errorf("non-empty join reported no search effort: %+v", gs)
			}
		})
	}
}

func TestGenericEdgeCases(t *testing.T) {
	if _, _, err := (Generic{}).JoinAll(Exec{}, NewPlan(nil)); err == nil {
		t.Error("JoinAll(nil) succeeded")
	}
	one := rel(t, "A", "1")
	got, _, err := Generic{}.JoinAll(Exec{}, NewPlan([]*relation.Relation{one}))
	if err != nil || !got.Equal(one) {
		t.Errorf("JoinAll(single) = %v, %v", got, err)
	}
	empty := rel(t, "B C")
	out, _, err := Generic{}.JoinAll(Exec{}, NewPlan([]*relation.Relation{one, empty, rel(t, "C D", "p 7")}))
	if err != nil {
		t.Fatal(err)
	}
	if out.Len() != 0 {
		t.Errorf("join with empty input has %d tuples", out.Len())
	}
	if !out.Scheme().Equal(relation.MustScheme("A", "B", "C", "D")) {
		t.Errorf("empty join scheme = %v", out.Scheme())
	}
}

// TestGenericBinaryAlgorithm exercises Generic through the plain binary
// Algorithm interface the rest of the engine uses.
func TestGenericBinaryAlgorithm(t *testing.T) {
	l := bigRel(11, relation.MustScheme("K", "A"), 300, 17)
	r := bigRel(12, relation.MustScheme("K", "B"), 400, 17)
	want, err := Hash{}.Join(Exec{}, l, r)
	if err != nil {
		t.Fatal(err)
	}
	got, err := Generic{}.Join(Exec{}, l, r)
	if err != nil {
		t.Fatal(err)
	}
	if !got.Equal(want) {
		t.Fatalf("generic binary join differs from hash: %d vs %d tuples", got.Len(), want.Len())
	}
}

// TestQuickGenericMatchesMulti cross-checks the generic join against the
// greedy binary plan on random 3-ary joins.
func TestQuickGenericMatchesMulti(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	randRel := func(spec string, rows, vals int) *relation.Relation {
		s := relation.MustScheme()
		var err error
		if s, err = relation.SchemeOf(spec); err != nil {
			t.Fatal(err)
		}
		r := relation.New(s)
		for i := 0; i < rows; i++ {
			row := make([]string, s.Len())
			for j := range row {
				row[j] = fmt.Sprintf("v%d", rng.Intn(vals))
			}
			r.MustAdd(relation.TupleOf(row...))
		}
		return r
	}
	for trial := 0; trial < 50; trial++ {
		inputs := []*relation.Relation{
			randRel("A B", 1+rng.Intn(20), 4),
			randRel("B C", 1+rng.Intn(20), 4),
			randRel("C A", 1+rng.Intn(20), 4),
		}
		want := multiHash(t, inputs)
		got, _, err := Generic{}.JoinAll(Exec{}, NewPlan(inputs))
		if err != nil {
			t.Fatal(err)
		}
		if !got.Equal(want) {
			t.Fatalf("trial %d: generic join differs (%d vs %d tuples)", trial, got.Len(), want.Len())
		}
	}
}

// TestGenericNeverExceedsAGM is the worst-case-optimality contract at the
// unit level: the generic join materializes only its output, which the
// AGM bound dominates.
func TestGenericNeverExceedsAGM(t *testing.T) {
	inputs := []*relation.Relation{
		bigRel(21, relation.MustScheme("A", "B"), 200, 13),
		bigRel(22, relation.MustScheme("B", "C"), 200, 13),
		bigRel(23, relation.MustScheme("A", "C"), 200, 13),
	}
	out, _, err := Generic{}.JoinAll(Exec{}, NewPlan(inputs))
	if err != nil {
		t.Fatal(err)
	}
	if bound := AGMBoundOf(inputs); float64(out.Len()) > bound+1e-6 {
		t.Errorf("output %d exceeds AGM bound %g", out.Len(), bound)
	}
}

func TestGenericMetrics(t *testing.T) {
	var m obs.Metrics
	inputs := []*relation.Relation{
		rel(t, "A B", "1 x", "2 y"),
		rel(t, "B C", "x p", "y q"),
		rel(t, "A C", "1 p", "2 q"),
	}
	out, _, err := Generic{}.JoinAll(Exec{Metrics: &m}, NewPlan(inputs))
	if err != nil {
		t.Fatal(err)
	}
	snap := m.Snapshot()
	if snap.WCOJJoins != 1 || snap.WCOJCandidates == 0 || snap.WCOJIntersections == 0 {
		t.Errorf("wcoj counters not recorded: %+v", snap)
	}
	if snap.Joins != 1 || int(snap.MaxIntermediate) != out.Len() {
		t.Errorf("join counters: joins=%d max_intermediate=%d, output=%d",
			snap.Joins, snap.MaxIntermediate, out.Len())
	}
}

// TestFractionalCover checks the LP's witness: the returned weights form
// a feasible fractional edge cover whose objective reproduces the bound.
func TestFractionalCover(t *testing.T) {
	cases := []struct {
		specs []string
		sizes []int
		bound float64
	}{
		{[]string{"A B", "B C"}, []int{3, 4}, 12},                    // chain: product
		{[]string{"A B", "B C", "A C"}, []int{4, 4, 4}, 8},           // triangle: n^{3/2}
		{[]string{"A", "A"}, []int{5, 7}, 5},                         // duplicate-ish: min side covers
		{[]string{"A B", "A B", "A B"}, []int{6, 3, 9}, 3},           // duplicate schemes: smallest
		{[]string{"A", "B"}, []int{2, 3}, 6},                         // cross product
		{[]string{"A B C"}, []int{11}, 11},                           // single relation
		{[]string{"A B", "B C", "C D", "D A"}, []int{2, 2, 2, 2}, 4}, // 4-cycle
	}
	for _, tc := range cases {
		x, bound := FractionalCover(schemes(t, tc.specs...), tc.sizes)
		if math.Abs(bound-tc.bound) > 1e-6*tc.bound {
			t.Errorf("%v %v: bound = %g, want %g", tc.specs, tc.sizes, bound, tc.bound)
			continue
		}
		if len(x) != len(tc.sizes) {
			t.Fatalf("%v: cover has %d weights for %d relations", tc.specs, len(x), len(tc.sizes))
		}
		scs := schemes(t, tc.specs...)
		// Feasibility: every attribute covered with total weight ≥ 1.
		attrs := relation.MustScheme()
		for _, sc := range scs {
			attrs = attrs.Union(sc)
		}
		for _, a := range attrs.Attrs() {
			total := 0.0
			for i, sc := range scs {
				if sc.Has(a) {
					total += x[i]
				}
			}
			if total < 1-1e-6 {
				t.Errorf("%v: attribute %s covered with weight %g < 1 by %v", tc.specs, a, total, x)
			}
		}
		// Objective: ∏ |R_i|^{x_i} equals the bound.
		obj := 0.0
		for i, s := range tc.sizes {
			obj += x[i] * math.Log2(float64(s))
		}
		if math.Abs(math.Exp2(obj)-bound) > 1e-6*bound {
			t.Errorf("%v: cover objective %g, bound %g", tc.specs, math.Exp2(obj), bound)
		}
	}
}

func TestFractionalCoverDegenerate(t *testing.T) {
	if x, b := FractionalCover(nil, nil); x != nil || b != 0 {
		t.Errorf("FractionalCover(nil, nil) = %v, %g", x, b)
	}
	if x, b := FractionalCover(schemes(t, "", ""), []int{1, 1}); b != 1 || len(x) != 2 || x[0] != 0 || x[1] != 0 {
		t.Errorf("all-empty schemes: cover %v bound %g, want zero cover and bound 1", x, b)
	}
}

// TestPredictedPeakGreedy sanity-checks the auto-selector's input: the
// prediction is finite, non-negative, and large exactly on a
// blow-up-shaped workload.
func TestPredictedPeakGreedy(t *testing.T) {
	if p := PredictedPeakGreedy(nil); p != 0 {
		t.Errorf("no inputs: predicted %g", p)
	}
	if p := PredictedPeakGreedy([]*relation.Relation{rel(t, "A B", "1 x")}); p != 0 {
		t.Errorf("single input: predicted %g", p)
	}
	// Key-joined chain: every intermediate stays near the input sizes.
	tame := []*relation.Relation{
		bigRel(31, relation.MustScheme("K", "A"), 300, 300),
		bigRel(32, relation.MustScheme("K", "B"), 300, 300),
	}
	tamePeak := PredictedPeakGreedy(tame)
	if math.IsInf(tamePeak, 0) || math.IsNaN(tamePeak) || tamePeak < 0 {
		t.Fatalf("tame peak = %g", tamePeak)
	}
	// Recombination blow-up: few shared values, wide cross sections.
	blow := []*relation.Relation{
		bigRel(33, relation.MustScheme("K", "A"), 300, 2),
		bigRel(34, relation.MustScheme("K", "B"), 300, 2),
	}
	if blowPeak := PredictedPeakGreedy(blow); blowPeak <= tamePeak {
		t.Errorf("blow-up workload predicted %g, tame %g", blowPeak, tamePeak)
	}
}

// TestWorstCasePeakGreedy checks the data-independent side of the auto
// selector: the AGM bound of the greedy plan's intermediate accumulators.
func TestWorstCasePeakGreedy(t *testing.T) {
	if p := WorstCasePeakGreedy([]*relation.Relation{rel(t, "A B", "1 x")}); p != 0 {
		t.Errorf("single input: worst-case peak %g", p)
	}
	// Binary joins have no intermediate accumulator: the only merge is the
	// final one, so the worst case is 0 and auto selection never fires.
	two := []*relation.Relation{
		bigRel(41, relation.MustScheme("K", "A"), 300, 20),
		bigRel(42, relation.MustScheme("K", "B"), 300, 20),
	}
	if p := WorstCasePeakGreedy(two); p != 0 {
		t.Errorf("binary join: worst-case peak %g, want 0", p)
	}
	// Triangle: whichever pair greedy merges first has AGM bound N², above
	// the n-ary bound N^{3/2} — the canonical case where a binary plan can
	// be forced past what the generic join guarantees.
	tri := []*relation.Relation{
		bigRel(43, relation.MustScheme("A", "B"), 64, 8),
		bigRel(44, relation.MustScheme("B", "C"), 64, 8),
		bigRel(45, relation.MustScheme("A", "C"), 64, 8),
	}
	worst, bound := WorstCasePeakGreedy(tri), AGMBoundOf(tri)
	if worst <= bound {
		t.Errorf("triangle: worst-case peak %g not above n-ary bound %g", worst, bound)
	}
	// Key-joined chain: every accumulator's bound equals the final bound,
	// so the worst case never exceeds it and auto selection stays off.
	chain := []*relation.Relation{
		bigRel(46, relation.MustScheme("K", "A"), 300, 300),
		bigRel(47, relation.MustScheme("K", "B"), 300, 300),
		bigRel(48, relation.MustScheme("A", "C"), 300, 300),
	}
	if worst, bound := WorstCasePeakGreedy(chain), AGMBoundOf(chain); worst > bound {
		t.Errorf("chain: worst-case peak %g above n-ary bound %g", worst, bound)
	}
}
