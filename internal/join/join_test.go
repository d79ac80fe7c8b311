package join

import (
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"relquery/internal/obs"
	"relquery/internal/relation"
)

func rel(t *testing.T, scheme string, rows ...string) *relation.Relation {
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

func allAlgorithms(t *testing.T) []Algorithm {
	t.Helper()
	var algs []Algorithm
	for _, n := range Names() {
		a, err := ByName(n)
		if err != nil {
			t.Fatal(err)
		}
		algs = append(algs, a)
	}
	return algs
}

func TestByName(t *testing.T) {
	for _, n := range Names() {
		a, err := ByName(n)
		if err != nil {
			t.Fatalf("ByName(%q): %v", n, err)
		}
		if a.Name() != n {
			t.Errorf("ByName(%q).Name() = %q", n, a.Name())
		}
	}
	if _, err := ByName("bogus"); err == nil {
		t.Error("ByName(bogus) succeeded")
	}
}

func TestAlgorithmsAgreeOnFixedCases(t *testing.T) {
	cases := []struct {
		name string
		l, r *relation.Relation
		want *relation.Relation
	}{
		{
			"shared attribute",
			rel(t, "A B", "1 x", "2 y"),
			rel(t, "B C", "x p", "x q", "z r"),
			rel(t, "A B C", "1 x p", "1 x q"),
		},
		{
			"disjoint (cross product)",
			rel(t, "A", "1", "2"),
			rel(t, "B", "u", "v"),
			rel(t, "A B", "1 u", "1 v", "2 u", "2 v"),
		},
		{
			"identical schemes (intersection)",
			rel(t, "A B", "1 1", "2 2"),
			rel(t, "A B", "2 2", "3 3"),
			rel(t, "A B", "2 2"),
		},
		{
			"empty side",
			rel(t, "A B", "1 1"),
			rel(t, "B C"),
			rel(t, "A B C"),
		},
		{
			"containment",
			rel(t, "A B C", "1 x p", "2 y q"),
			rel(t, "B", "x"),
			rel(t, "A B C", "1 x p"),
		},
	}
	for _, alg := range allAlgorithms(t) {
		for _, tc := range cases {
			got, err := alg.Join(Exec{}, tc.l, tc.r)
			if err != nil {
				t.Fatalf("%s/%s: %v", alg.Name(), tc.name, err)
			}
			if !got.Equal(tc.want) {
				t.Errorf("%s/%s: got %v want %v", alg.Name(), tc.name, got.Sorted(), tc.want.Sorted())
			}
		}
	}
}

func randomRelation(rng *rand.Rand, scheme relation.Scheme, maxRows int) *relation.Relation {
	r := relation.New(scheme)
	alphabet := []string{"0", "1", "e"}
	for i, n := 0, rng.Intn(maxRows+1); i < n; i++ {
		t := make(relation.Tuple, scheme.Len())
		for j := range t {
			t[j] = relation.Value(alphabet[rng.Intn(len(alphabet))])
		}
		r.MustAdd(t)
	}
	return r
}

func TestQuickAlgorithmsAgreeWithNestedLoop(t *testing.T) {
	schemes := []struct{ l, r relation.Scheme }{
		{relation.MustScheme("A", "B"), relation.MustScheme("B", "C")},
		{relation.MustScheme("A", "B", "C"), relation.MustScheme("B", "C", "D")},
		{relation.MustScheme("A"), relation.MustScheme("B")},
		{relation.MustScheme("A", "B"), relation.MustScheme("A", "B")},
	}
	f := func(seed int64, pick uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		sc := schemes[int(pick)%len(schemes)]
		l := randomRelation(rng, sc.l, 12)
		r := randomRelation(rng, sc.r, 12)
		ref, err := NestedLoop{}.Join(Exec{}, l, r)
		if err != nil {
			return false
		}
		for _, alg := range []Algorithm{Hash{}, SortMerge{}} {
			got, err := alg.Join(Exec{}, l, r)
			if err != nil || !got.Equal(ref) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestMultiSequentialMatchesGreedy(t *testing.T) {
	chain := []*relation.Relation{
		rel(t, "A B", "1 x", "2 y"),
		rel(t, "B C", "x p", "y q"),
		rel(t, "C D", "p 7", "q 8", "q 9"),
	}
	seq, err := Multi(Exec{}, chain, Hash{}, Sequential)
	if err != nil {
		t.Fatal(err)
	}
	greedy, err := Multi(Exec{}, chain, Hash{}, Greedy)
	if err != nil {
		t.Fatal(err)
	}
	if !seq.Equal(greedy) {
		t.Errorf("orders disagree:\nseq %v\ngreedy %v", seq.Sorted(), greedy.Sorted())
	}
	want := rel(t, "A B C D", "1 x p 7", "2 y q 8", "2 y q 9")
	if !seq.Equal(want) {
		t.Errorf("Multi = %v, want %v", seq.Sorted(), want.Sorted())
	}
}

func TestMultiEdgeCases(t *testing.T) {
	if _, err := Multi(Exec{}, nil, Hash{}, Greedy); err == nil {
		t.Error("Multi(nil) succeeded")
	}
	one := rel(t, "A", "1")
	got, err := Multi(Exec{}, []*relation.Relation{one}, Hash{}, Greedy)
	if err != nil || !got.Equal(one) {
		t.Errorf("Multi(single) = %v, %v", got, err)
	}
}

func TestMultiStats(t *testing.T) {
	// Star join: center C(A,B,X) with two big satellites; greedy should
	// avoid the cross product that sequential order performs.
	center := rel(t, "A B", "1 1", "2 2")
	satA := rel(t, "A", "1")
	satB := rel(t, "B", "2")
	var seqM, greedyM obs.Metrics
	// Sequential order satA * satB first: cross product of satellites.
	inputs := []*relation.Relation{satA, satB, center}
	if _, err := Multi(Exec{Metrics: &seqM}, inputs, Hash{}, Sequential); err != nil {
		t.Fatal(err)
	}
	if _, err := Multi(Exec{Metrics: &greedyM}, inputs, Hash{}, Greedy); err != nil {
		t.Fatal(err)
	}
	seq, greedy := seqM.Snapshot(), greedyM.Snapshot()
	if seq.Joins != 2 || greedy.Joins != 2 {
		t.Errorf("joins: seq=%d greedy=%d", seq.Joins, greedy.Joins)
	}
	if greedy.MaxIntermediate > seq.MaxIntermediate {
		t.Errorf("greedy max %d > sequential max %d", greedy.MaxIntermediate, seq.MaxIntermediate)
	}
	if !strings.Contains(seq.String(), "max_intermediate=") {
		t.Errorf("MetricsSnapshot.String = %q", seq.String())
	}
}

func TestGreedyPrefersSharedAttributes(t *testing.T) {
	// Three relations where the two smallest share no attributes; greedy
	// must still prefer a shared-attribute pair over the cross product.
	a := rel(t, "A X", "1 u") // size 1
	b := rel(t, "B Y", "2 v") // size 1, disjoint from a
	c := rel(t, "A B", "1 2", "1 3", "9 9")
	var m obs.Metrics
	got, err := Multi(Exec{Metrics: &m}, []*relation.Relation{a, b, c}, Hash{}, Greedy)
	if err != nil {
		t.Fatal(err)
	}
	want := rel(t, "A X B Y", "1 u 2 v")
	if !got.Equal(want) {
		t.Errorf("got %v want %v", got.Sorted(), want.Sorted())
	}
	// The first join must have been a*c or b*c (shared), both of size <= 2,
	// so no intermediate exceeds 2.
	if snap := m.Snapshot(); snap.MaxIntermediate > 2 {
		t.Errorf("greedy performed a cross product first: %v", snap)
	}
}

func TestOrderByName(t *testing.T) {
	for _, o := range []Order{Sequential, Greedy} {
		got, err := OrderByName(o.String())
		if err != nil || got != o {
			t.Errorf("OrderByName(%q) = %v, %v", o.String(), got, err)
		}
	}
	if _, err := OrderByName("bogus"); err == nil {
		t.Error("OrderByName(bogus) succeeded")
	}
}
