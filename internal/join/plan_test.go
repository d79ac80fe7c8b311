package join

import (
	"context"
	"errors"
	"math"
	"reflect"
	"testing"

	"relquery/internal/governor"
	"relquery/internal/relation"
)

// triangle is R(A,B) ∗ S(B,C) ∗ U(A,C) with every relation all 3×3
// value pairs: a cyclic node whose greedy worst-case peak (81, any two
// relations) exceeds its AGM bound (27, the output).
func triangle(t *testing.T) []*relation.Relation {
	t.Helper()
	full := func(scheme string) *relation.Relation {
		var rows []string
		for _, a := range []string{"0", "1", "2"} {
			for _, b := range []string{"0", "1", "2"} {
				rows = append(rows, a+" "+b)
			}
		}
		return rel(t, scheme, rows...)
	}
	return []*relation.Relation{full("A B"), full("B C"), full("A C")}
}

// TestPlanMatchesStandaloneAnalyses checks every plan fact against the
// standalone function that computes it in isolation, and that nothing
// is analyzed before it is asked for.
func TestPlanMatchesStandaloneAnalyses(t *testing.T) {
	inputs := triangle(t)
	p := NewPlan(inputs)
	if err := p.Admit(nil, true); err != nil {
		t.Fatalf("Admit without a budget = %v", err)
	}
	if p.treeDone || p.lpDone || p.peakDone {
		t.Fatalf("unbudgeted Admit analyzed the node: %+v", p)
	}

	tree, ok := p.JoinTree()
	wantTree, wantOK := JoinTreeOf(SchemesOf(inputs))
	if ok != wantOK || !reflect.DeepEqual(tree, wantTree) {
		t.Errorf("JoinTree = %v, %v; JoinTreeOf = %v, %v", tree, ok, wantTree, wantOK)
	}
	if got, want := p.AGMBound(), AGMBoundOf(inputs); got != want {
		t.Errorf("AGMBound = %v, AGMBoundOf = %v", got, want)
	}
	wantCover, _ := FractionalCover(SchemesOf(inputs), []int{9, 9, 9})
	if !reflect.DeepEqual(p.cover, wantCover) {
		t.Errorf("cover = %v, FractionalCover = %v", p.cover, wantCover)
	}
	if got, want := p.Peak(), max(PredictedPeakGreedy(inputs), WorstCasePeakGreedy(inputs)); got != want {
		t.Errorf("Peak = %v, want %v", got, want)
	}
}

// TestPlanAdmit pins the admission rule on the triangle: a peak of 81
// over budget 50 is rejected unless the node is output-bounded, whose
// AGM bound (27) fits; the rejection carries the plan's numbers.
func TestPlanAdmit(t *testing.T) {
	gov := governor.New(context.Background(), governor.Limits{MaxIntermediateRows: 50})
	err := NewPlan(triangle(t)).Admit(gov, false)
	var ae *governor.AdmissionError
	if !errors.As(err, &ae) {
		t.Fatalf("binary-path Admit = %v, want *governor.AdmissionError", err)
	}
	near := func(got, want float64) bool { return math.Abs(got-want) < 1e-6 }
	if !near(ae.PredictedPeak, 81) || ae.Budget != 50 || !near(ae.AGMBound, 27) {
		t.Errorf("rejection numbers = peak %v, budget %d, AGM bound %v; want 81, 50, 27", ae.PredictedPeak, ae.Budget, ae.AGMBound)
	}
	gov = governor.New(context.Background(), governor.Limits{MaxIntermediateRows: 50})
	if err := NewPlan(triangle(t)).Admit(gov, true); err != nil {
		t.Errorf("output-bounded Admit = %v, want admitted", err)
	}
}
