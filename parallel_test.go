package relquery_test

import (
	"fmt"
	"testing"

	"relquery/internal/algebra"
	"relquery/internal/cnf"
	"relquery/internal/join"
	"relquery/internal/reduction"
	"relquery/internal/relation"
)

// lemma1Families returns the gadget workloads the parallel engine must
// reproduce exactly: the paper's worked example plus structured families
// from cnf (the CI race job runs this file under -race).
func lemma1Families(t *testing.T) map[string]*cnf.Formula {
	t.Helper()
	// Family sizes are deliberately small: materializing φ_G(R_G) blows
	// up exponentially in m (that is the paper's theorem), so XorChain(2)
	// (m=8) and Pigeonhole(1) (m=10) are already thousands of
	// intermediate tuples — plenty to exercise partitioning while
	// keeping the race-instrumented run fast.
	families := map[string]*cnf.Formula{
		"paper": cnf.PaperExample(),
	}
	xor, err := cnf.XorChain(2, true)
	if err != nil {
		t.Fatal(err)
	}
	xor, _ = cnf.Compact(xor)
	families["xorchain"] = xor
	php, err := cnf.Pigeonhole(1)
	if err != nil {
		t.Fatal(err)
	}
	php, _ = cnf.Compact(php)
	families["pigeonhole"] = php
	return families
}

// TestLemma1ParallelEngineIdentical evaluates φ_G(R_G) with the
// sequential engine and the parallel engine at parallelism 1, 2 and 8 on
// each gadget family, requiring byte-identical sorted renderings and —
// per Lemma 1 — equality with R_G ∪ R̃_G.
func TestLemma1ParallelEngineIdentical(t *testing.T) {
	for name, g := range lemma1Families(t) {
		t.Run(name, func(t *testing.T) {
			c, err := reduction.New(g)
			if err != nil {
				t.Fatal(err)
			}
			phi, err := c.PhiG()
			if err != nil {
				t.Fatal(err)
			}
			db := c.Database()

			seq := algebra.Evaluator{Order: join.Greedy}
			want, err := seq.Eval(phi, db)
			if err != nil {
				t.Fatal(err)
			}
			expected, err := c.ExpectedPhiResult()
			if err != nil {
				t.Fatal(err)
			}
			if !want.Equal(expected) {
				t.Fatal("sequential engine violates Lemma 1: φ_G(R_G) ≠ R_G ∪ R̃_G")
			}
			wantRender := relation.RenderSorted(want)

			for _, par := range []int{1, 2, 8} {
				ev := algebra.Evaluator{Order: join.Greedy, Parallelism: par, Cache: true}
				got, err := ev.Eval(phi, db)
				if err != nil {
					t.Fatalf("parallelism %d: %v", par, err)
				}
				if !got.Equal(expected) {
					t.Fatalf("parallelism %d violates Lemma 1 (%d tuples, want %d)",
						par, got.Len(), expected.Len())
				}
				if relation.RenderSorted(got) != wantRender {
					t.Fatalf("parallelism %d: rendering not byte-identical to sequential engine", par)
				}
			}
		})
	}
}

// TestLemma1ParallelJoinIdentical drives the partitioned parallel hash
// join directly (not through the evaluator) on the materialized legs of
// φ_G — π_F(R_G) and each π_{T_j}(R_G) — folding them together with
// sequential order so the intermediates grow, and checks every
// intermediate against the sequential hash join.
func TestLemma1ParallelJoinIdentical(t *testing.T) {
	for name, g := range lemma1Families(t) {
		t.Run(name, func(t *testing.T) {
			legs := gadgetLegs(t, g)
			for _, workers := range []int{1, 2, 8} {
				par := join.Parallel{Workers: workers}
				accSeq, accPar := legs[0], legs[0]
				for i, leg := range legs[1:] {
					var err error
					accSeq, err = (join.Hash{}).Join(join.Exec{}, accSeq, leg)
					if err != nil {
						t.Fatal(err)
					}
					accPar, err = par.Join(join.Exec{}, accPar, leg)
					if err != nil {
						t.Fatal(err)
					}
					if !accPar.Equal(accSeq) {
						t.Fatalf("workers=%d: intermediate %d differs (%d vs %d tuples)",
							workers, i+1, accPar.Len(), accSeq.Len())
					}
				}
				if relation.RenderSorted(accPar) != relation.RenderSorted(accSeq) {
					t.Fatalf("workers=%d: final result not byte-identical", workers)
				}
			}
		})
	}
}

// gadgetLegs materializes the projection legs of φ_G(R_G).
func gadgetLegs(t *testing.T, g *cnf.Formula) []*relation.Relation {
	t.Helper()
	c, err := reduction.New(g)
	if err != nil {
		t.Fatal(err)
	}
	legs := []*relation.Relation{}
	f, err := c.R.Project(c.FScheme())
	if err != nil {
		t.Fatal(err)
	}
	legs = append(legs, f)
	for j := 1; j <= c.M(); j++ {
		tj, err := c.TJScheme(j)
		if err != nil {
			t.Fatal(err)
		}
		leg, err := c.R.Project(tj)
		if err != nil {
			t.Fatal(err)
		}
		legs = append(legs, leg)
	}
	if len(legs) < 2 {
		t.Fatal("gadget produced fewer than 2 legs")
	}
	return legs
}

// TestParallelEvalConcurrentEvaluators runs several parallel evaluators
// against the same database concurrently, sharing one subexpression
// cache — the shape a serving deployment has. Run under -race in CI.
func TestParallelEvalConcurrentEvaluators(t *testing.T) {
	g := cnf.PaperExample()
	c, err := reduction.New(g)
	if err != nil {
		t.Fatal(err)
	}
	phi, err := c.PhiG()
	if err != nil {
		t.Fatal(err)
	}
	db := c.Database()
	expected, err := c.ExpectedPhiResult()
	if err != nil {
		t.Fatal(err)
	}
	cache := algebra.NewSubexprCache()
	errc := make(chan error, 8)
	for i := 0; i < 8; i++ {
		go func(i int) {
			ev := algebra.Evaluator{Order: join.Greedy, Parallelism: 1 + i%4, Cache: true, SharedCache: cache}
			got, err := ev.Eval(phi, db)
			if err != nil {
				errc <- err
				return
			}
			if !got.Equal(expected) {
				errc <- fmt.Errorf("evaluator %d: wrong result", i)
				return
			}
			errc <- nil
		}(i)
	}
	for i := 0; i < 8; i++ {
		if err := <-errc; err != nil {
			t.Fatal(err)
		}
	}
}
