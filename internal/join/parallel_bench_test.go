package join_test

import (
	"fmt"
	"testing"

	"relquery/internal/cnf"
	"relquery/internal/join"
	"relquery/internal/reduction"
	"relquery/internal/relation"
)

// gadgetFold materializes the projection legs of φ_G(R_G) for a
// cnf/families formula. Folding the legs left to right is the paper's
// intermediate-blow-up workload: each successive join multiplies the
// accumulated relation, so the later binary joins are large — exactly
// where partitioned parallelism pays.
func gadgetLegs(b *testing.B, g *cnf.Formula) []*relation.Relation {
	b.Helper()
	c, err := reduction.New(g)
	if err != nil {
		b.Fatal(err)
	}
	legs := []*relation.Relation{}
	f, err := c.R.Project(c.FScheme())
	if err != nil {
		b.Fatal(err)
	}
	legs = append(legs, f)
	for j := 1; j <= c.M(); j++ {
		tj, err := c.TJScheme(j)
		if err != nil {
			b.Fatal(err)
		}
		leg, err := c.R.Project(tj)
		if err != nil {
			b.Fatal(err)
		}
		legs = append(legs, leg)
	}
	return legs
}

func familyWorkloads(b *testing.B) []struct {
	name string
	g    *cnf.Formula
} {
	b.Helper()
	xor2, err := cnf.XorChain(2, true)
	if err != nil {
		b.Fatal(err)
	}
	xor2, _ = cnf.Compact(xor2)
	php1, err := cnf.Pigeonhole(1)
	if err != nil {
		b.Fatal(err)
	}
	php1, _ = cnf.Compact(php1)
	xor3, err := cnf.XorChain(3, true)
	if err != nil {
		b.Fatal(err)
	}
	xor3, _ = cnf.Compact(xor3)
	return []struct {
		name string
		g    *cnf.Formula
	}{
		{"xorchain2", xor2},
		{"pigeonhole1", php1},
		{"xorchain3", xor3}, // the largest workload: the 1.5x criterion is judged here
	}
}

// BenchmarkParallelGadgetFold compares the sequential hash join against
// the partitioned parallel join at 1, 2 and 8 workers on the
// cnf/families gadget folds. Expected shape: parallel/w=1 ≈ hash
// (fallback overhead only); parallel/w=8 well under sequential hash on
// the larger families.
func BenchmarkParallelGadgetFold(b *testing.B) {
	for _, fam := range familyWorkloads(b) {
		legs := gadgetLegs(b, fam.g)
		algs := []struct {
			name string
			alg  join.Algorithm
		}{
			{"hash", join.Hash{}},
			{"parallel-1", join.Parallel{Workers: 1}},
			{"parallel-2", join.Parallel{Workers: 2}},
			{"parallel-8", join.Parallel{Workers: 8}},
		}
		for _, a := range algs {
			b.Run(fmt.Sprintf("%s/%s", fam.name, a.name), func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					if _, err := join.Multi(join.Exec{}, legs, a.alg, join.Sequential); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}
