// Benchmarks for the Yannakakis full reducer on the acyclic blow-up
// families: the greedy binary plan materializes the quadratic dangling
// cross product, the full reducer deletes the dangling tuples first and
// never materializes above the output. Recorded numbers live in
// BENCH_acyclic.txt (regenerate with `make acyclic-bench`); the shape
// that must hold is peak_rows collapsing to ≤ output + largest input
// under yannakakis and auto.
package relquery_test

import (
	"fmt"
	"testing"

	"relquery/internal/algebra"
	"relquery/internal/join"
	"relquery/internal/obs"
	"relquery/internal/relation"
)

// BenchmarkAcyclicYannakakis evaluates each acyclic family with the
// greedy hash plan, the forced generic join, the forced full reducer,
// and the full auto selector. Each configuration reports the peak
// materialized join cardinality (peak_rows) and the root join node's AGM
// bound (agm_bound) so the before/after collapse is visible in the
// benchmark output itself.
func BenchmarkAcyclicYannakakis(b *testing.B) {
	families, err := buildAcyclicFamilies()
	if err != nil {
		b.Fatal(err)
	}
	for _, name := range []string{"path", "star", "snowflake"} {
		fam := families[name]
		for _, cfg := range []struct {
			name string
			ev   func() algebra.Evaluator
		}{
			{"greedy", func() algebra.Evaluator {
				return algebra.Evaluator{Order: join.Greedy}
			}},
			{"wcoj", func() algebra.Evaluator {
				return algebra.Evaluator{Algorithm: join.Generic{}, Order: join.Greedy}
			}},
			{"yannakakis", func() algebra.Evaluator {
				return algebra.Evaluator{Algorithm: join.Yannakakis{}, Order: join.Greedy}
			}},
			{"auto", func() algebra.Evaluator {
				return algebra.Evaluator{Order: join.Greedy, AutoWCOJ: true, AutoYannakakis: true}
			}},
		} {
			b.Run(fmt.Sprintf("%s/%s", name, cfg.name), func(b *testing.B) {
				b.ReportAllocs()
				var peak int
				var bound float64
				for i := 0; i < b.N; i++ {
					col := &obs.Collector{}
					ev := cfg.ev()
					ev.Collector = col
					if _, err := ev.Eval(fam.expr, fam.db); err != nil {
						b.Fatal(err)
					}
					root := col.Trace().Root()
					peak = maxJoinRowsBench(root)
					bound = rootJoinAGMBound(root)
				}
				b.ReportMetric(float64(peak), "peak_rows")
				b.ReportMetric(bound, "agm_bound")
			})
		}
	}
}

// BenchmarkFullReducerDirect measures the full reducer head-to-head with
// the greedy binary plan on the path family's relations, without the
// evaluator around it.
func BenchmarkFullReducerDirect(b *testing.B) {
	families, err := buildAcyclicFamilies()
	if err != nil {
		b.Fatal(err)
	}
	fam := families["path"]
	rels := relsOf(b, fam)
	b.Run("greedy-hash", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := join.Multi(join.Exec{}, rels, join.Hash{}, join.Greedy); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("yannakakis", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, _, err := (join.Yannakakis{}).JoinAll(join.Exec{}, join.NewPlan(rels)); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// relsOf materializes a family's base relations in deterministic order.
func relsOf(b *testing.B, fam acyclicFamily) []*relation.Relation {
	b.Helper()
	rels := make([]*relation.Relation, 0, len(fam.db))
	for _, name := range fam.db.Names() {
		r, err := fam.db.Get(name)
		if err != nil {
			b.Fatal(err)
		}
		rels = append(rels, r)
	}
	return rels
}
