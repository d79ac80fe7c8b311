// Benchmarks regenerating the performance-shaped experiments of
// EXPERIMENTS.md: one benchmark (family) per table/figure. Absolute
// numbers are machine-specific; the shapes that must hold are spelled out
// per benchmark and recorded in EXPERIMENTS.md.
package relquery_test

import (
	"fmt"
	"math/rand"
	"testing"

	"relquery/internal/algebra"
	"relquery/internal/cnf"
	"relquery/internal/core"
	"relquery/internal/decide"
	"relquery/internal/deps"
	"relquery/internal/join"
	"relquery/internal/obs"
	"relquery/internal/qbf"
	"relquery/internal/reduction"
	"relquery/internal/relation"
	"relquery/internal/sat"
	"relquery/internal/tableau"
)

// mustConstruction builds R_G for a formula already in reduction form.
func mustConstruction(b *testing.B, g *cnf.Formula) *reduction.Construction {
	b.Helper()
	c, err := reduction.New(g)
	if err != nil {
		b.Fatal(err)
	}
	return c
}

func satFormula(b *testing.B, seed int64) *cnf.Formula {
	b.Helper()
	rng := rand.New(rand.NewSource(seed))
	g, _, err := cnf.PlantedSatisfiable3CNF(rng, 4, 3)
	if err != nil {
		b.Fatal(err)
	}
	g, _ = cnf.Compact(g)
	return g
}

func unsatFormula(b *testing.B, seed int64) *cnf.Formula {
	b.Helper()
	rng := rand.New(rand.NewSource(seed))
	g, err := cnf.Unsatisfiable3CNF(rng, 3, 8)
	if err != nil {
		b.Fatal(err)
	}
	g, _ = cnf.Compact(g)
	return g
}

// BenchmarkE0PaperExample regenerates the paper's displayed table (E0):
// construction cost of R_G and φ_G for the worked example.
func BenchmarkE0PaperExample(b *testing.B) {
	g := cnf.PaperExample()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		c, err := reduction.New(g)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := c.PhiG(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkE1Lemma1 evaluates φ_G(R_G) with the tableau engine across
// formula sizes (E1). Expected shape: cost grows with m and with a(G),
// not with the exponential intermediate sizes of naive evaluation.
func BenchmarkE1Lemma1(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	for _, size := range []struct{ n, m int }{{4, 3}, {5, 4}, {6, 5}, {3, 8}} {
		g, err := cnf.Random3CNF(rng, size.n, size.m)
		if err != nil {
			b.Fatal(err)
		}
		g, _ = cnf.Compact(g)
		b.Run(fmt.Sprintf("n=%d,m=%d", size.n, size.m), func(b *testing.B) {
			c := mustConstruction(b, g)
			phi, err := c.PhiG()
			if err != nil {
				b.Fatal(err)
			}
			tb, err := tableau.New(phi)
			if err != nil {
				b.Fatal(err)
			}
			db := c.Database()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := tb.Eval(db); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkE2TheoremDP runs the Dᵖ result-verification route (E2) on each
// satisfiability combination. Expected shape: (sat, unsat) — the positive
// instance — costs most, since equality must be verified exhaustively.
func BenchmarkE2TheoremDP(b *testing.B) {
	gSat := satFormula(b, 2)
	gUnsat := unsatFormula(b, 2)
	combos := []struct {
		name  string
		g, gp *cnf.Formula
	}{
		{"sat_sat", gSat, gSat},
		{"sat_unsat", gSat, gUnsat},
		{"unsat_sat", gUnsat, gSat},
		{"unsat_unsat", gUnsat, gUnsat},
	}
	for _, combo := range combos {
		b.Run(combo.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := core.SATAndUNSATViaResultEquals(combo.g, combo.gp); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkE3Cardinality runs Theorem 2's cardinality-window route (E3).
func BenchmarkE3Cardinality(b *testing.B) {
	gSat := satFormula(b, 3)
	gUnsat := unsatFormula(b, 3)
	inst, err := reduction.Theorem2(gSat, gUnsat)
	if err != nil {
		b.Fatal(err)
	}
	db := inst.Database()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ok, err := decide.CardBetween(inst.Phi(), db, inst.D1, inst.D2, decide.Budget{})
		if err != nil {
			b.Fatal(err)
		}
		if !ok {
			b.Fatal("window check failed")
		}
	}
}

// BenchmarkE4Counting compares the three #3SAT counters (E4): brute force,
// DPLL-with-components, and the Theorem 3 query route. Expected shape:
// component counting beats brute force; the query route costs more than
// both (it pays for the relational detour) but stays polynomial in the
// number of models.
func BenchmarkE4Counting(b *testing.B) {
	rng := rand.New(rand.NewSource(4))
	g, err := cnf.Random3CNF(rng, 7, 5)
	if err != nil {
		b.Fatal(err)
	}
	g, _ = cnf.Compact(g)
	b.Run("brute", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := (sat.BruteCounter{}).Count(g); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("component", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := (sat.ComponentCounter{}).Count(g); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("query", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := core.CountModelsViaQuery(g); err != nil {
				b.Fatal(err)
			}
		}
	})
}

func benchQ3SAT(b *testing.B, via func(*qbf.Instance) (core.Result, error)) {
	rng := rand.New(rand.NewSource(5))
	g, err := cnf.Random3CNF(rng, 5, 4)
	if err != nil {
		b.Fatal(err)
	}
	inst := &qbf.Instance{G: g, Universal: []int{1, 2}}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := via(inst); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkE5Pi2Queries runs the Theorem 4 Π₂ᵖ route (E5).
func BenchmarkE5Pi2Queries(b *testing.B) {
	benchQ3SAT(b, core.Q3SATViaQueryComparison)
}

// BenchmarkE6Pi2Relations runs the Theorem 5 Π₂ᵖ route (E6).
func BenchmarkE6Pi2Relations(b *testing.B) {
	benchQ3SAT(b, core.Q3SATViaRelationComparison)
}

// BenchmarkE7Blowup contrasts materializing evaluation (whose intermediate
// results explode exponentially with padding clauses — the Introduction's
// claim) with tableau evaluation, whose space stays bounded (E7).
func BenchmarkE7Blowup(b *testing.B) {
	rng := rand.New(rand.NewSource(7))
	core8, err := cnf.Unsatisfiable3CNF(rng, 3, 8)
	if err != nil {
		b.Fatal(err)
	}
	for _, extra := range []int{0, 2, 4} {
		g, err := cnf.PadWithFreshClauses(core8, extra)
		if err != nil {
			b.Fatal(err)
		}
		g, _ = cnf.Compact(g)
		c := mustConstruction(b, g)
		phi, err := c.PhiG()
		if err != nil {
			b.Fatal(err)
		}
		db := c.Database()
		b.Run(fmt.Sprintf("materialize/m=%d", c.M()), func(b *testing.B) {
			ev := algebra.Evaluator{Order: join.Greedy}
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := ev.Eval(phi, db); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(fmt.Sprintf("tableau/m=%d", c.M()), func(b *testing.B) {
			tb, err := tableau.New(phi)
			if err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := tb.Eval(db); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkE8Acyclic contrasts the naive left-deep plan with Yannakakis
// full-reducer evaluation on the hub workload (E8). Expected shape: naive
// is quadratic in N, Yannakakis linear.
func BenchmarkE8Acyclic(b *testing.B) {
	for _, n := range []int{50, 100, 200} {
		rels := hubWorkload(n)
		b.Run(fmt.Sprintf("naive/N=%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := join.Multi(join.Exec{}, rels, join.Hash{}, join.Sequential); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(fmt.Sprintf("yannakakis/N=%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := deps.AcyclicJoin(rels); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// hubWorkload mirrors internal/core's E8 workload for benchmarking.
func hubWorkload(n int) []*relation.Relation {
	r1 := relation.New(relation.MustScheme("A", "B"))
	r2 := relation.New(relation.MustScheme("B", "C"))
	r3 := relation.New(relation.MustScheme("C", "D"))
	for j := 0; j < n; j++ {
		r1.MustAdd(relation.TupleOf(fmt.Sprintf("a%d", j), "hub"))
		r2.MustAdd(relation.TupleOf("hub", fmt.Sprintf("b%d", j)))
	}
	r3.MustAdd(relation.TupleOf("nomatch", "z"))
	return []*relation.Relation{r1, r2, r3}
}

// BenchmarkJoinAlgorithms compares the three binary join algorithms on a
// many-to-many workload. Expected shape: hash and sort-merge scale near-
// linearly in input+output, nested-loop quadratically.
func BenchmarkJoinAlgorithms(b *testing.B) {
	rng := rand.New(rand.NewSource(8))
	mk := func(scheme relation.Scheme, rows, keys int) *relation.Relation {
		r := relation.New(scheme)
		for i := 0; i < rows; i++ {
			r.MustAdd(relation.TupleOf(
				fmt.Sprintf("k%d", rng.Intn(keys)),
				fmt.Sprintf("v%d", i),
			))
		}
		return r
	}
	left := mk(relation.MustScheme("K", "A"), 500, 50)
	right := mk(relation.MustScheme("K", "B"), 500, 50)
	for _, name := range join.Names() {
		alg, err := join.ByName(name)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := alg.Join(join.Exec{}, left, right); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkE9ParallelEval compares the sequential materializing engine
// against the parallel engine (partitioned hash join + concurrent
// subtree evaluation) on cnf/families gadget workloads. Expected shape:
// parallelism 1 ≈ sequential (fallback overhead only); parallelism 8
// ahead of sequential on both families; the cached variant ahead again
// when the expression repeats subexpressions.
//
// The -traced variants re-run a configuration with a fresh obs.Collector
// per evaluation; comparing each pair measures the observability layer's
// overhead, which the nil-collector fast path must keep within noise
// (≤ 2%, see BENCH_obs.txt for the recorded before/after numbers).
func BenchmarkE9ParallelEval(b *testing.B) {
	xor, err := cnf.XorChain(2, true)
	if err != nil {
		b.Fatal(err)
	}
	xor, _ = cnf.Compact(xor)
	php, err := cnf.Pigeonhole(1)
	if err != nil {
		b.Fatal(err)
	}
	php, _ = cnf.Compact(php)
	for _, fam := range []struct {
		name string
		g    *cnf.Formula
	}{
		{"xorchain2", xor},
		{"pigeonhole1", php},
	} {
		c := mustConstruction(b, fam.g)
		phi, err := c.PhiG()
		if err != nil {
			b.Fatal(err)
		}
		db := c.Database()
		for _, cfg := range []struct {
			name     string
			ev       algebra.Evaluator
			traced   bool
			registry bool
		}{
			{"sequential", algebra.Evaluator{Order: join.Greedy}, false, false},
			{"parallel-1", algebra.Evaluator{Parallelism: 1, Order: join.Greedy}, false, false},
			{"parallel-8", algebra.Evaluator{Parallelism: 8, Order: join.Greedy}, false, false},
			{"parallel-8-cache", algebra.Evaluator{Parallelism: 8, Cache: true, Order: join.Greedy}, false, false},
			{"sequential-traced", algebra.Evaluator{Order: join.Greedy}, true, false},
			{"parallel-8-traced", algebra.Evaluator{Parallelism: 8, Order: join.Greedy}, true, false},
			// The -registry variant adds the process-wide telemetry
			// publish (histograms + totals fold + trace ring) on top of
			// tracing — the cost of feeding /metrics, per evaluation.
			{"parallel-8-registry", algebra.Evaluator{Parallelism: 8, Order: join.Greedy}, true, true},
		} {
			reg := obs.NewRegistry()
			b.Run(fmt.Sprintf("%s/%s", fam.name, cfg.name), func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					ev := cfg.ev
					if cfg.traced {
						ev.Collector = &obs.Collector{}
					}
					if cfg.registry {
						ev.Registry = reg
					}
					if _, err := ev.Eval(phi, db); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// BenchmarkMembership measures the Proposition 2 NP membership test on the
// gadget (tuple u_G in the projected query).
func BenchmarkMembership(b *testing.B) {
	for _, mk := range []struct {
		name string
		g    *cnf.Formula
	}{
		{"sat", satFormula(b, 9)},
		{"unsat", unsatFormula(b, 9)},
	} {
		b.Run(mk.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := core.SATViaMembership(mk.g); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
