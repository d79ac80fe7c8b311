package main

import (
	"encoding/json"
	"os"
	"testing"
	"time"

	"relquery/internal/algebra"
	"relquery/internal/join"
	"relquery/internal/obs"
	"relquery/internal/relation"
)

// The benchmark runs from the root of the checkout: it reads the
// examples/relqueryd catalog and BENCHMARK.json there.
func TestMain(m *testing.M) {
	if err := os.Chdir(".."); err != nil {
		panic(err)
	}
	os.Exit(m.Run())
}

// benchmarkSpec is the part of BENCHMARK.json the self-test checks.
type benchmarkSpec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

// TestShortRuns runs every workload briefly on a fixed seed, untraced and
// traced: no reply may mismatch, the server must count exactly the
// expected 429s, and each mode must print exactly its metrics with
// their units.
func TestShortRuns(t *testing.T) {
	raw, err := os.ReadFile("BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec benchmarkSpec
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	for _, w := range spec.Workloads {
		for _, traced := range []bool{false, true} {
			res, notes, err := run(w.Name, 7, 500*time.Millisecond, traced)
			if err != nil {
				t.Fatalf("%s traced=%v: %v", w.Name, traced, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
				t.Errorf("%s traced=%v: correct=%v failed=%d attempted=%d\n%v", w.Name, traced, res.Correct, res.Failed, res.Attempted, notes)
			}
			want := map[string]string{}
			if traced {
				for _, m := range spec.PerLayer {
					want[m.Name] = m.Unit
				}
			} else {
				for _, m := range spec.EndToEnd {
					want[m.Name] = m.Unit
				}
			}
			for name, unit := range want {
				got, ok := res.Metrics[name]
				switch {
				case !ok:
					t.Errorf("%s traced=%v: metric %s missing", w.Name, traced, name)
				case got.Unit != unit:
					t.Errorf("%s traced=%v: %s unit %q, want %q", w.Name, traced, name, got.Unit, unit)
				case !traced && got.Value <= 0:
					t.Errorf("%s: end-to-end metric %s = %v, want > 0", w.Name, name, got.Value)
				}
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s traced=%v: %d metrics printed, BENCHMARK.json names %d", w.Name, traced, len(res.Metrics), len(want))
			}
			if traced {
				got, exp := res.Metrics["server.admission_rejects"].Value, res.Metrics["server.expected_rejects"].Value
				if got != exp || exp == 0 {
					t.Errorf("%s: server counted %v admission rejects, expected %v", w.Name, got, exp)
				}
			}
		}
	}
}

// TestBudgetMargins holds every tenant budget at least 10× away from
// each peak its queries can be judged by: the server gate's predicted
// and worst-case greedy peaks and AGM bound on the base relations, the
// engine gate's on each join node's inputs, and the peak actually
// materialized. Expected 429s sit 10× below, everything else 10× above.
func TestBudgetMargins(t *testing.T) {
	for _, w := range []string{"warm", "churn"} {
		for _, seed := range []int64{1, 2, 3} {
			tenants, err := buildTenants(w, seed)
			if err != nil {
				t.Fatal(err)
			}
			for _, tn := range tenants {
				if tn.budget == 0 {
					continue
				}
				for _, c := range tn.gens {
					for _, q := range c.queries {
						peaks := queryPeaks(t, q.expr, c.db)
						budget := float64(tn.budget)
						for _, p := range peaks {
							if q.reject && 10*budget > p || !q.reject && budget < 10*p {
								t.Errorf("%s seed %d tenant %s query %q strategy %q: budget %v within 10× of peak %v",
									w, seed, tn.name, q.src, q.strategy, budget, p)
							}
						}
					}
				}
			}
		}
	}
}

// queryPeaks lists the peaks a budget is compared against for e on db.
func queryPeaks(t *testing.T, e algebra.Expr, db relation.Database) []float64 {
	t.Helper()
	base := baseRelations(e, db)
	peaks := []float64{
		join.PredictedPeakGreedy(base), join.WorstCasePeakGreedy(base), join.AGMBoundOf(base),
	}
	var walk func(e algebra.Expr)
	walk = func(e algebra.Expr) {
		switch n := e.(type) {
		case *algebra.Project:
			walk(n.Of())
		case *algebra.Join:
			var args []*relation.Relation
			for _, a := range n.Args() {
				r, err := algebra.Eval(a, db)
				if err != nil {
					t.Fatal(err)
				}
				args = append(args, r)
				walk(a)
			}
			peaks = append(peaks, join.PredictedPeakGreedy(args), join.WorstCasePeakGreedy(args))
		}
	}
	walk(e)
	col := &obs.Collector{}
	ev := algebra.Evaluator{Order: join.Greedy, Collector: col}
	if _, err := ev.Eval(e, db); err != nil {
		t.Fatal(err)
	}
	peaks = append(peaks, float64(col.Trace().Metrics.MaxIntermediate))
	var nonzero []float64
	for _, p := range peaks {
		if p > 0 {
			nonzero = append(nonzero, p)
		}
	}
	return nonzero
}
