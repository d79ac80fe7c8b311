// Accounting parity: every join strategy × parallelism configuration
// must report exactly the same materialization accounting — metrics
// counters, per-join-span peaks and the governor's memory account — as
// the values pinned below. The memory account is cumulative bytes over
// every relation the engine materializes, so an Observe call that goes
// missing (or runs twice) moves the smallest succeeding MaxMemoryBytes
// and fails this test even when the result set is unchanged.
package relquery_test

import (
	"errors"
	"fmt"
	"testing"

	"relquery/internal/algebra"
	"relquery/internal/governor"
	"relquery/internal/join"
	"relquery/internal/obs"
	"relquery/internal/reduction"
	"relquery/internal/relation"
)

// parityWorkload is one (database, query) pair of the parity table.
type parityWorkload struct {
	db   relation.Database
	expr algebra.Expr
}

// parityWorkloads builds the Lemma 1 gadgets xorchain2 and pigeonhole1
// (φ_G over R_G) and the acyclic path family.
func parityWorkloads(t *testing.T) map[string]parityWorkload {
	t.Helper()
	out := map[string]parityWorkload{}
	gadgets := lemma1Families(t)
	for name, fam := range map[string]string{"xorchain2": "xorchain", "pigeonhole1": "pigeonhole"} {
		c, err := reduction.New(gadgets[fam])
		if err != nil {
			t.Fatal(err)
		}
		phi, err := c.PhiG()
		if err != nil {
			t.Fatal(err)
		}
		out[name] = parityWorkload{db: c.Database(), expr: phi}
	}
	path := acyclicFamilies(t)["path"]
	out["path"] = parityWorkload{db: path.db, expr: path.expr}
	return out
}

// parityEvaluator configures the evaluator for one strategy name the
// way the CLIs do: "auto" sets both auto selectors, any other name
// forces that algorithm. The parallel hash join gets a fixed worker
// count so its partition counters do not depend on the machine.
func parityEvaluator(t *testing.T, strategy string, parallelism int) *algebra.Evaluator {
	t.Helper()
	ev := &algebra.Evaluator{Order: join.Greedy, Parallelism: parallelism}
	if strategy == "auto" {
		ev.AutoWCOJ, ev.AutoYannakakis = true, true
		return ev
	}
	alg, err := join.ByName(strategy)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := alg.(join.Parallel); ok {
		alg = join.Parallel{Workers: 4}
	}
	ev.Algorithm = alg
	return ev
}

// joinPeaks lists the MaxIntermediate of every join span in pre-order.
func joinPeaks(sp *obs.Span) []int {
	if sp == nil {
		return nil
	}
	var out []int
	if sp.Op == obs.OpJoin {
		out = append(out, sp.MaxIntermediate)
	}
	for _, c := range sp.Children {
		out = append(out, joinPeaks(c)...)
	}
	return out
}

// parityRow is the pinned accounting of one configuration.
type parityRow struct {
	data, strategy string
	parallelism    int
	// result is relation.Fingerprint of the result projected onto the
	// query's declared scheme (column order differs across strategies).
	result  string
	metrics obs.MetricsSnapshot
	peaks   []int
	// minMemory is the smallest Limits.MaxMemoryBytes the evaluation
	// succeeds under; one byte less fails with governor.ErrMemBudget.
	minMemory int64
}

func TestAccountingParity(t *testing.T) {
	workloads := parityWorkloads(t)
	want := map[string]parityRow{}
	for _, row := range accountingParityTable {
		want[fmt.Sprintf("%s/%s/p%d", row.data, row.strategy, row.parallelism)] = row
	}
	for _, data := range []string{"xorchain2", "pigeonhole1", "path"} {
		w := workloads[data]
		for _, strategy := range join.StrategyNames() {
			for _, par := range []int{1, 4} {
				name := fmt.Sprintf("%s/%s/p%d", data, strategy, par)
				t.Run(name, func(t *testing.T) {
					t.Parallel()
					exp, ok := want[name]
					if !ok {
						t.Fatalf("no pinned row for %s", name)
					}
					if raceEnabled && strategy == "nestedloop" && data != "path" {
						t.Skip("the O(|l|·|r|) reference join on a Lemma 1 gadget outlasts the race detector's test timeout; the plain run covers it")
					}
					// The traced run doubles as the success check at the
					// pinned memory budget: a governor does not change
					// any counter.
					ev := parityEvaluator(t, strategy, par)
					col := &obs.Collector{}
					ev.Collector = col
					ev.Limits = governor.Limits{MaxMemoryBytes: exp.minMemory}
					r, err := ev.Eval(w.expr, w.db)
					if err != nil {
						t.Fatalf("MaxMemoryBytes=%d: %v, want success", exp.minMemory, err)
					}
					p, err := r.Project(w.expr.Scheme())
					if err != nil {
						t.Fatal(err)
					}
					if got := relation.Fingerprint(p); got != exp.result {
						t.Errorf("result fingerprint = %s, want %s", got, exp.result)
					}
					tr := col.Trace()
					if tr.Metrics != exp.metrics {
						t.Errorf("metrics:\n got %+v\nwant %+v", tr.Metrics, exp.metrics)
					}
					if got := joinPeaks(tr.Root()); fmt.Sprint(got) != fmt.Sprint(exp.peaks) {
						t.Errorf("join span peaks = %v, want %v", got, exp.peaks)
					}

					ev = parityEvaluator(t, strategy, par)
					ev.Limits = governor.Limits{MaxMemoryBytes: exp.minMemory - 1}
					if _, err := ev.Eval(w.expr, w.db); !errors.Is(err, governor.ErrMemBudget) {
						t.Errorf("MaxMemoryBytes=%d: err = %v, want ErrMemBudget", exp.minMemory-1, err)
					}
				})
			}
		}
	}
}

// accountingParityTable was captured from the engine before its join
// execution context was unified; every value is a regression pin.
var accountingParityTable = []parityRow{
	{"xorchain2", "hash", 1, "884544d442ee5201-b3e8779a3fcdc4f0-2b3bb7c1c73f8540-65",
		obs.MetricsSnapshot{Joins: 8, MaxIntermediate: 3247, IntermediateTuples: 5850, TuplesBuilt: 1411, TuplesProbed: 4374, TuplesEmitted: 5545},
		[]int{3247}, 4405272},
	{"xorchain2", "hash", 4, "884544d442ee5201-b3e8779a3fcdc4f0-2b3bb7c1c73f8540-65",
		obs.MetricsSnapshot{Joins: 8, MaxIntermediate: 3247, IntermediateTuples: 5850, TuplesBuilt: 1411, TuplesProbed: 4374, TuplesEmitted: 5545},
		[]int{3247}, 4405272},
	{"xorchain2", "sortmerge", 1, "884544d442ee5201-b3e8779a3fcdc4f0-2b3bb7c1c73f8540-65",
		obs.MetricsSnapshot{Joins: 8, MaxIntermediate: 3247, IntermediateTuples: 5850, TuplesBuilt: 5785, TuplesProbed: 5785, TuplesEmitted: 5545},
		[]int{3247}, 4405272},
	{"xorchain2", "sortmerge", 4, "884544d442ee5201-b3e8779a3fcdc4f0-2b3bb7c1c73f8540-65",
		obs.MetricsSnapshot{Joins: 8, MaxIntermediate: 3247, IntermediateTuples: 5850, TuplesBuilt: 5785, TuplesProbed: 5785, TuplesEmitted: 5545},
		[]int{3247}, 4405272},
	{"xorchain2", "nestedloop", 1, "884544d442ee5201-b3e8779a3fcdc4f0-2b3bb7c1c73f8540-65",
		obs.MetricsSnapshot{Joins: 8, MaxIntermediate: 3247, IntermediateTuples: 5850, TuplesProbed: 2775139, TuplesEmitted: 5545},
		[]int{3247}, 4405272},
	{"xorchain2", "nestedloop", 4, "884544d442ee5201-b3e8779a3fcdc4f0-2b3bb7c1c73f8540-65",
		obs.MetricsSnapshot{Joins: 8, MaxIntermediate: 3247, IntermediateTuples: 5850, TuplesProbed: 2775139, TuplesEmitted: 5545},
		[]int{3247}, 4405272},
	{"xorchain2", "parallel", 1, "884544d442ee5201-b3e8779a3fcdc4f0-2b3bb7c1c73f8540-65",
		obs.MetricsSnapshot{Joins: 8, MaxIntermediate: 3247, IntermediateTuples: 5850, TuplesBuilt: 1411, TuplesProbed: 4374, TuplesEmitted: 5545, PartitionedJoins: 2, Partitions: 8, BroadcastJoins: 1, SequentialFallbacks: 5},
		[]int{3247}, 4405272},
	{"xorchain2", "parallel", 4, "884544d442ee5201-b3e8779a3fcdc4f0-2b3bb7c1c73f8540-65",
		obs.MetricsSnapshot{Joins: 8, MaxIntermediate: 3247, IntermediateTuples: 5850, TuplesBuilt: 1411, TuplesProbed: 4374, TuplesEmitted: 5545, PartitionedJoins: 2, Partitions: 8, BroadcastJoins: 1, SequentialFallbacks: 5},
		[]int{3247}, 4405272},
	{"xorchain2", "wcoj", 1, "884544d442ee5201-b3e8779a3fcdc4f0-2b3bb7c1c73f8540-65",
		obs.MetricsSnapshot{Joins: 1, MaxIntermediate: 65, IntermediateTuples: 370, TuplesBuilt: 305, TuplesProbed: 7393, TuplesEmitted: 65, WCOJJoins: 1, WCOJCandidates: 7393, WCOJIntersections: 6888},
		[]int{65}, 170256},
	{"xorchain2", "wcoj", 4, "884544d442ee5201-b3e8779a3fcdc4f0-2b3bb7c1c73f8540-65",
		obs.MetricsSnapshot{Joins: 1, MaxIntermediate: 65, IntermediateTuples: 370, TuplesBuilt: 305, TuplesProbed: 7393, TuplesEmitted: 65, WCOJJoins: 1, WCOJCandidates: 7393, WCOJIntersections: 6888},
		[]int{65}, 170256},
	{"xorchain2", "yannakakis", 1, "884544d442ee5201-b3e8779a3fcdc4f0-2b3bb7c1c73f8540-65",
		obs.MetricsSnapshot{Joins: 8, MaxIntermediate: 3247, IntermediateTuples: 5850, TuplesBuilt: 600, TuplesProbed: 876, TuplesEmitted: 5545, YannakakisJoins: 8, Semijoins: 16, SemijoinRows: 1476},
		[]int{3247}, 4405272},
	{"xorchain2", "yannakakis", 4, "884544d442ee5201-b3e8779a3fcdc4f0-2b3bb7c1c73f8540-65",
		obs.MetricsSnapshot{Joins: 8, MaxIntermediate: 3247, IntermediateTuples: 5850, TuplesBuilt: 600, TuplesProbed: 876, TuplesEmitted: 5545, YannakakisJoins: 8, Semijoins: 16, SemijoinRows: 1476},
		[]int{3247}, 4405272},
	{"xorchain2", "auto", 1, "884544d442ee5201-b3e8779a3fcdc4f0-2b3bb7c1c73f8540-65",
		obs.MetricsSnapshot{Joins: 1, MaxIntermediate: 65, IntermediateTuples: 370, TuplesBuilt: 305, TuplesProbed: 7393, TuplesEmitted: 65, WCOJJoins: 1, WCOJCandidates: 7393, WCOJIntersections: 6888},
		[]int{65}, 170256},
	{"xorchain2", "auto", 4, "884544d442ee5201-b3e8779a3fcdc4f0-2b3bb7c1c73f8540-65",
		obs.MetricsSnapshot{Joins: 1, MaxIntermediate: 65, IntermediateTuples: 370, TuplesBuilt: 305, TuplesProbed: 7393, TuplesEmitted: 65, WCOJJoins: 1, WCOJCandidates: 7393, WCOJIntersections: 6888},
		[]int{65}, 170256},
	{"pigeonhole1", "hash", 1, "f39398db355cc045-9782f70fa53412ef-6073d6b3557c1343-71",
		obs.MetricsSnapshot{Joins: 10, MaxIntermediate: 9309, IntermediateTuples: 15767, TuplesBuilt: 2890, TuplesProbed: 12806, TuplesEmitted: 15398},
		[]int{9309}, 15943680},
	{"pigeonhole1", "hash", 4, "f39398db355cc045-9782f70fa53412ef-6073d6b3557c1343-71",
		obs.MetricsSnapshot{Joins: 10, MaxIntermediate: 9309, IntermediateTuples: 15767, TuplesBuilt: 2890, TuplesProbed: 12806, TuplesEmitted: 15398},
		[]int{9309}, 15943680},
	{"pigeonhole1", "sortmerge", 1, "f39398db355cc045-9782f70fa53412ef-6073d6b3557c1343-71",
		obs.MetricsSnapshot{Joins: 10, MaxIntermediate: 9309, IntermediateTuples: 15767, TuplesBuilt: 15696, TuplesProbed: 15696, TuplesEmitted: 15398},
		[]int{9309}, 15943680},
	{"pigeonhole1", "sortmerge", 4, "f39398db355cc045-9782f70fa53412ef-6073d6b3557c1343-71",
		obs.MetricsSnapshot{Joins: 10, MaxIntermediate: 9309, IntermediateTuples: 15767, TuplesBuilt: 15696, TuplesProbed: 15696, TuplesEmitted: 15398},
		[]int{9309}, 15943680},
	{"pigeonhole1", "nestedloop", 1, "f39398db355cc045-9782f70fa53412ef-6073d6b3557c1343-71",
		obs.MetricsSnapshot{Joins: 10, MaxIntermediate: 9309, IntermediateTuples: 15767, TuplesProbed: 12613154, TuplesEmitted: 15398},
		[]int{9309}, 15943680},
	{"pigeonhole1", "nestedloop", 4, "f39398db355cc045-9782f70fa53412ef-6073d6b3557c1343-71",
		obs.MetricsSnapshot{Joins: 10, MaxIntermediate: 9309, IntermediateTuples: 15767, TuplesProbed: 12613154, TuplesEmitted: 15398},
		[]int{9309}, 15943680},
	{"pigeonhole1", "parallel", 1, "f39398db355cc045-9782f70fa53412ef-6073d6b3557c1343-71",
		obs.MetricsSnapshot{Joins: 10, MaxIntermediate: 9309, IntermediateTuples: 15767, TuplesBuilt: 2890, TuplesProbed: 12806, TuplesEmitted: 15398, PartitionedJoins: 3, Partitions: 12, BroadcastJoins: 1, SequentialFallbacks: 6},
		[]int{9309}, 15943680},
	{"pigeonhole1", "parallel", 4, "f39398db355cc045-9782f70fa53412ef-6073d6b3557c1343-71",
		obs.MetricsSnapshot{Joins: 10, MaxIntermediate: 9309, IntermediateTuples: 15767, TuplesBuilt: 2890, TuplesProbed: 12806, TuplesEmitted: 15398, PartitionedJoins: 3, Partitions: 12, BroadcastJoins: 1, SequentialFallbacks: 6},
		[]int{9309}, 15943680},
	{"pigeonhole1", "wcoj", 1, "f39398db355cc045-9782f70fa53412ef-6073d6b3557c1343-71",
		obs.MetricsSnapshot{Joins: 1, MaxIntermediate: 71, IntermediateTuples: 440, TuplesBuilt: 369, TuplesProbed: 24594, TuplesEmitted: 71, WCOJJoins: 1, WCOJCandidates: 24594, WCOJIntersections: 22025},
		[]int{71}, 251400},
	{"pigeonhole1", "wcoj", 4, "f39398db355cc045-9782f70fa53412ef-6073d6b3557c1343-71",
		obs.MetricsSnapshot{Joins: 1, MaxIntermediate: 71, IntermediateTuples: 440, TuplesBuilt: 369, TuplesProbed: 24594, TuplesEmitted: 71, WCOJJoins: 1, WCOJCandidates: 24594, WCOJIntersections: 22025},
		[]int{71}, 251400},
	{"pigeonhole1", "yannakakis", 1, "f39398db355cc045-9782f70fa53412ef-6073d6b3557c1343-71",
		obs.MetricsSnapshot{Joins: 10, MaxIntermediate: 9309, IntermediateTuples: 15767, TuplesBuilt: 1089, TuplesProbed: 2113, TuplesEmitted: 15398, YannakakisJoins: 10, Semijoins: 20, SemijoinRows: 3202},
		[]int{9309}, 15943680},
	{"pigeonhole1", "yannakakis", 4, "f39398db355cc045-9782f70fa53412ef-6073d6b3557c1343-71",
		obs.MetricsSnapshot{Joins: 10, MaxIntermediate: 9309, IntermediateTuples: 15767, TuplesBuilt: 1089, TuplesProbed: 2113, TuplesEmitted: 15398, YannakakisJoins: 10, Semijoins: 20, SemijoinRows: 3202},
		[]int{9309}, 15943680},
	{"pigeonhole1", "auto", 1, "f39398db355cc045-9782f70fa53412ef-6073d6b3557c1343-71",
		obs.MetricsSnapshot{Joins: 1, MaxIntermediate: 71, IntermediateTuples: 440, TuplesBuilt: 369, TuplesProbed: 24594, TuplesEmitted: 71, WCOJJoins: 1, WCOJCandidates: 24594, WCOJIntersections: 22025},
		[]int{71}, 251400},
	{"pigeonhole1", "auto", 4, "f39398db355cc045-9782f70fa53412ef-6073d6b3557c1343-71",
		obs.MetricsSnapshot{Joins: 1, MaxIntermediate: 71, IntermediateTuples: 440, TuplesBuilt: 369, TuplesProbed: 24594, TuplesEmitted: 71, WCOJJoins: 1, WCOJCandidates: 24594, WCOJIntersections: 22025},
		[]int{71}, 251400},
	{"path", "hash", 1, "da994dc16614fe3b-e00cfcd9b9acadce-2949dd5df5a802ab-17",
		obs.MetricsSnapshot{Joins: 2, MaxIntermediate: 257, IntermediateTuples: 274, TuplesBuilt: 34, TuplesProbed: 274, TuplesEmitted: 274},
		[]int{257}, 33288},
	{"path", "hash", 4, "da994dc16614fe3b-e00cfcd9b9acadce-2949dd5df5a802ab-17",
		obs.MetricsSnapshot{Joins: 2, MaxIntermediate: 257, IntermediateTuples: 274, TuplesBuilt: 34, TuplesProbed: 274, TuplesEmitted: 274},
		[]int{257}, 33288},
	{"path", "sortmerge", 1, "da994dc16614fe3b-e00cfcd9b9acadce-2949dd5df5a802ab-17",
		obs.MetricsSnapshot{Joins: 2, MaxIntermediate: 257, IntermediateTuples: 274, TuplesBuilt: 308, TuplesProbed: 308, TuplesEmitted: 274},
		[]int{257}, 33288},
	{"path", "sortmerge", 4, "da994dc16614fe3b-e00cfcd9b9acadce-2949dd5df5a802ab-17",
		obs.MetricsSnapshot{Joins: 2, MaxIntermediate: 257, IntermediateTuples: 274, TuplesBuilt: 308, TuplesProbed: 308, TuplesEmitted: 274},
		[]int{257}, 33288},
	{"path", "nestedloop", 1, "da994dc16614fe3b-e00cfcd9b9acadce-2949dd5df5a802ab-17",
		obs.MetricsSnapshot{Joins: 2, MaxIntermediate: 257, IntermediateTuples: 274, TuplesProbed: 4658, TuplesEmitted: 274},
		[]int{257}, 33288},
	{"path", "nestedloop", 4, "da994dc16614fe3b-e00cfcd9b9acadce-2949dd5df5a802ab-17",
		obs.MetricsSnapshot{Joins: 2, MaxIntermediate: 257, IntermediateTuples: 274, TuplesProbed: 4658, TuplesEmitted: 274},
		[]int{257}, 33288},
	{"path", "parallel", 1, "da994dc16614fe3b-e00cfcd9b9acadce-2949dd5df5a802ab-17",
		obs.MetricsSnapshot{Joins: 2, MaxIntermediate: 257, IntermediateTuples: 274, TuplesBuilt: 34, TuplesProbed: 274, TuplesEmitted: 274, BroadcastJoins: 1, SequentialFallbacks: 1},
		[]int{257}, 33288},
	{"path", "parallel", 4, "da994dc16614fe3b-e00cfcd9b9acadce-2949dd5df5a802ab-17",
		obs.MetricsSnapshot{Joins: 2, MaxIntermediate: 257, IntermediateTuples: 274, TuplesBuilt: 34, TuplesProbed: 274, TuplesEmitted: 274, BroadcastJoins: 1, SequentialFallbacks: 1},
		[]int{257}, 33288},
	{"path", "wcoj", 1, "da994dc16614fe3b-e00cfcd9b9acadce-2949dd5df5a802ab-17",
		obs.MetricsSnapshot{Joins: 1, MaxIntermediate: 17, IntermediateTuples: 17, TuplesBuilt: 51, TuplesProbed: 37, TuplesEmitted: 17, WCOJJoins: 1, WCOJCandidates: 37, WCOJIntersections: 5},
		[]int{17}, 2448},
	{"path", "wcoj", 4, "da994dc16614fe3b-e00cfcd9b9acadce-2949dd5df5a802ab-17",
		obs.MetricsSnapshot{Joins: 1, MaxIntermediate: 17, IntermediateTuples: 17, TuplesBuilt: 51, TuplesProbed: 37, TuplesEmitted: 17, WCOJJoins: 1, WCOJCandidates: 37, WCOJIntersections: 5},
		[]int{17}, 2448},
	{"path", "yannakakis", 1, "da994dc16614fe3b-e00cfcd9b9acadce-2949dd5df5a802ab-17",
		obs.MetricsSnapshot{Joins: 2, MaxIntermediate: 17, IntermediateTuples: 18, TuplesBuilt: 2, TuplesProbed: 18, TuplesEmitted: 18, YannakakisJoins: 1, Semijoins: 4, SemijoinRows: 36},
		[]int{17}, 6024},
	{"path", "yannakakis", 4, "da994dc16614fe3b-e00cfcd9b9acadce-2949dd5df5a802ab-17",
		obs.MetricsSnapshot{Joins: 2, MaxIntermediate: 17, IntermediateTuples: 18, TuplesBuilt: 2, TuplesProbed: 18, TuplesEmitted: 18, YannakakisJoins: 1, Semijoins: 4, SemijoinRows: 36},
		[]int{17}, 6024},
	{"path", "auto", 1, "da994dc16614fe3b-e00cfcd9b9acadce-2949dd5df5a802ab-17",
		obs.MetricsSnapshot{Joins: 2, MaxIntermediate: 17, IntermediateTuples: 18, TuplesBuilt: 2, TuplesProbed: 18, TuplesEmitted: 18, YannakakisJoins: 1, Semijoins: 4, SemijoinRows: 36},
		[]int{17}, 6024},
	{"path", "auto", 4, "da994dc16614fe3b-e00cfcd9b9acadce-2949dd5df5a802ab-17",
		obs.MetricsSnapshot{Joins: 2, MaxIntermediate: 17, IntermediateTuples: 18, TuplesBuilt: 2, TuplesProbed: 18, TuplesEmitted: 18, YannakakisJoins: 1, Semijoins: 4, SemijoinRows: 36},
		[]int{17}, 6024},
}
