package algebra

import (
	"strings"
	"testing"

	"relquery/internal/governor"
	"relquery/internal/obs"
	"relquery/internal/relation"
)

// chainQuery builds pi[A C](pi[A B](T) * pi[B C](T)) over a tiny T with
// hand-checkable cardinalities: legs 3 and 2 rows, join 3, result 3,
// AGM bound 3·2 = 6 (a chain join must fully cover both relations).
func chainQuery(t *testing.T) (Expr, relation.Database) {
	t.Helper()
	r := mkrel(t, "A B C", "1 x p", "2 x p", "2 y q")
	op := MustOperand("T", r.Scheme())
	e := MustProject(relation.MustScheme("A", "C"), MustJoin(
		MustProject(relation.MustScheme("A", "B"), op),
		MustProject(relation.MustScheme("B", "C"), op),
	))
	return e, relation.Single("T", r)
}

func TestEvalTraceSpans(t *testing.T) {
	e, db := chainQuery(t)
	col := &obs.Collector{}
	ev := Evaluator{Collector: col}
	out, err := ev.Eval(e, db)
	if err != nil {
		t.Fatal(err)
	}
	if out.Len() != 3 {
		t.Fatalf("result has %d tuples, want 3", out.Len())
	}

	root := col.Trace().Root()
	if root == nil {
		t.Fatal("no root span collected")
	}
	if root.Op != obs.OpProject || root.OutputRows != 3 || root.SchemeWidth != 2 {
		t.Errorf("root span = op=%s rows=%d width=%d, want project/3/2", root.Op, root.OutputRows, root.SchemeWidth)
	}
	if len(root.InputRows) != 1 || root.InputRows[0] != 3 {
		t.Errorf("root InputRows = %v, want [3]", root.InputRows)
	}
	if len(root.Children) != 1 {
		t.Fatalf("root has %d children, want 1", len(root.Children))
	}
	j := root.Children[0]
	if j.Op != obs.OpJoin || j.OutputRows != 3 {
		t.Errorf("join span = op=%s rows=%d, want join/3", j.Op, j.OutputRows)
	}
	if len(j.InputRows) != 2 || j.InputRows[0] != 3 || j.InputRows[1] != 2 {
		t.Errorf("join InputRows = %v, want [3 2]", j.InputRows)
	}
	if j.AGMBound != 6 {
		t.Errorf("join AGMBound = %g, want 6", j.AGMBound)
	}
	if j.Algorithm != "hash" {
		t.Errorf("join Algorithm = %q, want hash", j.Algorithm)
	}
	if len(j.Children) != 2 {
		t.Fatalf("join has %d children, want 2", len(j.Children))
	}
	for i, c := range j.Children {
		if c.Op != obs.OpProject {
			t.Errorf("join child %d op = %s, want project", i, c.Op)
		}
		if len(c.Children) != 1 || c.Children[0].Op != obs.OpScan || c.Children[0].OutputRows != 3 {
			t.Errorf("join child %d should scan T (3 rows), got %+v", i, c.Children)
		}
	}

	snap := col.Metrics.Snapshot()
	if snap.Joins != 1 {
		t.Errorf("metrics Joins = %d, want 1", snap.Joins)
	}
	if snap.MaxIntermediate != 3 {
		t.Errorf("metrics MaxIntermediate = %d, want 3", snap.MaxIntermediate)
	}
}

// TestTraceParallelMatchesSequential: the span tree collected under the
// parallel engine has the same shape and per-node cardinalities as the
// sequential engine's (child order is pinned to argument order).
func TestTraceParallelMatchesSequential(t *testing.T) {
	r := randomWideRel(t, 5, []string{"A", "B", "C", "D"}, 400, 10)
	db := relation.Single("T", r)
	op := MustOperand("T", r.Scheme())
	e := legsExpr(t, op, [][]string{{"A", "B"}, {"B", "C"}, {"C", "D"}})

	trace := func(par int) *obs.Span {
		col := &obs.Collector{}
		ev := Evaluator{Parallelism: par, Collector: col}
		if _, err := ev.Eval(e, db); err != nil {
			t.Fatal(err)
		}
		return col.Trace().Root()
	}
	seq, par := trace(0), trace(8)
	var compare func(path string, a, b *obs.Span)
	compare = func(path string, a, b *obs.Span) {
		if a.Op != b.Op || a.Label != b.Label {
			t.Fatalf("%s: node mismatch: %s %q vs %s %q", path, a.Op, a.Label, b.Op, b.Label)
		}
		if a.OutputRows != b.OutputRows {
			t.Errorf("%s (%s): rows %d (seq) vs %d (parallel)", path, a.Label, a.OutputRows, b.OutputRows)
		}
		if len(a.Children) != len(b.Children) {
			t.Fatalf("%s: child count %d vs %d", path, len(a.Children), len(b.Children))
		}
		for i := range a.Children {
			compare(path+"/"+a.Children[i].Label, a.Children[i], b.Children[i])
		}
	}
	compare("root", seq, par)
}

func TestExplainAnalyzeFormat(t *testing.T) {
	e, db := chainQuery(t)
	out, err := ExplainAnalyze(e, db)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		"pi[A C]", "* (natural join, 2 inputs)", "pi[A B]", "pi[B C]",
		"rows=3", "width=2", "wall=", "in=[3 2]", "alg=hash", "agm≤6",
		"└─ ", "├─ ",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("ExplainAnalyze output missing %q:\n%s", want, out)
		}
	}
	if lines := strings.Count(out, "\n"); lines != 6 {
		t.Errorf("ExplainAnalyze rendered %d lines, want 6 (one per executed node):\n%s", lines, out)
	}
}

// TestExplainAnalyzeCacheHit: under a shared cache a re-analyzed query is
// served from the cache — the root span says cache=hit and has no
// children, because the subtree never executed.
func TestExplainAnalyzeCacheHit(t *testing.T) {
	e, db := chainQuery(t)
	ev := Evaluator{Cache: true, SharedCache: NewSubexprCache()}
	if _, err := ev.Eval(e, db); err != nil {
		t.Fatal(err)
	}
	out, err := ExplainAnalyzeWith(&ev, e, db)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "cache=hit") {
		t.Errorf("re-analyzed query not served from cache:\n%s", out)
	}
	if strings.Contains(out, "└─") {
		t.Errorf("cache-hit root should have no executed children:\n%s", out)
	}
	if ev.Collector != nil {
		t.Error("ExplainAnalyzeWith leaked its collector into the evaluator")
	}
}

func TestExplainAnalyzeError(t *testing.T) {
	e, db := chainQuery(t)
	ev := Evaluator{Limits: governor.Limits{MaxIntermediateRows: 1}}
	if _, err := ExplainAnalyzeWith(&ev, e, db); err == nil {
		t.Fatal("budget 1 should have failed ExplainAnalyze")
	}
}

// TestCacheCounters: the shared cache's hit/miss/invalidation counters.
func TestCacheCounters(t *testing.T) {
	e, db := chainQuery(t)
	cache := NewSubexprCache()
	ev := Evaluator{Cache: true, SharedCache: cache}
	if _, err := ev.Eval(e, db); err != nil {
		t.Fatal(err)
	}
	// Composite nodes: root projection, join, two legs = 4 distinct.
	if hits, misses, inval, entries := cache.Counters(); hits != 0 || misses != 4 || inval != 0 || entries != 4 {
		t.Fatalf("after first eval: hits=%d misses=%d invalidations=%d entries=%d, want 0/4/0/4",
			hits, misses, inval, entries)
	}
	if _, err := ev.Eval(e, db); err != nil {
		t.Fatal(err)
	}
	// The second eval is served at the root: one hit, nothing recomputed.
	if hits, misses, _, _ := cache.Counters(); hits != 1 || misses != 4 {
		t.Fatalf("after second eval: hits=%d misses=%d, want 1/4", hits, misses)
	}
	if dropped := cache.Reset(); dropped != 4 {
		t.Fatalf("Reset dropped %d entries, want 4", dropped)
	}
	if _, _, inval, entries := cache.Counters(); inval != 4 || entries != 0 {
		t.Fatalf("after Reset: invalidations=%d entries=%d, want 4/0", inval, entries)
	}
}

// TestComputeOnceCountersUnderParallelism is the compute-once regression
// test expressed through the observability counters: with a triplicated
// leg evaluated at parallelism 8, the metrics must show exactly one miss
// per distinct composite node and one hit per duplicate request —
// deterministically, because the per-call memo blocks duplicate
// requesters instead of racing them.
func TestComputeOnceCountersUnderParallelism(t *testing.T) {
	r := randomWideRel(t, 9, []string{"A", "B", "C"}, 400, 10)
	db := relation.Single("T", r)
	op := MustOperand("T", r.Scheme())
	leg := MustProject(relation.MustScheme("A", "B"), op)
	other := MustProject(relation.MustScheme("B", "C"), op)
	e := MustJoin(leg, other, leg, leg)

	for run := 0; run < 5; run++ {
		col := &obs.Collector{}
		ev := Evaluator{Parallelism: 8, Cache: true, Collector: col}
		if _, err := ev.Eval(e, db); err != nil {
			t.Fatal(err)
		}
		snap := col.Metrics.Snapshot()
		// Cached (composite) evaluations: join ×1, leg ×3, other ×1.
		// Distinct: 3 misses; the two duplicate leg requests must hit.
		if snap.CacheMisses != 3 || snap.CacheHits != 2 {
			t.Fatalf("run %d: cache hits=%d misses=%d, want 2/3 (leg recomputed?)",
				run, snap.CacheHits, snap.CacheMisses)
		}
	}
}
