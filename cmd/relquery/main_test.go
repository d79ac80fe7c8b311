package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"relquery/internal/obs"
)

func writeFile(t *testing.T, name, content string) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), name)
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

const testDB = `
relation T
A B C
1 x p
2 x q
2 y q
end
`

func TestRunEvaluatesQuery(t *testing.T) {
	db := writeFile(t, "db.rel", testDB)
	for _, engine := range []string{"materialize", "tableau"} {
		err := run([]string{"-db", db, "-query", "pi[A C](pi[A B](T) * pi[B C](T))", "-engine", engine, "-count"})
		if err != nil {
			t.Errorf("engine %s: %v", engine, err)
		}
	}
}

func TestRunQueryFile(t *testing.T) {
	db := writeFile(t, "db.rel", testDB)
	qf := writeFile(t, "q.txt", "pi[A](T)\n")
	if err := run([]string{"-db", db, "-query-file", qf}); err != nil {
		t.Error(err)
	}
}

func TestRunJoinAlgorithmsAndOrders(t *testing.T) {
	db := writeFile(t, "db.rel", testDB)
	for _, alg := range []string{"hash", "sortmerge", "nestedloop", "yannakakis", "auto"} {
		for _, order := range []string{"greedy", "sequential"} {
			err := run([]string{"-db", db, "-query", "pi[A B](T) * pi[B C](T)",
				"-join", alg, "-order", order, "-stats", "-count"})
			if err != nil {
				t.Errorf("%s/%s: %v", alg, order, err)
			}
		}
	}
}

// TestRunUnknownJoinListsStrategies: a bogus -join value must fail with
// an error naming every valid strategy, including the auto selector.
func TestRunUnknownJoinListsStrategies(t *testing.T) {
	db := writeFile(t, "db.rel", testDB)
	err := run([]string{"-db", db, "-query", "T", "-join", "bogus"})
	if err == nil {
		t.Fatal("unknown -join strategy accepted")
	}
	for _, want := range []string{"bogus", "hash", "wcoj", "yannakakis", "auto"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("-join error %q does not mention %q", err, want)
		}
	}
}

func TestRunBudget(t *testing.T) {
	db := writeFile(t, "db.rel", testDB)
	// Budget of 1 tuple must trip on this query.
	err := run([]string{"-db", db, "-query", "pi[A B](T) * pi[B C](T)", "-budget", "1"})
	if err == nil {
		t.Error("budget violation not reported")
	}
}

// TestRunAdmitHint checks an admission rejection points at the CLI's
// override flag.
func TestRunAdmitHint(t *testing.T) {
	db := writeFile(t, "db.rel", testDB)
	err := run([]string{"-db", db, "-query", "pi[A B](T) * pi[B C](T)", "-budget", "3", "-admit"})
	if err == nil || !strings.Contains(err.Error(), "override with -admit=false") {
		t.Errorf("admission error %v carries no -admit hint", err)
	}
}

func TestRunErrors(t *testing.T) {
	db := writeFile(t, "db.rel", testDB)
	cases := [][]string{
		{},          // no db
		{"-db", db}, // no query
		{"-db", db, "-query", "a", "-query-file", "b"}, // both
		{"-db", db, "-query", "Z"},                     // unknown operand
		{"-db", db, "-query", "T", "-engine", "bogus"},
		{"-db", db, "-query", "T", "-join", "bogus"},
		{"-db", db, "-query", "T", "-order", "bogus"},
		{"-db", "/does/not/exist", "-query", "T"},
		{"-db", db, "-query", "T", "-parallel", "-1"},
		{"-db", db, "-query", "T", "-engine", "tableau", "-explain-analyze"},
		{"-db", db, "-query", "T", "-engine", "tableau", "-metrics"},
		{"-db", db, "-query", "T", "-engine", "tableau", "-trace", "-"},
	}
	for i, args := range cases {
		if err := run(args); err == nil {
			t.Errorf("case %d (%v): no error", i, args)
		}
	}
}

func TestRunExplain(t *testing.T) {
	db := writeFile(t, "db.rel", testDB)
	if err := run([]string{"-db", db, "-query", "pi[A](pi[A B](T) * pi[B C](T))", "-explain"}); err != nil {
		t.Error(err)
	}
}

func TestRunOptimize(t *testing.T) {
	db := writeFile(t, "db.rel", testDB)
	if err := run([]string{"-db", db, "-query", "pi[A](pi[A B](T) * pi[B C](T))", "-optimize", "-stats", "-count"}); err != nil {
		t.Error(err)
	}
}

func TestRunExplainAnalyze(t *testing.T) {
	db := writeFile(t, "db.rel", testDB)
	if err := run([]string{"-db", db, "-query", "pi[A](pi[A B](T) * pi[B C](T))", "-explain-analyze"}); err != nil {
		t.Error(err)
	}
	// The parallel engine and caching must trace too.
	if err := run([]string{"-db", db, "-query", "pi[A B](T) * pi[B C](T)",
		"-parallel", "4", "-cache", "-explain-analyze"}); err != nil {
		t.Error(err)
	}
}

func TestRunTraceEmitsValidJSON(t *testing.T) {
	db := writeFile(t, "db.rel", testDB)
	tracePath := filepath.Join(t.TempDir(), "trace.json")
	if err := run([]string{"-db", db, "-query", "pi[A C](pi[A B](T) * pi[B C](T))",
		"-trace", tracePath, "-metrics", "-count"}); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(tracePath)
	if err != nil {
		t.Fatal(err)
	}
	var tr obs.Trace
	if err := json.Unmarshal(data, &tr); err != nil {
		t.Fatalf("-trace output is not valid JSON: %v\n%s", err, data)
	}
	root := tr.Root()
	if root == nil {
		t.Fatal("-trace output has no root span")
	}
	if root.Op != obs.OpProject || root.OutputRows == 0 {
		t.Errorf("root span = op=%s rows=%d, want a project with rows", root.Op, root.OutputRows)
	}
	if tr.Metrics.Joins == 0 {
		t.Error("-trace metrics recorded no joins")
	}
}

// TestRunTraceOnBudgetAbort: the trace file is written even when
// evaluation aborts, with the error recorded on a span.
func TestRunTraceOnBudgetAbort(t *testing.T) {
	db := writeFile(t, "db.rel", testDB)
	tracePath := filepath.Join(t.TempDir(), "trace.json")
	if err := run([]string{"-db", db, "-query", "pi[A B](T) * pi[B C](T)",
		"-budget", "1", "-trace", tracePath}); err == nil {
		t.Fatal("budget violation not reported")
	}
	data, err := os.ReadFile(tracePath)
	if err != nil {
		t.Fatalf("no trace written on budget abort: %v", err)
	}
	var tr obs.Trace
	if err := json.Unmarshal(data, &tr); err != nil {
		t.Fatalf("abort trace is not valid JSON: %v", err)
	}
	if root := tr.Root(); root == nil || root.Err == "" {
		t.Errorf("abort trace root should carry the error, got %+v", root)
	}
}

func TestRunPprofWritesProfiles(t *testing.T) {
	db := writeFile(t, "db.rel", testDB)
	prefix := filepath.Join(t.TempDir(), "rq")
	if err := run([]string{"-db", db, "-query", "pi[A B](T) * pi[B C](T)",
		"-pprof", prefix, "-count"}); err != nil {
		t.Fatal(err)
	}
	for _, suffix := range []string{".cpu.pprof", ".mem.pprof"} {
		info, err := os.Stat(prefix + suffix)
		if err != nil {
			t.Errorf("profile %s not written: %v", suffix, err)
		} else if info.Size() == 0 {
			t.Errorf("profile %s is empty", suffix)
		}
	}
}

func TestRunContains(t *testing.T) {
	db := writeFile(t, "db.rel", testDB)
	if err := run([]string{"-db", db, "-query", "pi[A B](T)", "-contains", "1 x"}); err != nil {
		t.Error(err)
	}
	// Wrong arity.
	if err := run([]string{"-db", db, "-query", "pi[A B](T)", "-contains", "1"}); err == nil {
		t.Error("arity mismatch accepted")
	}
}

func TestRunTraceFormatChrome(t *testing.T) {
	db := writeFile(t, "db.rel", testDB)
	tracePath := filepath.Join(t.TempDir(), "trace.chrome.json")
	if err := run([]string{"-db", db, "-query", "pi[A C](pi[A B](T) * pi[B C](T))",
		"-trace", tracePath, "-trace-format", "chrome", "-count"}); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(tracePath)
	if err != nil {
		t.Fatal(err)
	}
	var decoded struct {
		TraceEvents []struct {
			Ph string `json:"ph"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(data, &decoded); err != nil {
		t.Fatalf("-trace-format=chrome output is not valid JSON: %v\n%s", err, data)
	}
	if len(decoded.TraceEvents) == 0 {
		t.Fatal("chrome trace has no events")
	}
	var complete int
	for _, ev := range decoded.TraceEvents {
		if ev.Ph == "X" {
			complete++
		}
	}
	if complete == 0 {
		t.Error("chrome trace has no complete (X) events")
	}
}

func TestRunServe(t *testing.T) {
	db := writeFile(t, "db.rel", testDB)
	// Port 0 picks a free port; the run exercises the registry publish
	// and server lifecycle without an external scraper.
	if err := run([]string{"-db", db, "-query", "pi[A B](T) * pi[B C](T)",
		"-serve", "127.0.0.1:0", "-count"}); err != nil {
		t.Fatal(err)
	}
}

func TestRunTelemetryFlagErrors(t *testing.T) {
	db := writeFile(t, "db.rel", testDB)
	cases := [][]string{
		{"-db", db, "-query", "T", "-trace", "-", "-trace-format", "bogus"},
		{"-db", db, "-query", "T", "-engine", "tableau", "-serve", "127.0.0.1:0"},
		{"-db", db, "-query", "T", "-serve-linger", "1s"}, // linger without serve
		{"-db", db, "-query", "T", "-serve", "127.0.0.1:0", "-serve-linger", "-1s"},
	}
	for i, args := range cases {
		if err := run(args); err == nil {
			t.Errorf("case %d (%v): no error", i, args)
		}
	}
}
