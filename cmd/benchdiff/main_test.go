package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

const baseBench = `
Some header line
BenchmarkAcyclicYannakakis/path/greedy-8         10   180668 ns/op   289.0 agm_bound   257.0 peak_rows   97477 B/op   1848 allocs/op
BenchmarkAcyclicYannakakis/path/auto-8           10    38666 ns/op   289.0 agm_bound    17.00 peak_rows  29229 B/op    613 allocs/op
PASS
ok   relquery  0.024s
`

func writeBench(t *testing.T, name, content string) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), name)
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestParseLine(t *testing.T) {
	name, metrics, ok := parseLine("BenchmarkX/a/b-16 \t 10 \t 123 ns/op \t 289.0 agm_bound \t 257.0 peak_rows")
	if !ok {
		t.Fatal("benchmark line not recognized")
	}
	if name != "BenchmarkX/a/b-16" {
		t.Errorf("name = %q, want the name as printed", name)
	}
	if metrics["peak_rows"] != 257 || metrics["agm_bound"] != 289 || metrics["ns/op"] != 123 {
		t.Errorf("metrics = %v", metrics)
	}
	for _, bad := range []string{"", "PASS", "ok   relquery  0.024s", "goos: linux", "peak_rows is the largest"} {
		if _, _, ok := parseLine(bad); ok {
			t.Errorf("non-benchmark line %q parsed", bad)
		}
	}
}

// TestParseFileSuffixes covers both shapes of go test output: at
// GOMAXPROCS=N > 1 every name carries the same "-N", which is stripped;
// at GOMAXPROCS=1 there is no suffix, so a name's own trailing number
// (parallel-1, parallel-8) is kept.
func TestParseFileSuffixes(t *testing.T) {
	const gomaxprocs1 = `
BenchmarkE9ParallelEval/xorchain2/sequential    10  13206587 ns/op  74548 allocs/op
BenchmarkE9ParallelEval/xorchain2/parallel-1    10  13124424 ns/op  74548 allocs/op
BenchmarkE9ParallelEval/xorchain2/parallel-8    10  12547665 ns/op  51273 allocs/op
`
	cases := []struct {
		name, content string
		want          []string
	}{
		{"gomaxprocs-8", baseBench, []string{"BenchmarkAcyclicYannakakis/path/auto", "BenchmarkAcyclicYannakakis/path/greedy"}},
		{"gomaxprocs-1", gomaxprocs1, []string{
			"BenchmarkE9ParallelEval/xorchain2/parallel-1",
			"BenchmarkE9ParallelEval/xorchain2/parallel-8",
			"BenchmarkE9ParallelEval/xorchain2/sequential",
		}},
		{"gomaxprocs-2 of the same", strings.ReplaceAll(gomaxprocs1, "    10", "-2  10"), []string{
			"BenchmarkE9ParallelEval/xorchain2/parallel-1",
			"BenchmarkE9ParallelEval/xorchain2/parallel-8",
			"BenchmarkE9ParallelEval/xorchain2/sequential",
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			got, err := parseFile(writeBench(t, "bench.txt", tc.content))
			if err != nil {
				t.Fatal(err)
			}
			if names := sortedNames(got); strings.Join(names, " ") != strings.Join(tc.want, " ") {
				t.Errorf("names = %v, want %v", names, tc.want)
			}
		})
	}
}

func TestRunNoRegression(t *testing.T) {
	base := writeBench(t, "base.txt", baseBench)
	// Within 20%: 257 → 300 is +16.7%.
	cur := writeBench(t, "cur.txt", strings.Replace(baseBench, "257.0 peak_rows", "300.0 peak_rows", 1))
	var out bytes.Buffer
	if err := run([]string{"-metric", "peak_rows", "-max-regress", "20", base, cur}, &out); err != nil {
		t.Fatalf("within-threshold diff failed: %v\n%s", err, out.String())
	}
	if !strings.Contains(out.String(), "no peak_rows regression") {
		t.Errorf("missing summary line:\n%s", out.String())
	}
}

func TestRunRegression(t *testing.T) {
	base := writeBench(t, "base.txt", baseBench)
	// 17 → 100 blows the 20% budget on the auto config.
	cur := writeBench(t, "cur.txt", strings.Replace(baseBench, "17.00 peak_rows", "100.0 peak_rows", 1))
	var out bytes.Buffer
	err := run([]string{"-metric", "peak_rows", "-max-regress", "20", "-report", "agm_bound", base, cur}, &out)
	if err == nil {
		t.Fatalf("regression not detected:\n%s", out.String())
	}
	if !strings.Contains(err.Error(), "path/auto") {
		t.Errorf("error %q does not name the regressed benchmark", err)
	}
	if !strings.Contains(out.String(), "REGRESSED") || !strings.Contains(out.String(), "agm_bound=289") {
		t.Errorf("diff output:\n%s", out.String())
	}
}

func TestRunMissingBenchmark(t *testing.T) {
	base := writeBench(t, "base.txt", baseBench)
	lines := strings.Split(baseBench, "\n")
	var kept []string
	for _, l := range lines {
		if !strings.Contains(l, "path/auto") {
			kept = append(kept, l)
		}
	}
	cur := writeBench(t, "cur.txt", strings.Join(kept, "\n"))
	var out bytes.Buffer
	err := run([]string{base, cur}, &out)
	if err == nil || !strings.Contains(err.Error(), "missing") {
		t.Fatalf("dropped benchmark not reported: %v", err)
	}
}

func TestRunNewBenchmarkAllowed(t *testing.T) {
	base := writeBench(t, "base.txt", baseBench)
	cur := writeBench(t, "cur.txt", baseBench+
		"BenchmarkAcyclicYannakakis/star/auto-8 10 1 ns/op 5.0 peak_rows\n")
	var out bytes.Buffer
	if err := run([]string{base, cur}, &out); err != nil {
		t.Fatalf("new benchmark rejected: %v", err)
	}
	if !strings.Contains(out.String(), "new benchmark") {
		t.Errorf("new benchmark not announced:\n%s", out.String())
	}
}

func TestRunUsageErrors(t *testing.T) {
	base := writeBench(t, "base.txt", baseBench)
	empty := writeBench(t, "empty.txt", "PASS\n")
	var out bytes.Buffer
	cases := [][]string{
		{},
		{base},
		{"-max-regress", "-1", base, base},
		{empty, base}, // base holds no benchmark lines
		{filepath.Join(t.TempDir(), "absent.txt"), base},
	}
	for i, args := range cases {
		if err := run(args, &out); err == nil {
			t.Errorf("case %d (%v): no error", i, args)
		}
	}
}
