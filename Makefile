GO ?= go

.PHONY: build test race bench wcoj-bench acyclic-bench obs-bench bench-diff fault-bench stress trace serve fmt lint perfbench-check ci

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# One iteration per benchmark: the same smoke run CI performs. For real
# measurements raise -benchtime and pin -cpu.
bench:
	$(GO) test -bench=. -benchtime=1x -run='^$$' ./...

# Regenerate BENCH_wcoj.txt: the greedy-vs-wcoj comparison on the
# Lemma 1 blow-up families, with the per-configuration peak_rows and
# agm_bound metrics that show the intermediate collapse. CI uploads the
# file as an artifact.
wcoj-bench:
	{ \
	  echo "Worst-case-optimal generic join vs greedy binary plan (ISSUE 4)"; \
	  echo "================================================================"; \
	  echo; \
	  echo "Regenerate with: make wcoj-bench"; \
	  echo "peak_rows is the largest join cardinality any node materialized"; \
	  echo "(trace MaxIntermediate/OutputRows); agm_bound is the root join"; \
	  echo "node's AGM bound. The wcoj/auto rows must keep peak_rows at or"; \
	  echo "below the final output — never the greedy plan's blow-up."; \
	  echo; \
	  $(GO) test -run '^$$' -bench 'WCOJLemma1|GenericJoinDirect' -benchtime 10x -count 1 -benchmem .; \
	} | tee BENCH_wcoj.txt

# Regenerate BENCH_acyclic.txt: the greedy-vs-yannakakis comparison on
# the acyclic blow-up families (path, star, snowflake), with the same
# peak_rows/agm_bound metrics. CI uploads the file as an artifact and
# gates on regressions via cmd/benchdiff.
acyclic-bench:
	{ \
	  echo "Yannakakis full reducer vs greedy binary plan (ISSUE 6)"; \
	  echo "======================================================="; \
	  echo; \
	  echo "Regenerate with: make acyclic-bench"; \
	  echo "peak_rows is the largest join cardinality any node materialized"; \
	  echo "(trace MaxIntermediate/OutputRows); agm_bound is the root join"; \
	  echo "node's AGM bound. The yannakakis/auto rows must keep peak_rows"; \
	  echo "at or below output + largest input — never the greedy blow-up."; \
	  echo; \
	  $(GO) test -run '^$$' -bench 'AcyclicYannakakis|FullReducerDirect' -benchtime 10x -count 1 -benchmem .; \
	} | tee BENCH_acyclic.txt

# Regenerate BENCH_obs.txt: the observability layer's cost on the E9
# gadget families — the nil-collector fast path (sequential/parallel
# configs), tracing (-traced), and the process-wide telemetry registry
# publish (-registry, ISSUE 8). The zero-overhead contract says the
# untraced configurations must stay at the engine's raw speed; the
# registry variant bounds the per-evaluation cost of feeding /metrics.
obs-bench:
	{ \
	  echo "Observability overhead on the E9 families (ISSUE 3 / ISSUE 8 acceptance)"; \
	  echo "========================================================================"; \
	  echo; \
	  echo "Regenerate with: make obs-bench"; \
	  echo "sequential/parallel-* run with no Collector (the production"; \
	  echo "fast path); *-traced attach a fresh obs.Collector per eval;"; \
	  echo "parallel-8-registry additionally publishes every evaluation"; \
	  echo "into a process-wide obs.Registry (histograms + trace ring),"; \
	  echo "the path behind the telemetry server's /metrics endpoint."; \
	  echo; \
	  echo "RegistryObserveTraceRing is the steady-state cost of publishing"; \
	  echo "one trace into a full ring: the circular buffer (ISSUE 9) keeps"; \
	  echo "it O(1)/0 B regardless of capacity, where the old slice-trim"; \
	  echo "reallocated and copied the whole ring per eviction (1.1us/768B"; \
	  echo "at cap 32 up to 43.6us/82KB at cap 4096 before the fix)."; \
	  echo; \
	  $(GO) test -run '^$$' -bench 'E9ParallelEval' -benchtime 10x -count 1 -benchmem .; \
	  $(GO) test -run '^$$' -bench 'RegistryObserveTraceRing' -count 1 -benchmem ./internal/obs/; \
	} | tee BENCH_obs.txt

# Compare freshly-generated bench output against the committed baselines.
# peak_rows gates the join-strategy files at >20% (deterministic row
# counts); ns/op gates the obs/fault overhead files at >200% — wall time
# is machine-noisy, so the gate only catches contract-breaking changes
# (a lock or allocation on a nil fast path is a 10x+ jump, not 3x). This
# is the check the CI bench-regression job runs.
bench-diff:
	cp BENCH_wcoj.txt /tmp/bench_wcoj_base.txt
	cp BENCH_acyclic.txt /tmp/bench_acyclic_base.txt
	cp BENCH_obs.txt /tmp/bench_obs_base.txt
	cp BENCH_fault.txt /tmp/bench_fault_base.txt
	$(MAKE) wcoj-bench acyclic-bench obs-bench fault-bench
	$(GO) run ./cmd/benchdiff -metric peak_rows -max-regress 20 -report agm_bound /tmp/bench_wcoj_base.txt BENCH_wcoj.txt
	$(GO) run ./cmd/benchdiff -metric peak_rows -max-regress 20 -report agm_bound /tmp/bench_acyclic_base.txt BENCH_acyclic.txt
	$(GO) run ./cmd/benchdiff -metric ns/op -max-regress 200 /tmp/bench_obs_base.txt BENCH_obs.txt
	$(GO) run ./cmd/benchdiff -metric ns/op -max-regress 200 /tmp/bench_fault_base.txt BENCH_fault.txt

# Fault-injection stress matrix, race-enabled: the governor and fault
# harness suites in full, then every injected failure path — cancel
# mid-join, worker panic and drain, sticky-failure broadcast, graceful
# degradation, admission rejection, deadline kill — across all four
# join strategies, the three SAT solvers, and the xorchain2 Lemma 1
# acceptance gadget. CI runs this as its own job; `make stress`
# reproduces it locally.
stress:
	$(GO) test -race -count=1 ./internal/fault/ ./internal/governor/
	$(GO) test -race -count=1 \
	  -run 'Cancel|Panic|Degrad|Drain|Governor|Admission|Deadline|XorChain2|SolveContext|Satisfiable|Interrupted' \
	  ./internal/algebra/ ./internal/join/ ./internal/sat/ .

# Regenerate BENCH_fault.txt: the cost of a compiled-in injection site
# when no script is registered (the production configuration — must be
# indistinguishable from a nil check) and when a script is registered
# but no rule matches the point. Recorded alongside BENCH_obs.txt as
# the ISSUE 7 zero-overhead acceptance artifact.
fault-bench:
	{ \
	  echo "Fault-injection site overhead (ISSUE 7 acceptance check)"; \
	  echo "========================================================"; \
	  echo; \
	  echo "Regenerate with: make fault-bench"; \
	  echo "HitDisabled is the production path: no injector registered,"; \
	  echo "fault.Hit is one atomic load + nil check. HitEnabledNoMatch"; \
	  echo "is a registered script whose rules target a different point."; \
	  echo; \
	  $(GO) test -run '^$$' -bench 'HitDisabled|HitEnabledNoMatch' -count 3 -benchmem ./internal/fault/; \
	} | tee BENCH_fault.txt

# Run relqueryd locally with the example two-tenant configuration:
# acme's budget admits the example chain join, free's rejects it with
# 429 + the predicted-peak numbers. See examples/relqueryd/README.md
# for the curl session.
serve:
	$(GO) run ./cmd/relqueryd -addr :8080 \
	  -tenant acme:budget=10k,timeout=30s \
	  -tenant free:budget=500 \
	  -load acme=examples/relqueryd/catalog.rel \
	  -load free=examples/relqueryd/catalog.rel

# Run the E7 blow-up experiment with tracing on, leaving the JSON
# evaluation trace (span tree + metrics) in trace_e7.json — the same
# artifact the CI trace job uploads.
trace:
	$(GO) run ./cmd/experiments -run E7 -quick -trace trace_e7.json

fmt:
	@out=$$(gofmt -l .); \
	if [ -n "$$out" ]; then \
		echo "files need gofmt:" >&2; \
		echo "$$out" >&2; \
		exit 1; \
	fi

# The full static-analysis gate: go vet, staticcheck (when installed —
# CI always installs it; locally the step is skipped with a notice so
# the target works offline), and relquery's own analyzer suite
# (cmd/relquerylint), run against the committed baseline ratchet: new
# findings fail, baselined findings warn, stale baseline entries fail
# until the baseline is regenerated (it can only shrink).
lint:
	$(GO) vet ./...
	@if command -v staticcheck >/dev/null 2>&1; then \
		staticcheck ./...; \
	else \
		echo "staticcheck not installed; skipping (CI runs it)"; \
	fi
	$(GO) run ./cmd/relquerylint -baseline lint.baseline ./...

# Vet and test the benchmark module. perfbench/ is its own Go module
# (perfbench/go.mod, replacing relquery with this checkout), so the
# root ./... never compiles it: without this target an engine API
# change could break the benchmark unnoticed. Its self-test asserts a
# zero error rate and the exact 429 count.
perfbench-check:
	cd perfbench && $(GO) vet ./... && $(GO) test ./...

# Everything the CI workflow gates on, runnable locally before a push.
ci: build fmt lint test race stress bench perfbench-check
