// Command relquery evaluates a project–join expression against relations
// loaded from a text file.
//
// Usage:
//
//	relquery -db data.rel -query 'pi[A C](pi[A B](T) * pi[B C](T))'
//
// The database file holds "relation <name> ... end" blocks (see package
// relation's codec). The query references relations by name; the engine
// flag selects the materializing evaluator (with pluggable join algorithm
// and order) or the space-bounded tableau engine.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/pprof"
	"strings"
	"time"

	"relquery/internal/algebra"
	"relquery/internal/governor"
	"relquery/internal/join"
	"relquery/internal/obs"
	"relquery/internal/relation"
	"relquery/internal/tableau"
	"relquery/internal/telemetry"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "relquery:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("relquery", flag.ContinueOnError)
	var (
		dbPath    = fs.String("db", "", "path to the relations file (required)")
		query     = fs.String("query", "", "project-join expression, e.g. 'pi[A B](T) * pi[B C](T)'")
		queryFile = fs.String("query-file", "", "read the expression from a file instead")
		engine    = fs.String("engine", "materialize", "evaluation engine: materialize or tableau")
		algName   = fs.String("join", "hash", "join strategy for the materializing engine: "+strings.Join(join.StrategyNames(), ", ")+"; auto routes acyclic n-ary joins to yannakakis, blow-up-prone cyclic ones to wcoj, the rest to the binary default")
		orderName = fs.String("order", "greedy", "join order for the materializing engine: greedy or sequential")
		budget    = fs.Int("budget", 0, "abort if any intermediate relation exceeds this many tuples (0 = unlimited)")
		stats     = fs.Bool("stats", false, "print evaluation statistics to stderr")
		countOnly = fs.Bool("count", false, "print only the result cardinality")
		parallel  = fs.Int("parallel", 0, "worker count for the materializing engine: >1 evaluates join subtrees concurrently and uses the partitioned parallel hash join (unless -join is set explicitly); <=1 is sequential")
		cache     = fs.Bool("cache", false, "memoize repeated subexpressions (keyed by expression text and relation fingerprint)")
		optimize  = fs.Bool("optimize", false, "rewrite the expression (projection pushdown etc.) before evaluating")
		explain   = fs.Bool("explain", false, "print the operator tree with actual cardinalities instead of the result")
		analyze   = fs.Bool("explain-analyze", false, "evaluate once and print the executed operator tree annotated with observed stats and AGM bounds instead of the result")
		tracePath = fs.String("trace", "", "write a JSON evaluation trace (span tree + metrics) to this file, or \"-\" for stdout")
		metrics   = fs.Bool("metrics", false, "print per-evaluation metrics (tuple traffic, partitions, cache counters) to stderr")
		pprofPre  = fs.String("pprof", "", "capture profiles around evaluation into <prefix>.cpu.pprof and <prefix>.mem.pprof")
		contains  = fs.String("contains", "", "instead of evaluating, test whether this whitespace-separated tuple (in target-scheme order) is in the result")
		timeout   = fs.String("timeout", "", "wall-clock deadline for the materializing engine, as a duration (250ms, 2s, 1m30s) or seconds; empty or 0 = none")
		maxRows   = fs.String("max-rows", "", "abort when the final result exceeds this many rows (optional k/m/g suffix; 0 = unlimited)")
		admit     = fs.Bool("admit", false, "pre-flight admission control: reject a join whose predicted peak intermediate exceeds -budget instead of running it (output-bounded strategies are always admitted)")
		degrade   = fs.Bool("degrade", false, "graceful degradation: retry a failed wcoj/yannakakis join node once on the greedy binary path")
		serveAddr = fs.String("serve", "", "serve telemetry over HTTP on this address (host:port) for the duration of the run: /metrics (Prometheus text), /debug/pprof/, /debug/traces (Chrome trace-event JSON)")
		linger    = fs.Duration("serve-linger", 0, "keep the -serve endpoints up this long after evaluation finishes, so the final state can be scraped or loaded in Perfetto")
		traceFmt  = fs.String("trace-format", "json", "format for -trace output: json (span tree + metrics) or chrome (trace-event JSON loadable in Perfetto or chrome://tracing)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *dbPath == "" {
		return usageError(fs, "-db is required")
	}
	if (*query == "") == (*queryFile == "") {
		return usageError(fs, "exactly one of -query or -query-file is required")
	}
	// Validate engine knobs up front: a bad flag should fail with a usage
	// message before any file is read, not as a late engine error.
	if *parallel < 0 {
		return usageError(fs, "-parallel must be a non-negative worker count, got %d", *parallel)
	}
	// -join=auto keeps the default binary algorithm but turns on the
	// evaluator's three-way selector per n-ary join node: α-acyclic nodes
	// run Yannakakis' full reducer, cyclic nodes whose binary plan's
	// estimated peak intermediate exceeds the AGM bound run the
	// worst-case-optimal generic join, and the rest keep the binary plan.
	auto := *algName == "auto"
	var alg join.Algorithm
	if !auto {
		var err error
		alg, err = join.ByName(*algName)
		if err != nil {
			return usageError(fs, "-join: unknown strategy %q (valid strategies: %s)", *algName, strings.Join(join.StrategyNames(), ", "))
		}
	}
	order, err := join.OrderByName(*orderName)
	if err != nil {
		return usageError(fs, "-order: unknown order %q (want greedy or sequential)", *orderName)
	}
	if *engine != "materialize" && *engine != "tableau" {
		return usageError(fs, "-engine: unknown engine %q (want materialize or tableau)", *engine)
	}
	if *engine == "tableau" && (*analyze || *tracePath != "" || *metrics || *serveAddr != "") {
		return usageError(fs, "-explain-analyze, -trace, -metrics and -serve require -engine materialize")
	}
	if *traceFmt != "json" && *traceFmt != "chrome" {
		return usageError(fs, "-trace-format: unknown format %q (want json or chrome)", *traceFmt)
	}
	if *linger < 0 {
		return usageError(fs, "-serve-linger must be non-negative, got %v", *linger)
	}
	if *linger > 0 && *serveAddr == "" {
		return usageError(fs, "-serve-linger requires -serve")
	}
	if *engine == "tableau" && (*timeout != "" || *maxRows != "" || *admit || *degrade) {
		return usageError(fs, "-timeout, -max-rows, -admit and -degrade require -engine materialize")
	}
	limits, err := governor.ParseLimits(*timeout, *maxRows, 0, 0)
	if err != nil {
		return usageError(fs, "%v", err)
	}
	limits.MaxIntermediateRows = *budget
	src := *query
	if *queryFile != "" {
		data, err := os.ReadFile(*queryFile)
		if err != nil {
			return err
		}
		src = strings.TrimSpace(string(data))
	}

	f, err := os.Open(*dbPath)
	if err != nil {
		return err
	}
	defer f.Close()
	db, err := relation.ReadDatabase(f)
	if err != nil {
		return err
	}

	expr, err := algebra.ParseForDatabase(src, db)
	if err != nil {
		return err
	}
	if *optimize {
		rewritten, err := algebra.Optimize(expr)
		if err != nil {
			return err
		}
		if *stats {
			fmt.Fprintf(os.Stderr, "optimized: %s\n", rewritten)
		}
		expr = rewritten
	}

	ev := algebra.Evaluator{Algorithm: alg, Order: order, AutoWCOJ: auto, AutoYannakakis: auto, Limits: limits, Admit: *admit, Degrade: *degrade}
	if *explain {
		plan, err := algebra.ExplainWith(&ev, expr, db)
		if err != nil {
			return err
		}
		fmt.Print(plan)
		return nil
	}

	if *contains != "" {
		vals := strings.Fields(*contains)
		target := expr.Scheme()
		if len(vals) != target.Len() {
			return fmt.Errorf("-contains: %d values for target scheme %v (arity %d)", len(vals), target, target.Len())
		}
		tb, err := tableau.New(expr)
		if err != nil {
			return err
		}
		nt := relation.NamedTuple{Scheme: target, Vals: relation.TupleOf(vals...)}
		// -timeout governs the membership search too: the valuation tree
		// is exponential in the worst case, so it polls at node
		// granularity like every other engine.
		ok, err := tb.MemberGov(nt, db, governor.New(context.Background(), limits))
		if err != nil {
			return err
		}
		fmt.Printf("member(%v in %v): %v\n", nt, expr, ok)
		return nil
	}

	var result *relation.Relation
	switch *engine {
	case "materialize":
		ev.Parallelism, ev.Cache = *parallel, *cache
		// When the parallel engine is on and -join was left at its
		// default, let the evaluator pick the partitioned parallel hash
		// join; an explicit -join always wins.
		joinFlagSet := false
		fs.Visit(func(f *flag.Flag) {
			if f.Name == "join" {
				joinFlagSet = true
			}
		})
		if ev.Parallelism > 1 && !joinFlagSet {
			ev.Algorithm = nil
		}
		// Attach a collector only when some observability output was
		// requested: a nil collector keeps the engine on its
		// zero-overhead fast path. -serve implies one — the telemetry
		// endpoints are only interesting with metrics and traces behind
		// them.
		var collector *obs.Collector
		if *analyze || *tracePath != "" || *metrics || *stats || *serveAddr != "" {
			collector = &obs.Collector{}
		}
		ev.Collector = collector
		if *serveAddr != "" {
			ev.Registry = obs.NewRegistry()
			srv, err := telemetry.Start(*serveAddr, ev.Registry)
			if err != nil {
				return fmt.Errorf("-serve: %w", err)
			}
			fmt.Fprintf(os.Stderr, "telemetry: serving http://%s/metrics\n", srv.Addr())
			defer srv.Close()
			// Lingering runs before the deferred Close (LIFO), on success
			// and error paths alike — a governor kill is exactly when the
			// endpoints are worth a look.
			defer func() {
				if *linger > 0 {
					fmt.Fprintf(os.Stderr, "telemetry: lingering %s before shutdown\n", *linger)
					time.Sleep(*linger)
				}
			}()
		}
		stopProfiles, err := startProfiles(*pprofPre)
		if err != nil {
			return err
		}
		result, err = ev.Eval(expr, db)
		if perr := stopProfiles(); perr != nil && err == nil {
			err = perr
		}
		// The trace is worth emitting even when evaluation aborts (a
		// budget abort's partial spans show where the blow-up happened).
		if *tracePath != "" {
			if terr := writeTrace(*tracePath, *traceFmt, collector.Trace()); terr != nil && err == nil {
				err = terr
			}
		}
		if *metrics {
			fmt.Fprintln(os.Stderr, collector.Metrics.Snapshot().String())
		}
		if errors.Is(err, governor.ErrAdmission) {
			err = fmt.Errorf("%w (reject before running; override with -admit=false)", err)
		}
		if err != nil {
			// A governor kill still has a story to tell: render the spans
			// executed up to the abort, error annotations included, so the
			// user sees where the budget died.
			if *analyze {
				if t := governor.TraceOf(err); t != nil {
					fmt.Print(algebra.RenderTrace(t))
				}
			}
			return err
		}
		if *stats {
			snap := collector.Metrics.Snapshot()
			fmt.Fprintf(os.Stderr, "engine=materialize join=%s order=%s parallel=%d cache=%v joins=%d max_intermediate=%d intermediate_tuples=%d\n",
				ev.AlgorithmName(), order, ev.Parallelism, ev.Cache,
				snap.Joins, snap.MaxIntermediate, snap.IntermediateTuples)
		}
		if *analyze {
			fmt.Print(algebra.RenderTrace(collector.Trace()))
			return nil
		}
	case "tableau":
		tb, err := tableau.New(expr)
		if err != nil {
			return err
		}
		stopProfiles, err := startProfiles(*pprofPre)
		if err != nil {
			return err
		}
		result, err = tb.Eval(db)
		if perr := stopProfiles(); perr != nil && err == nil {
			err = perr
		}
		if err != nil {
			return err
		}
		if *stats {
			fmt.Fprintf(os.Stderr, "engine=tableau rows=%d vars=%d\n", len(tb.Rows), len(tb.Vars()))
		}
	}

	if *countOnly {
		fmt.Println(result.Len())
		return nil
	}
	fmt.Printf("# %s\n# %d tuples over %v\n", expr, result.Len(), result.Scheme())
	fmt.Print(relation.RenderSorted(result))
	return nil
}

// usageError prints the flag set's usage to its output and returns the
// formatted error, so bad flag values fail fast with guidance instead of
// surfacing as late engine errors.
func usageError(fs *flag.FlagSet, format string, args ...any) error {
	fs.Usage()
	return fmt.Errorf(format, args...)
}

// writeTrace writes the trace to path ("-" for stdout) in the requested
// format: the native JSON span tree, or Chrome trace-event JSON.
func writeTrace(path, format string, t *obs.Trace) error {
	write := t.WriteJSON
	if format == "chrome" {
		write = func(w io.Writer) error {
			return telemetry.WriteChromeTrace(w, []*obs.Trace{t})
		}
	}
	if path == "-" {
		return write(os.Stdout)
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := write(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// startProfiles begins CPU profiling and returns a stop function that
// finishes the CPU profile and captures a heap profile. With an empty
// prefix both are no-ops.
func startProfiles(prefix string) (func() error, error) {
	if prefix == "" {
		return func() error { return nil }, nil
	}
	cf, err := os.Create(prefix + ".cpu.pprof")
	if err != nil {
		return nil, err
	}
	if err := pprof.StartCPUProfile(cf); err != nil {
		cf.Close()
		return nil, err
	}
	return func() error {
		pprof.StopCPUProfile()
		if err := cf.Close(); err != nil {
			return err
		}
		mf, err := os.Create(prefix + ".mem.pprof")
		if err != nil {
			return err
		}
		runtime.GC() // settle the heap so the profile reflects retained memory
		if err := pprof.WriteHeapProfile(mf); err != nil {
			mf.Close()
			return err
		}
		return mf.Close()
	}, nil
}
