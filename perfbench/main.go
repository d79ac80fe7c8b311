// Command relbench is relquery's end-to-end benchmark: a closed-loop
// load generator that drives relqueryd's HTTP handler in-process, from
// request body in to codec text out, on seeded catalogs, and checks
// every reply against the tableau oracle. With -trace 1 it instead runs
// the traced variant, which replays each request's calls into the
// layers (algebra, join, relation, obs, telemetry) to report per-layer
// metrics and writes the spans as JSON. See README.md.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"net/http"
	"os"
	"runtime"
	"sort"
	"syscall"
	"time"

	"relquery/internal/obs"
	"relquery/internal/telemetry"
)

// metric is one reported figure.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the final line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	workload := flag.String("workload", "", "warm, cold or churn")
	seed := flag.Int64("seed", 1, "seed for catalogs and request order")
	seconds := flag.Float64("seconds", 10, "measured time per run")
	trace := flag.Int("trace", 0, "1 runs the traced per-layer variant")
	flag.Parse()
	res, notes, err := run(*workload, *seed, time.Duration(*seconds*float64(time.Second)), *trace == 1)
	if err != nil {
		fmt.Fprintln(os.Stderr, "relbench:", err)
		os.Exit(1)
	}
	for _, n := range notes {
		fmt.Println(n)
	}
	names := make([]string, 0, len(res.Metrics))
	for name := range res.Metrics {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		m := res.Metrics[name]
		fmt.Printf("%-32s %14.6g %s\n", name, m.Value, m.Unit)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "relbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

// run builds the workload and measures it for about d.
func run(workload string, seed int64, d time.Duration, traced bool) (*result, []string, error) {
	p, err := buildPlan(workload, seed, runtime.NumCPU())
	if err != nil {
		return nil, nil, err
	}
	if traced {
		return runTraced(p, seed, d)
	}
	var rounds []*round
	start := time.Now()
	for {
		r := runRound(p, nil)
		rounds = append(rounds, r)
		if time.Since(start)+r.total > d {
			break
		}
	}
	return endToEnd(p, rounds)
}

// round is one fresh server's set-up and timed passes.
type round struct {
	total     time.Duration // set-up, timed phase and bookkeeping
	setup     time.Duration
	wall      time.Duration // timed phase
	ops       int           // timed requests
	attempted int           // every request of the round
	cpu       time.Duration
	mallocs   uint64
	allocs    uint64
	heapMB    float64
	samples   []sample // set-up uploads and every timed request
	counters  map[string]float64
	tally     tally
}

// runRound builds a fresh server, loads and warms it (timed as set-up),
// runs every client's passes (timed), then measures the live heap and
// scrapes the server's counters. tr, when non-nil, replays each
// request's layer calls.
func runRound(p *plan, tr *tracer) *round {
	r := &round{}
	began := time.Now()
	runtime.GC()

	start := time.Now()
	h := newServer(p)
	recs := make([]*recorder, len(p.setup))
	sent := make([]time.Time, len(p.setup))
	durs := make([]time.Duration, len(p.setup))
	for i := range p.setup {
		recs[i] = newRecorder()
		sent[i], durs[i] = r.tally.do(h, &p.setup[i], recs[i], false)
	}
	r.setup = time.Since(start)
	for i := range p.setup {
		o := &p.setup[i]
		if err := check(o, recs[i], true); err != nil {
			r.tally.fail(err)
		}
		if tr != nil {
			// Set-up uploads are the only ones warm and cold make, so
			// their decode is recorded; set-up queries only warm the
			// replay's caches.
			tr.replay(0, o, recs[i], sent[i], durs[i], o.kind == opPut)
		}
	}
	puts := r.tally.samples
	r.tally.samples = nil

	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	cpu0 := cpuTime()
	t0 := time.Now()
	var hook func(c int, o *op, rec *recorder, sent time.Time, d time.Duration)
	if tr != nil {
		hook = func(c int, o *op, rec *recorder, sent time.Time, d time.Duration) {
			tr.replay(c, o, rec, sent, d, true)
		}
	}
	tallies := runClients(h, p, hook)
	r.wall = time.Since(t0)
	r.cpu = cpuTime() - cpu0
	runtime.ReadMemStats(&ms1)
	r.mallocs = ms1.Mallocs - ms0.Mallocs
	r.allocs = ms1.TotalAlloc - ms0.TotalAlloc

	runtime.GC()
	var ms2 runtime.MemStats
	runtime.ReadMemStats(&ms2)
	r.heapMB = float64(ms2.HeapAlloc) / (1 << 20)

	for _, putSample := range puts {
		if putSample.kind == opPut {
			r.samples = append(r.samples, putSample)
		}
	}
	for _, t := range tallies {
		r.samples = append(r.samples, t.samples...)
		r.ops += len(t.samples)
		r.tally.failed += t.failed
		r.tally.errs = append(r.tally.errs, t.errs...)
	}
	r.counters = scrape(h, &r.tally, tr)
	r.attempted = len(p.setup) + r.ops + 1
	if got, want := r.counters[obs.SeriesServerAdmissionRejects], p.expectedRejects(); int(got) != want {
		r.tally.fail(fmt.Errorf("server counted %v admission rejects, the plan expects %d", got, want))
	}
	runtime.KeepAlive(h)
	r.total = time.Since(began)
	return r
}

// scrape reads the server's /metrics at the end of a round.
func scrape(h http.Handler, t *tally, tr *tracer) map[string]float64 {
	rec := newRecorder()
	o := &op{kind: opScrape}
	_, d := t.do(h, o, rec, false)
	if tr != nil {
		tr.scrapes.add(d)
	}
	m, err := telemetry.ParseMetrics(&rec.body)
	if err != nil {
		t.fail(fmt.Errorf("parsing /metrics: %w", err))
	}
	return m
}

// cpuTime is the process's user plus system CPU time.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// endToEnd folds the untraced rounds into the end-to-end metrics.
func endToEnd(p *plan, rounds []*round) (*result, []string, error) {
	res := &result{Metrics: map[string]metric{}}
	figures, notes := summarize(p, rounds, res)
	for name, unit := range endToEndUnits {
		res.Metrics[name] = metric{Value: figures[name], Unit: unit}
	}
	return res, notes, nil
}

// endToEndUnits names the end-to-end metrics and their units.
var endToEndUnits = map[string]string{
	"setup_s":             "s",
	"throughput_rps":      "1/s",
	"latency_p50_ms":      "ms",
	"reject_p50_ms":       "ms",
	"upload_p50_ms":       "ms",
	"cpu_ms_per_req":      "ms",
	"allocs_per_req":      "count",
	"alloc_bytes_per_req": "B",
	"live_heap_mb":        "MB",
}

// summarize computes the figures of a run. Medians pool every round's
// samples; the other figures are computed per round and the median
// round's is reported, so that one disturbed round moves no figure. It
// also counts the rounds' requests and mismatches into res. The tail
// percentiles (latency_p99_ms, upload_p99_ms) repeat too poorly between
// runs to gate on and are reported with the per-layer metrics.
func summarize(p *plan, rounds []*round, res *result) (map[string]float64, []string) {
	per := map[string][]float64{}
	add := func(name string, v float64) { per[name] = append(per[name], v) }
	var errs []string
	var lat, rej, put []float64
	for _, r := range rounds {
		var roundLat, roundPut []float64
		for _, s := range r.samples {
			ms := float64(s.d) / float64(time.Millisecond)
			switch {
			case s.kind == opPut:
				roundPut = append(roundPut, ms)
			case s.kind == opQuery:
				roundLat = append(roundLat, ms)
				if s.reject {
					rej = append(rej, ms)
				}
			}
		}
		lat = append(lat, roundLat...)
		put = append(put, roundPut...)
		n := float64(r.ops)
		add("setup_s", r.setup.Seconds())
		add("throughput_rps", n/r.wall.Seconds())
		add("latency_p99_ms", percentile(roundLat, 99))
		add("upload_p99_ms", percentile(roundPut, 99))
		add("cpu_ms_per_req", float64(r.cpu)/float64(time.Millisecond)/n)
		add("allocs_per_req", float64(r.mallocs)/n)
		add("alloc_bytes_per_req", float64(r.allocs)/n)
		add("live_heap_mb", r.heapMB)
		res.Attempted += r.attempted
		res.Failed += r.tally.failed
		errs = append(errs, r.tally.errs...)
	}
	figures := map[string]float64{
		"latency_p50_ms": median(lat),
		"reject_p50_ms":  median(rej),
		"upload_p50_ms":  median(put),
	}
	for name, vs := range per {
		figures[name] = median(vs)
	}
	res.Correct = res.Failed == 0
	n := len(rounds)
	notes := []string{
		fmt.Sprintf("workload %s: %d rounds, %d clients; %d query samples (%d expected 429s), %d uploads; p99s are per round, over %d queries and %d uploads",
			p.name, n, len(p.clients), len(lat), len(rej), len(put), len(lat)/n, len(put)/n),
	}
	for _, e := range errs {
		notes = append(notes, "mismatch: "+e)
	}
	return figures, notes
}

// median of xs (0 for none).
func median(xs []float64) float64 { return percentile(xs, 50) }

// percentile is the nearest-rank percentile of xs (0 for none).
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	i := int(p/100*float64(len(s))+0.5) - 1
	return s[min(max(i, 0), len(s)-1)]
}
