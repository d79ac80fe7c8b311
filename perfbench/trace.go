package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"sync"
	"time"

	"relquery/internal/algebra"
	"relquery/internal/governor"
	"relquery/internal/join"
	"relquery/internal/obs"
	"relquery/internal/relation"
)

// traceDir receives the span JSON of traced runs, relative to the root
// of the checkout.
const traceDir = ".bench_build/perfbench"

// span is one timed call in the traced replay. Times are nanoseconds
// since the run began. Outside marks a child whose time is not part of
// its parent's: a replayed parse on a request the server answered from
// its plan cache.
type span struct {
	ID      int64  `json:"id"`
	Parent  int64  `json:"parent"`
	Request int64  `json:"request"`
	Name    string `json:"name"`
	Start   int64  `json:"start_ns"`
	End     int64  `json:"end_ns"`
	Outside bool   `json:"outside,omitempty"`
}

func (s *span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// stat accumulates durations of one kind of call.
type stat struct {
	n     int
	total time.Duration
}

func (s *stat) add(d time.Duration) { s.n++; s.total += d }

// mean in the given unit (0 when nothing was recorded).
func (s *stat) mean(unit time.Duration) float64 {
	if s.n == 0 {
		return 0
	}
	return float64(s.total) / float64(s.n) / float64(unit)
}

// clientTrace is one client's share of a traced round; clients never
// share one, so no locking.
type clientTrace struct {
	id      int64
	epoch   int64 // the run's start in Unix nanoseconds: engine spans carry absolute times
	spans   []span
	keep    bool // store spans for the JSON file (first traced round only)
	calls   map[string]*stat
	self    map[string]time.Duration // self time by span name, all requests
	selfBud map[string]time.Duration // self time by span name, budgeted-tenant queries
	reqSelf stat                     // request.self over query requests

	evals                                          int
	hits, misses                                   int64
	peak, inter, outRows, candidates, semijoinRows int64
	replies                                        int   // timed, admitted queries
	replyBytes                                     int64 // their reply bodies
	decodeBytes                                    int64
}

// tracer replays each request's layer calls with the server's
// configuration: its own shared cache (when the workload has one),
// registry and plan-cache key set, so that its cache state follows the
// server's.
type tracer struct {
	epoch   time.Time
	shared  *algebra.SubexprCache
	reg     *obs.Registry
	plansMu sync.Mutex
	plans   map[string]bool
	clients []*clientTrace
	scrapes stat
}

func newTracer(p *plan, epoch time.Time, keep bool) *tracer {
	tr := &tracer{epoch: epoch, reg: obs.NewRegistry(), plans: map[string]bool{}}
	if p.cache {
		tr.shared = algebra.NewSubexprCache()
	}
	for c := range p.clients {
		tr.clients = append(tr.clients, &clientTrace{
			id: int64(c+1) << 40, epoch: epoch.UnixNano(), keep: keep,
			calls: map[string]*stat{}, self: map[string]time.Duration{}, selfBud: map[string]time.Duration{},
		})
	}
	return tr
}

func (tr *tracer) now() int64 { return int64(time.Since(tr.epoch)) }

// planMiss reports whether the server's plan cache misses on this
// query, mirroring its key (catalog schemes plus query text).
func (tr *tracer) planMiss(c *catalog, q *query) bool {
	key := c.sig + "\x00" + q.src
	tr.plansMu.Lock()
	defer tr.plansMu.Unlock()
	if tr.plans[key] {
		return false
	}
	tr.plans[key] = true
	return true
}

// replay makes, after the server answered o, the calls into each layer
// that the server makes for it, in the server's order, timing each.
// handler is the server's wall time for the request. record false (the
// set-up) only keeps the replay's caches in step with the server's.
func (tr *tracer) replay(c int, o *op, rec *recorder, sent time.Time, handler time.Duration, record bool) {
	if o.kind == opScrape {
		if record {
			tr.scrapes.add(handler)
		}
		return
	}
	ct := tr.clients[c]
	id := ct.begin()
	start := int64(sent.Sub(tr.epoch))
	root := span{ID: id, Request: id, Name: "request", Start: start, End: start + int64(handler)}
	if o.kind == opPut {
		body := o.cat.bodies[o.rel]
		s := span{ID: ct.begin(), Parent: id, Request: id, Name: "relation.decode", Start: tr.now()}
		_, _, err := relation.ReadRelation(bytes.NewReader(body))
		s.End = tr.now()
		if err != nil || !record {
			return
		}
		root.Name = "request.put"
		ct.finish(root, []span{s}, false)
		ct.decodeBytes += int64(len(body))
		return
	}
	if !record {
		tr.planMiss(o.cat, o.q)
		tr.evaluate(nil, o, nil, 0)
		return
	}
	if !o.q.reject {
		ct.replies++
		ct.replyBytes += int64(rec.body.Len())
	}
	var kids []span
	call := func(name string, outside bool, fn func()) {
		s := span{ID: ct.begin(), Parent: id, Request: id, Name: name, Start: tr.now(), Outside: outside}
		fn()
		s.End = tr.now()
		kids = append(kids, s)
	}
	q, db := o.q, o.cat.db
	miss := tr.planMiss(o.cat, q)
	var expr algebra.Expr
	call("algebra.parse", !miss, func() { expr, _ = algebra.ParseForDatabase(q.src, db) })
	if expr == nil {
		return
	}
	args := baseRelations(expr, db)
	if o.t.budget > 0 {
		call("join.estimate", false, func() {
			_ = max(join.PredictedPeakGreedy(args), join.WorstCasePeakGreedy(args))
		})
		call("join.agm_lp", false, func() { _ = join.AGMBoundOf(args) })
	}
	if q.reject {
		call("obs.registry_observe", false, func() { tr.reg.Observe((&obs.Collector{}).Trace(), 0) })
	} else {
		kids = append(kids, tr.evaluate(ct, o, args, id)...)
	}
	ct.finish(root, kids, o.t.budget > 0)
}

// evaluate runs the replay's evaluation of o: the evaluator configured
// like the server's, the registry publish, and the encoding of streamed
// replies. With ct nil it only warms the replay's caches.
func (tr *tracer) evaluate(ct *clientTrace, o *op, args []*relation.Relation, parent int64) []span {
	q, db := o.q, o.cat.db
	if q.reject {
		return nil
	}
	col := &obs.Collector{}
	ev := &algebra.Evaluator{
		Order:          join.Greedy,
		Cache:          true,
		SharedCache:    tr.shared,
		AutoWCOJ:       q.auto(),
		AutoYannakakis: q.auto(),
		Collector:      col,
		Limits:         governor.Limits{MaxIntermediateRows: o.t.budget},
		Admit:          true,
	}
	if !q.auto() {
		alg, err := join.ByName(q.strategy)
		if err != nil {
			return nil
		}
		ev.Algorithm = alg
	}
	start := tr.now()
	out, err := ev.EvalContext(context.Background(), q.expr, db)
	end := tr.now()
	if ct == nil || err != nil {
		return nil
	}
	trace := col.Trace()
	var spans []span
	evalSpan := span{ID: ct.begin(), Parent: parent, Request: parent, Name: "algebra.eval", Start: start, End: end}
	spans = append(spans, evalSpan)
	probe := func(name string, owner int64, fn func()) {
		s := span{ID: ct.begin(), Parent: owner, Request: parent, Name: name, Start: tr.now()}
		fn()
		s.End = tr.now()
		spans = append(spans, s)
	}
	root := trace.Root()
	spans = ct.engineSpans(spans, root, evalSpan.ID, parent, start)
	// The shared cache fingerprints the referenced relations for the root
	// operator's key; auto plans the n-ary join node with GYO and the AGM
	// LP. Each is timed as a separate call of the same public function
	// and counted as a child of the engine span that makes it.
	owner := func(prefix string) int64 {
		for _, s := range spans[1:] {
			if strings.HasPrefix(s.Name, prefix) {
				return s.ID
			}
		}
		return evalSpan.ID
	}
	if tr.shared != nil {
		probe("relation.fingerprint", owner(""), func() { _ = relation.FingerprintDatabase(db, q.expr.Operands()) })
	}
	if q.auto() && root != nil && root.Cache != obs.CacheHit {
		schemes := join.SchemesOf(args)
		sizes := make([]int, len(args))
		for i, r := range args {
			sizes[i] = r.Len()
		}
		joinSpan := owner("join.")
		probe("join.gyo", joinSpan, func() { _, _ = join.JoinTreeOf(schemes) })
		probe("join.agm_lp", joinSpan, func() { _, _ = join.FractionalCover(schemes, sizes) })
	}

	m := trace.Metrics
	ct.evals++
	ct.hits += m.CacheHits
	ct.misses += m.CacheMisses
	ct.peak += m.MaxIntermediate
	ct.inter += m.IntermediateTuples
	ct.outRows += int64(out.Len())
	ct.candidates += m.WCOJCandidates
	ct.semijoinRows += m.SemijoinRows

	s := span{ID: ct.begin(), Parent: parent, Request: parent, Name: "obs.registry_observe", Start: tr.now()}
	tr.reg.Observe(trace, time.Duration(end-start))
	s.End = tr.now()
	spans = append(spans, s)
	if !q.count {
		s := span{ID: ct.begin(), Parent: parent, Request: parent, Name: "relation.encode", Start: tr.now()}
		var b bytes.Buffer
		_ = relation.WriteRelation(&b, "result", out)
		s.End = tr.now()
		spans = append(spans, s)
	}
	return spans
}

// engineSpans converts the evaluator's own span tree (scan, project and
// join operators with wall times) into replay spans under parent.
func (ct *clientTrace) engineSpans(out []span, sp *obs.Span, parent, req, fallback int64) []span {
	if sp == nil {
		return out
	}
	name := "algebra." + sp.Op
	switch {
	case sp.Cache == obs.CacheHit:
		name = "algebra.cache_hit"
	case sp.Op == obs.OpJoin && sp.Algorithm != "":
		name = "join." + sp.Algorithm
	}
	start := fallback
	if sp.StartNanos != 0 {
		start = sp.StartNanos - ct.epoch
	}
	s := span{ID: ct.begin(), Parent: parent, Request: req, Name: name, Start: start, End: start + sp.WallNanos}
	out = append(out, s)
	for _, ch := range sp.Children {
		out = ct.engineSpans(out, ch, s.ID, req, start)
	}
	return out
}

func (ct *clientTrace) begin() int64 {
	ct.id++
	return ct.id
}

func (ct *clientTrace) record(s span) {
	if ct.keep {
		ct.spans = append(ct.spans, s)
	}
	st := ct.calls[s.Name]
	if st == nil {
		st = &stat{}
		ct.calls[s.Name] = st
	}
	st.add(s.dur())
}

// finish records a request's spans and folds their self times: a span's
// duration minus its (non-outside) children's. The request span's
// duration is the server's handler time, so its self time is the part
// no replayed layer call accounts for.
func (ct *clientTrace) finish(root span, kids []span, budgeted bool) {
	all := append([]span{root}, kids...)
	covered := map[int64]time.Duration{}
	for _, s := range kids {
		if !s.Outside {
			covered[s.Parent] += s.dur()
		}
	}
	for _, s := range all {
		ct.record(s)
		self := s.dur() - covered[s.ID]
		if s.ID == root.ID && s.Name == "request" {
			ct.reqSelf.add(self)
		} else if self < 0 {
			self = 0
		}
		if s.Outside {
			continue
		}
		ct.self[s.Name] += self
		if budgeted {
			ct.selfBud[s.Name] += self
		}
	}
}

// growthPoint is one checkpoint of the churn heap probe.
type growthPoint struct {
	Uploads      int     `json:"uploads"`
	LiveHeapMB   float64 `json:"live_heap_mb"`
	CacheEntries float64 `json:"shared_cache_entries"`
}

// growthProbe replays one round's churn sequence on a fresh server from
// a single goroutine, forcing a GC and reading the heap and the shared
// cache's size every few uploads. Its requests are checked like any
// other and counted in t.
func growthProbe(p *plan, t *tally) []growthPoint {
	h := newServer(p)
	rec := newRecorder()
	for i := range p.setup {
		t.do(h, &p.setup[i], rec, false)
	}
	point := func(uploads int) growthPoint {
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		m := scrape(h, t, nil)
		return growthPoint{Uploads: uploads, LiveHeapMB: float64(ms.HeapAlloc) / (1 << 20), CacheEntries: m[obs.SeriesServerSharedCacheSize]}
	}
	points := []growthPoint{point(0)}
	uploads := 0
	for _, seq := range p.clients {
		for i := range seq {
			t.do(h, &seq[i], rec, false)
			if seq[i].kind == opPut {
				uploads++
				if uploads%12 == 0 {
					points = append(points, point(uploads))
				}
			}
		}
	}
	return points
}

// baseRelations are the catalog relations a query references, as the
// server's admission gate collects them.
func baseRelations(e algebra.Expr, db relation.Database) []*relation.Relation {
	var out []*relation.Relation
	for _, name := range e.Operands() {
		if r, ok := db[name]; ok {
			out = append(out, r)
		}
	}
	return out
}

// runTraced alternates untraced and traced rounds of the same plan for
// about d, then reports the per-layer metrics and writes the first
// traced round's spans.
func runTraced(p *plan, seed int64, d time.Duration) (*result, []string, error) {
	epoch := time.Now()
	var plain, traced []*round
	var tracers []*tracer
	for {
		began := time.Now()
		plain = append(plain, runRound(p, nil))
		tr := newTracer(p, epoch, len(tracers) == 0)
		tracers = append(tracers, tr)
		traced = append(traced, runRound(p, tr))
		// Keep the round's aggregates, not its caches.
		tr.shared, tr.reg = nil, nil
		if time.Since(epoch)+time.Since(began) > d {
			break
		}
	}
	var probe tally
	var growth []growthPoint
	if p.name == "churn" {
		growth = growthProbe(p, &probe)
	}

	res := &result{Attempted: len(probe.samples), Failed: probe.failed, Metrics: map[string]metric{}}
	set := func(name, unit string, v float64) { res.Metrics[name] = metric{Value: v, Unit: unit} }
	figures, notes := summarize(p, plain, res)
	_, tracedNotes := summarize(p, traced, res)
	notes = append(notes, tracedNotes[1:]...)
	for _, e := range probe.errs {
		notes = append(notes, "mismatch: "+e)
	}
	set("latency_p99_ms", "ms", figures["latency_p99_ms"])
	set("upload_p99_ms", "ms", figures["upload_p99_ms"])

	// Merge every traced round's client traces.
	calls := map[string]*stat{}
	self := map[string]time.Duration{}
	selfBud := map[string]time.Duration{}
	var sum clientTrace
	var scrapes stat
	var spans []span
	for _, tr := range tracers {
		scrapes.n += tr.scrapes.n
		scrapes.total += tr.scrapes.total
		for _, ct := range tr.clients {
			spans = append(spans, ct.spans...)
			for name, st := range ct.calls {
				if calls[name] == nil {
					calls[name] = &stat{}
				}
				calls[name].n += st.n
				calls[name].total += st.total
			}
			for name, v := range ct.self {
				self[name] += v
			}
			for name, v := range ct.selfBud {
				selfBud[name] += v
			}
			sum.reqSelf.n += ct.reqSelf.n
			sum.reqSelf.total += ct.reqSelf.total
			sum.replies += ct.replies
			sum.replyBytes += ct.replyBytes
			sum.evals += ct.evals
			sum.hits += ct.hits
			sum.misses += ct.misses
			sum.peak += ct.peak
			sum.inter += ct.inter
			sum.outRows += ct.outRows
			sum.candidates += ct.candidates
			sum.semijoinRows += ct.semijoinRows
			sum.decodeBytes += ct.decodeBytes
		}
	}
	mean := func(name string, unit time.Duration) float64 {
		if st := calls[name]; st != nil {
			return st.mean(unit)
		}
		return 0
	}
	ratio := func(a, b float64) float64 {
		if b == 0 {
			return 0
		}
		return a / b
	}
	perEval := func(v float64) float64 { return ratio(v, float64(sum.evals)) }
	last := traced[len(traced)-1].counters
	ph, pm := last[obs.SeriesServerPlanCacheHits], last[obs.SeriesServerPlanCacheMisses]
	sh, sm := last[obs.SeriesServerSharedCacheHits], last[obs.SeriesServerSharedCacheMisses]

	set("server.plan_cache_hit_ratio", "ratio", ratio(ph, ph+pm))
	set("server.shared_cache_hit_ratio", "ratio", ratio(sh, sh+sm))
	set("server.shared_cache_entries", "count", last[obs.SeriesServerSharedCacheSize])
	set("server.admission_rejects", "count", last[obs.SeriesServerAdmissionRejects])
	set("server.expected_rejects", "count", float64(p.expectedRejects()))
	set("server.response_bytes_per_req", "B", ratio(float64(sum.replyBytes), float64(sum.replies)))
	set("algebra.parse_us", "us", mean("algebra.parse", time.Microsecond))
	set("algebra.eval_ms", "ms", mean("algebra.eval", time.Millisecond))
	set("algebra.cache_hit_ratio", "ratio", ratio(float64(sum.hits), float64(sum.hits+sum.misses)))
	set("join.estimate_us", "us", mean("join.estimate", time.Microsecond))
	set("join.agm_lp_us", "us", mean("join.agm_lp", time.Microsecond))
	set("join.gyo_us", "us", mean("join.gyo", time.Microsecond))
	for _, alg := range []string{"hash", "wcoj", "yannakakis"} {
		set("join."+alg+"_self_ms", "ms", perEval(float64(self["join."+alg])/float64(time.Millisecond)))
	}
	set("join.peak_rows", "count", perEval(float64(sum.peak)))
	set("join.intermediate_rows", "count", perEval(float64(sum.inter)))
	set("join.output_ratio", "ratio", ratio(float64(sum.outRows), float64(sum.inter)))
	set("join.wcoj_candidates", "count", perEval(float64(sum.candidates)))
	set("join.semijoin_rows", "count", perEval(float64(sum.semijoinRows)))
	set("relation.fingerprint_us", "us", mean("relation.fingerprint", time.Microsecond))
	set("relation.encode_us", "us", mean("relation.encode", time.Microsecond))
	set("relation.decode_us", "us", mean("relation.decode", time.Microsecond))
	decode := calls["relation.decode"]
	if decode != nil && decode.total > 0 {
		set("relation.decode_mb_s", "MB/s", float64(sum.decodeBytes)/(1<<20)/decode.total.Seconds())
	} else {
		set("relation.decode_mb_s", "MB/s", 0)
	}
	set("obs.registry_observe_us", "us", mean("obs.registry_observe", time.Microsecond))
	set("telemetry.scrape_ms", "ms", scrapes.mean(time.Millisecond))
	set("request.self_ms", "ms", sum.reqSelf.mean(time.Millisecond))
	var pw, tw []float64
	for i := range plain {
		pw = append(pw, plain[i].wall.Seconds())
		tw = append(tw, traced[i].wall.Seconds())
	}
	set("trace_overhead_ratio", "ratio", ratio(median(tw), median(pw)))
	slope := 0.0
	if n := len(growth); n > 1 {
		slope = (growth[n-1].LiveHeapMB - growth[0].LiveHeapMB) * 1024 / float64(growth[n-1].Uploads)
	}
	set("server.heap_kb_per_upload", "KB", slope)
	set("error_rate", "ratio", ratio(float64(res.Failed), float64(res.Attempted)))

	shares := selfShares(self)
	budShares := selfShares(selfBud)
	notes = append(notes, fmt.Sprintf("workload %s traced: %d traced rounds, %d spans kept", p.name, len(traced), len(spans)))
	for _, s := range shares {
		notes = append(notes, fmt.Sprintf("self share %-24s %6.2f%%", s.Name, 100*s.Share))
	}
	for _, s := range budShares {
		notes = append(notes, fmt.Sprintf("budgeted self share %-24s %6.2f%%", s.Name, 100*s.Share))
	}
	for _, g := range growth {
		notes = append(notes, fmt.Sprintf("churn growth: %3d uploads  live heap %7.2f MB  shared cache entries %v", g.Uploads, g.LiveHeapMB, g.CacheEntries))
	}
	out := filepath.Join(traceDir, fmt.Sprintf("spans-%s-seed%d.json", p.name, seed))
	if err := writeSpans(out, p.name, seed, spans, shares, budShares, growth); err != nil {
		return nil, nil, err
	}
	notes = append(notes, "spans written to "+out)
	return res, notes, nil
}

type share struct {
	Name  string  `json:"name"`
	SelfS float64 `json:"self_s"`
	Share float64 `json:"share"`
}

// selfShares orders span names by their share of total self time.
func selfShares(self map[string]time.Duration) []share {
	var total time.Duration
	for _, v := range self {
		total += max(v, 0)
	}
	var out []share
	for name, v := range self {
		if total > 0 && v > 0 {
			out = append(out, share{Name: name, SelfS: v.Seconds(), Share: float64(v) / float64(total)})
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Share > out[j].Share })
	return out
}

func writeSpans(path, workload string, seed int64, spans []span, shares, budShares []share, growth []growthPoint) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	err = enc.Encode(map[string]any{
		"workload":            workload,
		"seed":                seed,
		"spans":               spans,
		"self_share":          shares,
		"self_share_budgeted": budShares,
		"churn_growth":        growth,
	})
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}
