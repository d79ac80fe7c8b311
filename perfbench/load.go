package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"strconv"
	"sync"
	"time"

	"relquery/internal/governor"
	"relquery/internal/obs"
	"relquery/internal/relation"
	"relquery/internal/server"
)

type opKind int

const (
	opQuery opKind = iota
	opPut
	opScrape
)

// op is one HTTP request of a workload's fixed sequence.
type op struct {
	kind opKind
	t    *tenant
	cat  *catalog
	q    *query // opQuery
	rel  string // opPut: relation name
}

// request builds the op's *http.Request; bodies are fresh readers over
// the pre-rendered text.
func (o *op) request() *http.Request {
	var req *http.Request
	var err error
	switch o.kind {
	case opQuery:
		req, err = http.NewRequest(http.MethodPost, o.q.path, bytes.NewReader([]byte(o.q.src)))
	case opPut:
		req, err = http.NewRequest(http.MethodPut, "/v1/tenants/"+o.t.name+"/relations/"+o.rel, bytes.NewReader(o.cat.bodies[o.rel]))
	default:
		req, err = http.NewRequest(http.MethodGet, "/metrics", nil)
	}
	if err != nil {
		panic(err) // the paths and methods are constants of the benchmark
	}
	return req
}

// plan is a workload's request schedule: set-up uploads and warm-up
// queries, then one round's timed sequence per client. The timed
// sequence repeats passes times per round.
type plan struct {
	name    string
	cache   bool
	tenants []*tenant
	setup   []op   // catalog loads over HTTP, then one warm-up query of each kind
	clients [][]op // one fixed sequence per client
	passes  int
}

// expectedRejects counts the 429s one round (set-up plus timed passes)
// must produce.
func (p *plan) expectedRejects() int {
	n := 0
	for _, seq := range p.clients {
		n += countRejects(seq)
	}
	return countRejects(p.setup) + p.passes*n
}

func countRejects(ops []op) int {
	n := 0
	for _, o := range ops {
		if o.kind == opQuery && o.q.reject {
			n++
		}
	}
	return n
}

func loadOps(t *tenant, c *catalog) []op {
	var ops []op
	for _, name := range c.names {
		ops = append(ops, op{kind: opPut, t: t, cat: c, rel: name})
	}
	return ops
}

func queryOps(t *tenant, c *catalog) []op {
	var ops []op
	for _, q := range c.queries {
		ops = append(ops, op{kind: opQuery, t: t, cat: c, q: q})
	}
	return ops
}

// Timed passes per round: sized so a round takes about half a second
// (warm, churn) to one second (cold) on a 2-vCPU machine, which leaves
// twenty or more rounds per 20 s run for the per-round medians.
const (
	warmPasses = 40
	coldPasses = 2
	// scrapeEvery spaces a churn client's GET /metrics between its
	// uploads and queries.
	scrapeEvery = 25
)

// buildPlan lays out a workload's requests for the given client count.
// warm and cold share tenants and query mix; each client runs every
// query once per pass in its own seeded order. churn gives each client
// its own churn tenants, cycling upload-then-query through their
// generations, with tight-tenant queries and /metrics scrapes between.
func buildPlan(workload string, seed int64, clients int) (*plan, error) {
	switch workload {
	case "warm", "cold", "churn":
	default:
		return nil, fmt.Errorf("unknown workload %q (want warm, cold or churn)", workload)
	}
	tenants, err := buildTenants(workload, seed)
	if err != nil {
		return nil, err
	}
	p := &plan{name: workload, cache: workload != "cold", tenants: tenants, passes: 1}
	for _, t := range tenants {
		p.setup = append(p.setup, loadOps(t, t.gens[0])...)
	}
	for _, t := range tenants {
		p.setup = append(p.setup, queryOps(t, t.gens[0])...)
	}
	p.clients = make([][]op, clients)
	rng := rand.New(rand.NewSource(seed ^ 0x5eed))
	switch workload {
	case "warm", "cold":
		var mix []op
		for _, t := range tenants {
			mix = append(mix, queryOps(t, t.gens[0])...)
		}
		for c := range p.clients {
			seq := append([]op(nil), mix...)
			rng.Shuffle(len(seq), func(i, j int) { seq[i], seq[j] = seq[j], seq[i] })
			p.clients[c] = seq
		}
		p.passes = warmPasses
		if workload == "cold" {
			p.passes = coldPasses
		}
	case "churn":
		tight := tenants[0]
		for i, t := range tenants[1:] {
			c := i % clients
			for g := 1; g < len(t.gens); g++ {
				seq := loadOps(t, t.gens[g])
				for k := 0; k < 2; k++ {
					seq = append(seq, queryOps(t, t.gens[g])...)
				}
				seq = append(seq, queryOps(tight, tight.gens[0])...)
				p.clients[c] = append(p.clients[c], seq...)
			}
		}
		for c, seq := range p.clients {
			var withScrapes []op
			for i, o := range seq {
				if i > 0 && i%scrapeEvery == 0 {
					withScrapes = append(withScrapes, op{kind: opScrape})
				}
				withScrapes = append(withScrapes, o)
			}
			p.clients[c] = withScrapes
		}
	}
	return p, nil
}

// newServer builds relqueryd with its defaults (Parallelism 0,
// MaxConcurrent 8) and the workload's tenants and cache setting.
func newServer(p *plan) http.Handler {
	cfg := server.Config{DisableCache: !p.cache, Tenants: map[string]governor.Limits{}}
	for _, t := range p.tenants {
		cfg.Tenants[t.name] = governor.Limits{MaxIntermediateRows: t.budget}
	}
	return server.New(cfg).Handler()
}

// recorder is a minimal http.ResponseWriter that captures one reply;
// each client reuses its own.
type recorder struct {
	hdr    http.Header
	status int
	body   bytes.Buffer
}

func newRecorder() *recorder { return &recorder{hdr: http.Header{}} }

func (r *recorder) Header() http.Header { return r.hdr }

func (r *recorder) WriteHeader(code int) {
	if r.status == 0 {
		r.status = code
	}
}

func (r *recorder) Write(p []byte) (int, error) {
	r.WriteHeader(http.StatusOK)
	return r.body.Write(p)
}

func (r *recorder) Flush() {}

func (r *recorder) reset() {
	clear(r.hdr)
	r.status = 0
	r.body.Reset()
}

// check validates one reply against the oracle. Replies are checked by
// status, X-Relquery-Rows and body shape; full (set-up and traced runs)
// also parses streamed bodies back and requires set equality.
func check(o *op, rec *recorder, full bool) error {
	switch o.kind {
	case opPut:
		if rec.status != http.StatusOK {
			return fmt.Errorf("PUT %s/%s: status %d", o.t.name, o.rel, rec.status)
		}
		var info struct{ Rows int }
		if err := json.Unmarshal(rec.body.Bytes(), &info); err != nil || info.Rows != o.cat.db[o.rel].Len() {
			return fmt.Errorf("PUT %s/%s: reply %s, want %d rows", o.t.name, o.rel, rec.body.Bytes(), o.cat.db[o.rel].Len())
		}
		return nil
	case opScrape:
		if rec.status != http.StatusOK || !bytes.Contains(rec.body.Bytes(), []byte(obs.SeriesServerRequests)) {
			return fmt.Errorf("GET /metrics: status %d", rec.status)
		}
		return nil
	}
	q := o.q
	if q.reject {
		if rec.status != http.StatusTooManyRequests {
			return fmt.Errorf("%s %s: status %d, want 429", o.t.name, q.path, rec.status)
		}
		return nil
	}
	if rec.status != http.StatusOK {
		return fmt.Errorf("%s %s: status %d: %s", o.t.name, q.path, rec.status, rec.body.Bytes())
	}
	rows := q.want.Len()
	if got := rec.hdr.Get("X-Relquery-Rows"); got != strconv.Itoa(rows) {
		return fmt.Errorf("%s %s: X-Relquery-Rows %s, want %d", o.t.name, q.path, got, rows)
	}
	body := rec.body.Bytes()
	if q.count {
		if string(body) != strconv.Itoa(rows)+"\n" {
			return fmt.Errorf("%s %s: count body %q, want %d", o.t.name, q.path, body, rows)
		}
		return nil
	}
	if got := codecRows(body); got != rows {
		return fmt.Errorf("%s %s: streamed body holds %d rows in codec text, want %d", o.t.name, q.path, got, rows)
	}
	if full {
		_, got, err := relation.ReadRelation(bytes.NewReader(body))
		if err != nil {
			return fmt.Errorf("%s %s: streamed body: %w", o.t.name, q.path, err)
		}
		if !got.Equal(q.want) {
			return fmt.Errorf("%s %s: streamed result differs from the tableau oracle", o.t.name, q.path)
		}
	}
	return nil
}

// codecRows counts the tuple lines of a reply holding one relation block
// in codec text, after any leading comment lines; -1 when the text is
// not such a block.
func codecRows(body []byte) int {
	rows, state := 0, 0 // 0: before the block header, 1: scheme line next, 2: tuples
	for len(body) > 0 {
		i := bytes.IndexByte(body, '\n')
		if i < 0 {
			return -1
		}
		line := body[:i]
		body = body[i+1:]
		switch {
		case state == 0 && bytes.HasPrefix(line, []byte("#")):
		case state == 0:
			if !bytes.HasPrefix(line, []byte("relation ")) {
				return -1
			}
			state = 1
		case state == 1:
			state = 2
		case string(line) == "end":
			if len(body) > 0 {
				return -1
			}
			return rows
		default:
			rows++
		}
	}
	return -1
}

// sample is one timed request.
type sample struct {
	kind   opKind
	reject bool
	d      time.Duration
}

// tally accumulates a client's samples and mismatches.
type tally struct {
	samples []sample
	failed  int
	errs    []string
}

func (t *tally) fail(err error) {
	t.failed++
	if len(t.errs) < 5 {
		t.errs = append(t.errs, err.Error())
	}
}

// do serves one op, records its latency and checks the reply; it
// returns when the request was sent and how long the server took.
func (t *tally) do(h http.Handler, o *op, rec *recorder, full bool) (time.Time, time.Duration) {
	rec.reset()
	req := o.request()
	start := time.Now()
	h.ServeHTTP(rec, req)
	d := time.Since(start)
	t.samples = append(t.samples, sample{kind: o.kind, reject: o.kind == opQuery && o.q.reject, d: d})
	if err := check(o, rec, full); err != nil {
		t.fail(err)
	}
	return start, d
}

// runClients runs every client's sequence passes times in a closed
// loop: each client sends its next request only after the previous
// reply. hook, when non-nil, runs after each reply on the client's
// goroutine (the traced replay).
func runClients(h http.Handler, p *plan, hook func(c int, o *op, rec *recorder, sent time.Time, d time.Duration)) []*tally {
	out := make([]*tally, len(p.clients))
	var wg sync.WaitGroup
	for c := range p.clients {
		out[c] = &tally{}
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			rec := newRecorder()
			tl := out[c]
			for pass := 0; pass < p.passes; pass++ {
				for i := range p.clients[c] {
					o := &p.clients[c][i]
					sent, d := tl.do(h, o, rec, hook != nil)
					if hook != nil {
						hook(c, o, rec, sent, d)
					}
				}
			}
		}(c)
	}
	wg.Wait()
	return out
}
