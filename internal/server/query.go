package server

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strings"
	"time"

	"relquery/internal/algebra"
	"relquery/internal/governor"
	"relquery/internal/join"
	"relquery/internal/obs"
	"relquery/internal/relation"
)

// StatusClientClosedRequest is the nginx-convention status for a client
// that went away mid-evaluation; the governor surfaces it as
// ErrCanceled. The write usually reaches nobody, but logs and tests see
// a distinct code.
const StatusClientClosedRequest = 499

// TenantHeader names the query's tenant on the un-scoped /v1/query
// route; the ?tenant= query parameter and the tenant-scoped route
// override it.
const TenantHeader = "X-Relquery-Tenant"

// queryRequest is one parsed query submission.
type queryRequest struct {
	src      string
	strategy string // -join equivalent: hash, sortmerge, nestedloop, parallel, wcoj, yannakakis, auto
	order    join.Order
	timeout  time.Duration
	analyze  bool // EXPLAIN ANALYZE output instead of tuples
	count    bool // cardinality only
	optimize bool
}

// parseQueryRequest decodes the body (raw expression text) and the
// tuning query parameters.
func parseQueryRequest(r *http.Request) (*queryRequest, error) {
	body, err := io.ReadAll(http.MaxBytesReader(nil, r.Body, maxQueryBytes))
	if err != nil {
		return nil, fmt.Errorf("reading query body: %w", err)
	}
	q := &queryRequest{
		src:      strings.TrimSpace(string(body)),
		strategy: "auto",
		order:    join.Greedy,
	}
	if q.src == "" {
		return nil, errors.New("empty query body (POST the expression text, e.g. pi[A C](pi[A B](T) * pi[B C](T)))")
	}
	params := r.URL.Query()
	if v := params.Get("strategy"); v != "" {
		if v != "auto" {
			if _, err := join.ByName(v); err != nil {
				return nil, fmt.Errorf("strategy: %w (valid: %s)", err, strings.Join(join.StrategyNames(), ", "))
			}
		}
		q.strategy = v
	}
	if v := params.Get("order"); v != "" {
		order, err := join.OrderByName(v)
		if err != nil {
			return nil, fmt.Errorf("order: %w", err)
		}
		q.order = order
	}
	if v := params.Get("timeout"); v != "" {
		d, err := governor.ParseTimeout(v)
		if err != nil {
			return nil, err
		}
		q.timeout = d
	}
	switch v := params.Get("explain"); v {
	case "", "none":
	case "analyze":
		q.analyze = true
	default:
		return nil, fmt.Errorf("explain: unknown mode %q (want analyze)", v)
	}
	q.count = params.Get("count") != ""
	q.optimize = params.Get("optimize") != ""
	return q, nil
}

// limitsFor tightens the tenant's limits with the request's own timeout:
// a request may shorten its deadline, never extend the tenant's.
func (q *queryRequest) limitsFor(t *tenant) governor.Limits {
	l := t.limits
	if q.timeout > 0 && (l.Deadline == 0 || q.timeout < l.Deadline) {
		l.Deadline = q.timeout
	}
	return l
}

// admissionReject is the HTTP 429 body: the predicted-peak and AGM
// numbers the budget decision was made on, so a rejected tenant can see
// exactly how far over budget the query was.
type admissionReject struct {
	Error         string  `json:"error"`
	Tenant        string  `json:"tenant"`
	PredictedPeak float64 `json:"predicted_peak_rows"`
	AGMBound      float64 `json:"agm_bound_rows"`
	Budget        int     `json:"budget_intermediate_rows"`
}

// handleQuery serves POST /v1/query, resolving the tenant from the
// ?tenant= parameter or the X-Relquery-Tenant header.
func (s *Server) handleQuery(w http.ResponseWriter, r *http.Request) {
	name := r.URL.Query().Get("tenant")
	if name == "" {
		name = r.Header.Get(TenantHeader)
	}
	s.serveQuery(w, r, s.tenant(name))
}

// handleTenantQuery serves POST /v1/tenants/{tenant}/query.
func (s *Server) handleTenantQuery(w http.ResponseWriter, r *http.Request) {
	s.serveQuery(w, r, s.tenant(r.PathValue("tenant")))
}

// serveQuery runs one query for one tenant: parse (plan cache), admit
// (tenant budget vs predicted peak), queue (worker pool), evaluate
// (parallel engine + shared subexpression cache, published to the
// registry), stream the result.
func (s *Server) serveQuery(w http.ResponseWriter, r *http.Request, t *tenant) {
	s.metrics.requests.Add(1)
	q, err := parseQueryRequest(r)
	if err != nil {
		bodyError(w, err)
		return
	}
	db := t.snapshot()
	expr, err := s.plans.get(q.src, db, q.optimize)
	if err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	limits := q.limitsFor(t)

	if rejected := s.admit(w, q, expr, db, t, limits); rejected {
		return
	}

	// Worker pool: bound concurrently executing evaluations. Waiters hold
	// no engine resources; a context that dies in the queue costs 503.
	if s.sem != nil {
		select {
		case s.sem <- struct{}{}:
			defer func() { <-s.sem }()
		case <-r.Context().Done():
			writeError(w, http.StatusServiceUnavailable, "queued too long for a worker slot: %v", r.Context().Err())
			return
		}
	}
	s.metrics.inflight.Add(1)
	defer s.metrics.inflight.Add(-1)

	collector := &obs.Collector{}
	ev := &algebra.Evaluator{
		Order:          q.order,
		Parallelism:    s.cfg.Parallelism,
		Cache:          true,
		SharedCache:    s.shared,
		AutoWCOJ:       q.strategy == "auto",
		AutoYannakakis: q.strategy == "auto",
		Collector:      collector,
		Registry:       s.reg,
		Limits:         limits,
		Admit:          true,
	}
	if q.strategy != "auto" {
		alg, err := join.ByName(q.strategy)
		if err != nil {
			writeError(w, http.StatusBadRequest, "%v", err)
			return
		}
		ev.Algorithm = alg
	}

	start := time.Now()
	out, err := ev.EvalContext(r.Context(), expr, db)
	wall := time.Since(start)
	s.metrics.evalDone(t.name)
	if err != nil {
		s.writeEvalError(w, q, t, err)
		return
	}

	w.Header().Set("X-Relquery-Rows", fmt.Sprint(out.Len()))
	w.Header().Set("X-Relquery-Wall", wall.String())
	w.Header().Set("X-Relquery-Strategy", q.strategy)
	snap := collector.Metrics.Snapshot()
	w.Header().Set("X-Relquery-Cache-Hits", fmt.Sprint(snap.CacheHits))
	switch {
	case q.analyze:
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		_, _ = io.WriteString(w, algebra.RenderTrace(collector.Trace()))
	case q.count:
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		fmt.Fprintf(w, "%d\n", out.Len())
	default:
		streamResult(w, expr, out)
	}
}

// admit runs the server-level admission gate — the join.Plan rule the
// engine applies per node, here over the base relations the expression
// touches, before any work runs — and, when the query is over budget,
// writes the 429 and reports true. The output-bounded strategies (wcoj,
// yannakakis, and auto, which routes blow-ups to them) pass when the
// n-ary AGM bound fits the budget. A rejection is charged to the
// registry (violation counter + latency) so /metrics shows rejected
// load next to executed load.
func (s *Server) admit(w http.ResponseWriter, q *queryRequest, expr algebra.Expr, db relation.Database, t *tenant, limits governor.Limits) bool {
	if limits.MaxIntermediateRows <= 0 {
		return false
	}
	var args []*relation.Relation
	for _, name := range expr.Operands() {
		if r, ok := db[name]; ok {
			args = append(args, r)
		}
	}
	outputBounded := q.strategy == "wcoj" || q.strategy == "yannakakis" || q.strategy == "auto"
	collector := &obs.Collector{}
	gov := governor.New(context.Background(), limits).WithMetrics(collector.M())
	start := time.Now()
	err := join.NewPlan(args).Admit(gov, outputBounded)
	if err == nil {
		return false
	}
	s.metrics.evalDone(t.name)
	s.reg.Observe(collector.Trace(), time.Since(start))
	s.rejectAdmission(w, t, err)
	return true
}

// rejectAdmission writes the 429 body for an admission rejection from
// either gate, taking the numbers from the typed
// *governor.AdmissionError in err's chain.
func (s *Server) rejectAdmission(w http.ResponseWriter, t *tenant, err error) {
	s.metrics.admissionRejects.Add(1)
	body := admissionReject{Error: err.Error(), Tenant: t.name, Budget: t.limits.MaxIntermediateRows}
	var ae *governor.AdmissionError
	if errors.As(err, &ae) {
		body.PredictedPeak, body.AGMBound, body.Budget = ae.PredictedPeak, ae.AGMBound, ae.Budget
	}
	writeJSON(w, http.StatusTooManyRequests, body)
}

// writeEvalError maps a failed evaluation to a status code: governor
// sentinels carry resource semantics (429 admission, 504 deadline, 413
// row/memory budget, 499 client cancel); everything else is the
// client's 400 — the engine rejected the query, not the server.
func (s *Server) writeEvalError(w http.ResponseWriter, q *queryRequest, t *tenant, err error) {
	switch {
	case errors.Is(err, governor.ErrAdmission):
		s.rejectAdmission(w, t, err)
	case errors.Is(err, governor.ErrDeadline):
		writeError(w, http.StatusGatewayTimeout, "%v", err)
	case errors.Is(err, governor.ErrRowBudget), errors.Is(err, governor.ErrMemBudget):
		writeError(w, http.StatusRequestEntityTooLarge, "%v", err)
	case errors.Is(err, governor.ErrCanceled):
		writeError(w, StatusClientClosedRequest, "%v", err)
	default:
		writeError(w, http.StatusBadRequest, "%v", err)
	}
}

// streamResult writes the result in the relation codec's block form —
// reloadable through the same upload path — flushing every flushEvery
// rows so large results stream instead of buffering whole.
func streamResult(w http.ResponseWriter, expr algebra.Expr, out *relation.Relation) {
	const flushEvery = 1024
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	flusher, _ := w.(http.Flusher)
	bw := bufio.NewWriter(w)
	fmt.Fprintf(bw, "# %s\n# %d tuples over %v\n", expr, out.Len(), out.Scheme())
	fmt.Fprintln(bw, "relation result")
	fmt.Fprintln(bw, out.Scheme().String())
	for i, t := range out.Sorted() {
		for j, v := range t {
			if j > 0 {
				bw.WriteByte(' ')
			}
			bw.WriteString(string(v))
		}
		bw.WriteByte('\n')
		if flusher != nil && (i+1)%flushEvery == 0 {
			_ = bw.Flush()
			flusher.Flush()
		}
	}
	fmt.Fprintln(bw, "end")
	_ = bw.Flush()
}
