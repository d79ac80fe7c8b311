package server

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"regexp"
	"strings"
	"testing"
	"time"

	"relquery/internal/governor"
	"relquery/internal/relation"
	"relquery/internal/telemetry"
)

// chainDB builds the three-relation chain R1(A,B) ∗ R2(B,C) ∗ R3(C,D)
// used throughout the engine's governor tests: predicted greedy peak
// 12k rows, worst-case greedy peak 160k, AGM bound 240k, 12k output
// tuples — big enough that tenant budgets on either side of those
// numbers separate cleanly.
func chainDB() relation.Database {
	r1 := relation.New(relation.MustScheme("A", "B"))
	r2 := relation.New(relation.MustScheme("B", "C"))
	r3 := relation.New(relation.MustScheme("C", "D"))
	for i := 0; i < 600; i++ {
		r1.MustAdd(relation.TupleOf(fmt.Sprintf("a%d", i), fmt.Sprintf("b%d", i%20)))
	}
	for j := 0; j < 400; j++ {
		r2.MustAdd(relation.TupleOf(fmt.Sprintf("b%d", j%20), fmt.Sprintf("c%d", j)))
		r3.MustAdd(relation.TupleOf(fmt.Sprintf("c%d", j), fmt.Sprintf("d%d", j)))
	}
	db := relation.NewDatabase()
	db.Put("R1", r1)
	db.Put("R2", r2)
	db.Put("R3", r3)
	return db
}

const chainQuery = "R1 * R2 * R3"

// newTestServer starts a relqueryd with two tenants on opposite sides
// of the chain workload's predicted peak — acme's budget admits it,
// free's rejects it — plus a "slow" tenant whose deadline is
// unmeetable. Every tenant gets the same catalog.
func newTestServer(t *testing.T) (*Server, *httptest.Server) {
	t.Helper()
	s := New(Config{
		Tenants: map[string]governor.Limits{
			"acme": {MaxIntermediateRows: 1_000_000},
			"free": {MaxIntermediateRows: 2_000},
			"slow": {Deadline: time.Nanosecond},
		},
	})
	db := chainDB()
	for _, tenant := range []string{"acme", "free", "slow"} {
		s.Load(tenant, db)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return s, ts
}

func postQuery(t *testing.T, ts *httptest.Server, tenant, query, params string) *http.Response {
	t.Helper()
	url := ts.URL + "/v1/tenants/" + tenant + "/query"
	if params != "" {
		url += "?" + params
	}
	resp, err := http.Post(url, "text/plain", strings.NewReader(query))
	if err != nil {
		t.Fatalf("POST %s: %v", url, err)
	}
	t.Cleanup(func() { resp.Body.Close() })
	return resp
}

func readBody(t *testing.T, resp *http.Response) string {
	t.Helper()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("reading response body: %v", err)
	}
	return string(b)
}

// TestTwoTenantAdmission is the headline multi-tenancy property: the
// same query against the same data is admitted for the tenant whose
// intermediate-row budget covers its predicted peak and rejected
// pre-flight with 429 — carrying the numbers — for the tenant whose
// budget does not.
func TestTwoTenantAdmission(t *testing.T) {
	_, ts := newTestServer(t)

	resp := postQuery(t, ts, "acme", chainQuery, "")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("acme (budget 1m): status %d, want 200; body: %s", resp.StatusCode, readBody(t, resp))
	}
	if rows := resp.Header.Get("X-Relquery-Rows"); rows != "12000" {
		t.Errorf("acme X-Relquery-Rows = %q, want 12000", rows)
	}

	resp = postQuery(t, ts, "free", chainQuery, "")
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("free (budget 2k): status %d, want 429; body: %s", resp.StatusCode, readBody(t, resp))
	}
	var reject admissionReject
	if err := json.NewDecoder(resp.Body).Decode(&reject); err != nil {
		t.Fatalf("decoding 429 body: %v", err)
	}
	if reject.Tenant != "free" {
		t.Errorf("429 tenant = %q, want free", reject.Tenant)
	}
	if reject.Budget != 2_000 {
		t.Errorf("429 budget = %d, want 2000", reject.Budget)
	}
	if reject.PredictedPeak <= float64(reject.Budget) {
		t.Errorf("429 predicted_peak_rows = %v, want > budget %d", reject.PredictedPeak, reject.Budget)
	}
	if reject.AGMBound <= 0 {
		t.Errorf("429 agm_bound_rows = %v, want > 0", reject.AGMBound)
	}
	if !strings.Contains(reject.Error, "predicted peak") {
		t.Errorf("429 error %q does not mention the predicted peak", reject.Error)
	}
}

// TestSingleOperandAdmissionReportsNumbers is the 429 regression for
// the paper's own query shape: every operand is a projection of one
// relation, so the server's pre-flight gate sees a single base relation
// and admits, and the engine's per-node gate rejects. The 429 body must
// still carry the rejected node's numbers, not zeros.
func TestSingleOperandAdmissionReportsNumbers(t *testing.T) {
	// The chain data folded into one relation T(A,B,C,D) = R1 ∗ R2 ∗ R3.
	folded := relation.New(relation.MustScheme("A", "B", "C", "D"))
	for i := 0; i < 600; i++ {
		for j := i % 20; j < 400; j += 20 {
			folded.MustAdd(relation.TupleOf(fmt.Sprintf("a%d", i), fmt.Sprintf("b%d", i%20), fmt.Sprintf("c%d", j), fmt.Sprintf("d%d", j)))
		}
	}
	s := New(Config{Tenants: map[string]governor.Limits{"tight": {MaxIntermediateRows: 2_000}}})
	s.Load("tight", relation.Database{"T": folded})
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)

	resp := postQuery(t, ts, "tight", "pi[A B](T) * pi[B C](T) * pi[C D](T)", "strategy=hash")
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("status %d, want 429; body: %s", resp.StatusCode, readBody(t, resp))
	}
	var reject admissionReject
	if err := json.NewDecoder(resp.Body).Decode(&reject); err != nil {
		t.Fatalf("decoding 429 body: %v", err)
	}
	m := regexp.MustCompile(`≈(\d+) rows`).FindStringSubmatch(reject.Error)
	if m == nil {
		t.Fatalf("429 error %q carries no predicted peak", reject.Error)
	}
	if got := fmt.Sprintf("%.0f", reject.PredictedPeak); got != m[1] {
		t.Errorf("429 predicted_peak_rows = %s, error text says ≈%s", got, m[1])
	}
	if reject.AGMBound <= 0 {
		t.Errorf("429 agm_bound_rows = %v, want > 0", reject.AGMBound)
	}
	if reject.Budget != 2_000 {
		t.Errorf("429 budget = %d, want 2000", reject.Budget)
	}
}

// TestAdmissionVerdictPerStrategy pins the admission verdict of every
// ?strategy= on the triangle R(A,B) ∗ S(B,C) ∗ U(A,C), each relation
// all 10×10 value pairs, under budget 5000. Any binary plan first joins
// two relations into a worst-case 10000-row intermediate, so the
// binary strategies are rejected; the AGM bound (1000, the output) fits
// the budget, so wcoj and auto run. yannakakis passes the server gate
// but falls back to the binary planner on this cyclic query, whose
// per-node gate rejects it.
func TestAdmissionVerdictPerStrategy(t *testing.T) {
	full := func(a, b string) *relation.Relation {
		r := relation.New(relation.MustScheme(relation.Attribute(a), relation.Attribute(b)))
		for i := 0; i < 10; i++ {
			for j := 0; j < 10; j++ {
				r.MustAdd(relation.TupleOf(fmt.Sprint(i), fmt.Sprint(j)))
			}
		}
		return r
	}
	s := New(Config{
		Tenants:      map[string]governor.Limits{"tri": {MaxIntermediateRows: 5000}},
		DisableCache: true,
	})
	s.Load("tri", relation.Database{"R": full("A", "B"), "S": full("B", "C"), "U": full("A", "C")})
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)

	for strategy, want := range map[string]int{
		"hash":       http.StatusTooManyRequests,
		"sortmerge":  http.StatusTooManyRequests,
		"nestedloop": http.StatusTooManyRequests,
		"parallel":   http.StatusTooManyRequests,
		"yannakakis": http.StatusTooManyRequests,
		"wcoj":       http.StatusOK,
		"auto":       http.StatusOK,
	} {
		resp := postQuery(t, ts, "tri", "R * S * U", "count=1&strategy="+strategy)
		if resp.StatusCode != want {
			t.Errorf("strategy=%s: status %d, want %d; body: %s", strategy, resp.StatusCode, want, readBody(t, resp))
			continue
		}
		if want == http.StatusOK {
			if rows := resp.Header.Get("X-Relquery-Rows"); rows != "1000" {
				t.Errorf("strategy=%s: X-Relquery-Rows = %q, want 1000", strategy, rows)
			}
		}
	}
}

// TestAdmissionErrorNamesNoCLIFlag checks the 429 body's error text:
// relqueryd has no -admit option, so it must not suggest one.
func TestAdmissionErrorNamesNoCLIFlag(t *testing.T) {
	_, ts := newTestServer(t)
	resp := postQuery(t, ts, "free", chainQuery, "")
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("status %d, want 429", resp.StatusCode)
	}
	var reject admissionReject
	if err := json.NewDecoder(resp.Body).Decode(&reject); err != nil {
		t.Fatalf("decoding 429 body: %v", err)
	}
	if strings.Contains(reject.Error, "-admit") {
		t.Errorf("429 error %q mentions -admit", reject.Error)
	}
}

// TestRepeatedQueryHitsSharedCache submits the same query twice and
// checks the shared cross-request subexpression cache served the second
// evaluation, both in the response header and in /metrics.
func TestRepeatedQueryHitsSharedCache(t *testing.T) {
	_, ts := newTestServer(t)

	first := postQuery(t, ts, "acme", chainQuery, "")
	if first.StatusCode != http.StatusOK {
		t.Fatalf("first query: status %d: %s", first.StatusCode, readBody(t, first))
	}
	firstBody := readBody(t, first)
	second := postQuery(t, ts, "acme", chainQuery, "")
	if second.StatusCode != http.StatusOK {
		t.Fatalf("second query: status %d: %s", second.StatusCode, readBody(t, second))
	}
	if got := readBody(t, second); got != firstBody {
		t.Errorf("second response differs from first (%d vs %d bytes)", len(got), len(firstBody))
	}
	if hits := second.Header.Get("X-Relquery-Cache-Hits"); hits == "0" || hits == "" {
		t.Errorf("second query X-Relquery-Cache-Hits = %q, want > 0", hits)
	}

	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatalf("GET /metrics: %v", err)
	}
	defer resp.Body.Close()
	metrics, err := telemetry.ParseMetrics(resp.Body)
	if err != nil {
		t.Fatalf("parsing /metrics: %v", err)
	}
	if metrics["relquery_cache_hits_total"] <= 0 {
		t.Errorf("relquery_cache_hits_total = %v, want > 0 after a repeated query", metrics["relquery_cache_hits_total"])
	}
	if metrics["relqueryd_shared_cache_hits_total"] <= 0 {
		t.Errorf("relqueryd_shared_cache_hits_total = %v, want > 0", metrics["relqueryd_shared_cache_hits_total"])
	}
	if metrics["relqueryd_plan_cache_hits_total"] <= 0 {
		t.Errorf("relqueryd_plan_cache_hits_total = %v, want > 0 (same text parsed once)", metrics["relqueryd_plan_cache_hits_total"])
	}
	if metrics["relquery_evals_total"] < 2 {
		t.Errorf("relquery_evals_total = %v, want >= 2", metrics["relquery_evals_total"])
	}
	if metrics[`relqueryd_tenant_evals_total{tenant="acme"}`] < 2 {
		t.Errorf("tenant eval counter = %v, want >= 2", metrics[`relqueryd_tenant_evals_total{tenant="acme"}`])
	}
}

// TestDeadlineMapsToGatewayTimeout checks the governor's ErrDeadline
// surfaces as HTTP 504.
func TestDeadlineMapsToGatewayTimeout(t *testing.T) {
	_, ts := newTestServer(t)
	resp := postQuery(t, ts, "slow", chainQuery, "")
	if resp.StatusCode != http.StatusGatewayTimeout {
		t.Fatalf("slow (1ns deadline): status %d, want 504; body: %s", resp.StatusCode, readBody(t, resp))
	}
	if body := readBody(t, resp); !strings.Contains(body, "deadline") {
		t.Errorf("504 body %q does not mention the deadline", body)
	}
}

// TestRequestTimeoutTightensOnly checks a request ?timeout= may shorten
// the tenant deadline but never extend it.
func TestRequestTimeoutTightensOnly(t *testing.T) {
	_, ts := newTestServer(t)
	// acme has no deadline: a tiny request timeout applies and kills the query.
	resp := postQuery(t, ts, "acme", chainQuery, "timeout=1ns")
	if resp.StatusCode != http.StatusGatewayTimeout {
		t.Fatalf("acme with ?timeout=1ns: status %d, want 504", resp.StatusCode)
	}
	// slow has a 1ns deadline: a generous request timeout must not extend it.
	resp = postQuery(t, ts, "slow", chainQuery, "timeout=10s")
	if resp.StatusCode != http.StatusGatewayTimeout {
		t.Fatalf("slow with ?timeout=10s: status %d, want 504 (request timeout must not extend tenant deadline)", resp.StatusCode)
	}
}

// TestQueryVariants exercises count, explain=analyze and strategy
// selection on an admitted tenant.
func TestQueryVariants(t *testing.T) {
	_, ts := newTestServer(t)

	resp := postQuery(t, ts, "acme", chainQuery, "count=1")
	if body := strings.TrimSpace(readBody(t, resp)); body != "12000" {
		t.Errorf("count body = %q, want 12000", body)
	}

	resp = postQuery(t, ts, "acme", chainQuery, "explain=analyze")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("explain=analyze: status %d", resp.StatusCode)
	}
	if body := readBody(t, resp); !strings.Contains(body, "join") {
		t.Errorf("EXPLAIN ANALYZE output does not mention a join:\n%s", body)
	}

	for _, strategy := range []string{"hash", "sortmerge", "yannakakis", "wcoj"} {
		resp := postQuery(t, ts, "acme", chainQuery, "strategy="+strategy+"&count=1")
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("strategy=%s: status %d: %s", strategy, resp.StatusCode, readBody(t, resp))
		}
		if body := strings.TrimSpace(readBody(t, resp)); body != "12000" {
			t.Errorf("strategy=%s count = %q, want 12000", strategy, body)
		}
	}

	resp = postQuery(t, ts, "acme", chainQuery, "strategy=nosuch")
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("strategy=nosuch: status %d, want 400", resp.StatusCode)
	}
}

// TestQueryErrors checks parse failures and empty bodies map to 400.
func TestQueryErrors(t *testing.T) {
	_, ts := newTestServer(t)
	resp := postQuery(t, ts, "acme", "R1 * Nope", "")
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("unknown relation: status %d, want 400", resp.StatusCode)
	}
	resp = postQuery(t, ts, "acme", "", "")
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("empty body: status %d, want 400", resp.StatusCode)
	}
	resp = postQuery(t, ts, "acme", "pi[", "")
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("syntax error: status %d, want 400", resp.StatusCode)
	}
}

// TestUnscopedQueryRoute checks /v1/query resolves the tenant from the
// header or the ?tenant= parameter, defaulting to "default".
func TestUnscopedQueryRoute(t *testing.T) {
	_, ts := newTestServer(t)

	req, _ := http.NewRequest("POST", ts.URL+"/v1/query", strings.NewReader(chainQuery))
	req.Header.Set(TenantHeader, "free")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Errorf("header tenant=free: status %d, want 429", resp.StatusCode)
	}

	resp2, err := http.Post(ts.URL+"/v1/query?tenant=acme", "text/plain", strings.NewReader(chainQuery))
	if err != nil {
		t.Fatal(err)
	}
	defer resp2.Body.Close()
	if resp2.StatusCode != http.StatusOK {
		t.Errorf("?tenant=acme: status %d, want 200", resp2.StatusCode)
	}
}

// TestCatalogCRUD drives the relation lifecycle over HTTP: upload, list,
// download (round-trips through the codec), drop, 404.
func TestCatalogCRUD(t *testing.T) {
	_, ts := newTestServer(t)
	base := ts.URL + "/v1/tenants/crud/relations"

	put := func(name, body string) *http.Response {
		req, _ := http.NewRequest("PUT", base+"/"+name, strings.NewReader(body))
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { resp.Body.Close() })
		return resp
	}

	resp := put("T", "A B\n1 2\n3 4\n")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("PUT bare relation: status %d: %s", resp.StatusCode, readBody(t, resp))
	}
	var info relationInfo
	if err := json.NewDecoder(resp.Body).Decode(&info); err != nil {
		t.Fatal(err)
	}
	if info.Rows != 2 || info.Scheme != "A B" || info.Fingerprint == "" {
		t.Errorf("PUT response = %+v, want 2 rows over A B with a fingerprint", info)
	}

	resp = put("T2", "relation ignored\nA B\n5 6\nend\n")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("PUT block relation: status %d: %s", resp.StatusCode, readBody(t, resp))
	}

	listResp, err := http.Get(base)
	if err != nil {
		t.Fatal(err)
	}
	defer listResp.Body.Close()
	var listing []relationInfo
	if err := json.NewDecoder(listResp.Body).Decode(&listing); err != nil {
		t.Fatal(err)
	}
	if len(listing) != 2 || listing[0].Name != "T" || listing[1].Name != "T2" {
		t.Errorf("listing = %+v, want [T T2]", listing)
	}

	getResp, err := http.Get(base + "/T")
	if err != nil {
		t.Fatal(err)
	}
	defer getResp.Body.Close()
	_, rel, err := relation.ReadRelation(getResp.Body)
	if err != nil {
		t.Fatalf("downloaded relation does not round-trip: %v", err)
	}
	if rel.Len() != 2 {
		t.Errorf("downloaded relation has %d rows, want 2", rel.Len())
	}

	req, _ := http.NewRequest("DELETE", base+"/T", nil)
	delResp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	delResp.Body.Close()
	if delResp.StatusCode != http.StatusNoContent {
		t.Errorf("DELETE: status %d, want 204", delResp.StatusCode)
	}
	missing, err := http.Get(base + "/T")
	if err != nil {
		t.Fatal(err)
	}
	missing.Body.Close()
	if missing.StatusCode != http.StatusNotFound {
		t.Errorf("GET after DELETE: status %d, want 404", missing.StatusCode)
	}

	resp = put("bad", "A B\n1\n")
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("PUT arity-mismatched relation: status %d, want 400", resp.StatusCode)
	}
}

// TestCatalogBulkLoadAndQuery loads a whole database file through
// /catalog and queries it.
func TestCatalogBulkLoadAndQuery(t *testing.T) {
	_, ts := newTestServer(t)
	catalog := "relation S1\nA B\nx 1\ny 2\nend\nrelation S2\nB C\n1 p\n2 q\nend\n"
	resp, err := http.Post(ts.URL+"/v1/tenants/bulk/catalog", "text/plain", strings.NewReader(catalog))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("POST /catalog: status %d: %s", resp.StatusCode, readBody(t, resp))
	}
	q := postQuery(t, ts, "bulk", "S1 * S2", "count=1")
	if body := strings.TrimSpace(readBody(t, q)); body != "2" {
		t.Errorf("S1 * S2 count = %q, want 2", body)
	}
}

// TestTenantIsolation checks one tenant's uploads are invisible to
// another, while the shared cache still keys identical content safely:
// two tenants with byte-identical relations may share results, two
// tenants with different content under the same names must not.
func TestTenantIsolation(t *testing.T) {
	_, ts := newTestServer(t)
	putRel := func(tenant, name, body string) {
		t.Helper()
		req, _ := http.NewRequest("PUT", ts.URL+"/v1/tenants/"+tenant+"/relations/"+name, strings.NewReader(body))
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("PUT %s/%s: status %d", tenant, name, resp.StatusCode)
		}
	}
	// Same names, different content.
	putRel("t1", "X", "A B\n1 1\n3 3\n")
	putRel("t2", "X", "A B\n2 2\n")
	r1 := postQuery(t, ts, "t1", "X", "count=1")
	r2 := postQuery(t, ts, "t2", "X", "count=1")
	if b1, b2 := strings.TrimSpace(readBody(t, r1)), strings.TrimSpace(readBody(t, r2)); b1 != "2" || b2 != "1" {
		t.Errorf("tenant catalogs leaked: t1 count=%s (want 2), t2 count=%s (want 1)", b1, b2)
	}
	// A tenant that never uploaded sees nothing.
	miss := postQuery(t, ts, "t3", "X", "")
	if miss.StatusCode != http.StatusBadRequest {
		t.Errorf("t3 querying t1's relation: status %d, want 400 (unknown relation)", miss.StatusCode)
	}
}

// TestCacheReset checks /v1/cache/reset drops shared-cache entries and
// reports the count.
func TestCacheReset(t *testing.T) {
	_, ts := newTestServer(t)
	postQuery(t, ts, "acme", chainQuery, "count=1")
	resp, err := http.Post(ts.URL+"/v1/cache/reset", "", nil)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out map[string]int
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	if out["dropped"] <= 0 {
		t.Errorf("cache reset dropped %d entries, want > 0 after a cached evaluation", out["dropped"])
	}
}

// TestTenantsEndpoint checks /v1/tenants reports configured limits.
func TestTenantsEndpoint(t *testing.T) {
	_, ts := newTestServer(t)
	resp, err := http.Get(ts.URL + "/v1/tenants")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body := readBody(t, resp)
	for _, want := range []string{`"acme"`, `"free"`, `"budget_intermediate_rows": 2000`} {
		if !strings.Contains(body, want) {
			t.Errorf("/v1/tenants body missing %s:\n%s", want, body)
		}
	}
}

// TestTenantsListedInNameOrder checks /v1/tenants lists tenants sorted
// by name, not in map order.
func TestTenantsListedInNameOrder(t *testing.T) {
	tenants := make(map[string]governor.Limits)
	for i := 0; i < 20; i++ {
		tenants[fmt.Sprintf("t%02d", i)] = governor.Limits{}
	}
	ts := httptest.NewServer(New(Config{Tenants: tenants}).Handler())
	t.Cleanup(ts.Close)
	resp, err := http.Get(ts.URL + "/v1/tenants")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var got []struct{ Name string }
	if err := json.NewDecoder(resp.Body).Decode(&got); err != nil {
		t.Fatal(err)
	}
	if len(got) != len(tenants) {
		t.Fatalf("listed %d tenants, want %d", len(got), len(tenants))
	}
	for i := 1; i < len(got); i++ {
		if got[i-1].Name >= got[i].Name {
			t.Fatalf("tenants out of order at %d: %q then %q", i, got[i-1].Name, got[i].Name)
		}
	}
}

// TestParseTenantSpec covers the -tenant flag grammar.
func TestParseTenantSpec(t *testing.T) {
	name, limits, err := ParseTenantSpec("acme:budget=10k,timeout=2s,max-rows=1m,mem=64000000")
	if err != nil {
		t.Fatal(err)
	}
	if name != "acme" || limits.MaxIntermediateRows != 10_000 || limits.Deadline != 2*time.Second ||
		limits.MaxRows != 1_000_000 || limits.MaxMemoryBytes != 64_000_000 {
		t.Errorf("parsed %q / %+v", name, limits)
	}
	if name, limits, err := ParseTenantSpec("bare"); err != nil || name != "bare" || limits.Enabled() {
		t.Errorf("bare spec: %q %+v %v", name, limits, err)
	}
	for _, bad := range []string{"", ":budget=1", "x:budget", "x:nope=1", "x:budget=abc"} {
		if _, _, err := ParseTenantSpec(bad); err == nil {
			t.Errorf("ParseTenantSpec(%q) accepted", bad)
		}
	}
}

// TestStreamedResultRoundTrips checks the default result body is valid
// codec text that reloads through the upload path.
func TestStreamedResultRoundTrips(t *testing.T) {
	_, ts := newTestServer(t)
	resp := postQuery(t, ts, "acme", chainQuery, "")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	name, rel, err := relation.ReadRelation(strings.NewReader(readBody(t, resp)))
	if err != nil {
		t.Fatalf("result body does not parse as a relation: %v", err)
	}
	if name != "result" || rel.Len() != 12000 {
		t.Errorf("parsed %q with %d rows, want result with 12000", name, rel.Len())
	}
}
