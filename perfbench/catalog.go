package main

import (
	"bytes"
	"fmt"
	"math/rand"
	"os"
	"strings"

	"relquery/internal/algebra"
	"relquery/internal/cnf"
	"relquery/internal/reduction"
	"relquery/internal/relation"
	"relquery/internal/sat"
	"relquery/internal/tableau"
)

// chainCatalogPath is the examples/relqueryd chain catalog, read from the
// root of the checkout the benchmark runs in.
const chainCatalogPath = "examples/relqueryd/catalog.rel"

// Tenant budgets (governor.Limits.MaxIntermediateRows). generousBudget
// sits at least 10× above every predicted, worst-case and actual peak of
// the budgeted tenants' queries, and tightBudget at least 10× below the
// peaks (and outputs) of the tight tenant's multi-operand queries, so a
// correct admission change cannot flip an expected outcome. README.md
// records the measured peaks.
const (
	generousBudget = 1_000_000_000_000_000_000
	tightBudget    = 40
)

// query is one request template: expression text, strategy and reply
// form, with its oracle answer.
type query struct {
	src      string
	strategy string // "" leaves the server default (auto)
	count    bool   // ?count=1 instead of a streamed codec body
	reject   bool   // expected HTTP 429: multi-operand query on the tight tenant
	path     string // request URL, built by finish
	want     *relation.Relation
	expr     algebra.Expr // parsed against the catalog, for the traced replay
}

// auto reports whether the server evaluates q with the auto selector.
func (q *query) auto() bool { return q.strategy == "" || q.strategy == "auto" }

// catalog is one set of relations a tenant holds, the codec text that
// uploads it, and the queries asked of it.
type catalog struct {
	db      relation.Database
	names   []string
	bodies  map[string][]byte
	sig     string // relation names and schemes: the server's plan-cache key part
	queries []*query
}

// tenant is one relqueryd tenant. Warm and cold tenants keep one catalog;
// churn tenants replace theirs generation by generation.
type tenant struct {
	name   string
	budget int
	gens   []*catalog
}

// newCatalog renders db's upload bodies and checks each query against
// the tableau oracle, which shares no code with the join engine.
func newCatalog(db relation.Database, qs ...*query) (*catalog, error) {
	c := &catalog{db: db, names: db.Names(), bodies: map[string][]byte{}, queries: qs}
	var sig strings.Builder
	for _, name := range c.names {
		var b bytes.Buffer
		if err := relation.WriteRelation(&b, name, db[name]); err != nil {
			return nil, err
		}
		c.bodies[name] = b.Bytes()
		fmt.Fprintf(&sig, "%s(%s);", name, db[name].Scheme())
	}
	c.sig = sig.String()
	for _, q := range qs {
		e, err := algebra.ParseForDatabase(q.src, db)
		if err != nil {
			return nil, fmt.Errorf("query %q: %w", q.src, err)
		}
		q.expr = e
		if q.reject {
			continue
		}
		tab, err := tableau.New(e)
		if err != nil {
			return nil, fmt.Errorf("tableau of %q: %w", q.src, err)
		}
		if q.want, err = tab.Eval(db); err != nil {
			return nil, fmt.Errorf("tableau oracle of %q: %w", q.src, err)
		}
	}
	return c, nil
}

// finish builds each query's request URL for the tenant.
func (t *tenant) finish() *tenant {
	for _, c := range t.gens {
		for _, q := range c.queries {
			var params []string
			if q.strategy != "" {
				params = append(params, "strategy="+q.strategy)
			}
			if q.count {
				params = append(params, "count=1")
			}
			q.path = "/v1/tenants/" + t.name + "/query"
			if len(params) > 0 {
				q.path += "?" + strings.Join(params, "&")
			}
		}
	}
	return t
}

func newRel(attrs ...string) *relation.Relation {
	as := make([]relation.Attribute, len(attrs))
	for i, a := range attrs {
		as[i] = relation.Attribute(a)
	}
	return relation.New(relation.MustScheme(as...))
}

// labels returns n distinct value names with the given prefix and a
// seeded six-digit number: each seed names its values differently, at
// the same byte size.
func labels(rng *rand.Rand, prefix string, n int) []string {
	out := make([]string, 0, n)
	seen := map[int]bool{}
	for len(out) < n {
		if v := rng.Intn(1_000_000); !seen[v] {
			seen[v] = true
			out = append(out, fmt.Sprintf("%s%06d", prefix, v))
		}
	}
	return out
}

// chainTenants loads the examples/relqueryd chain for an unbudgeted
// tenant and for the tight tenant, whose multi-operand queries are all
// rejected. Both rejected queries do the same admission work, so the
// 429 path's latency is one cluster, not two.
func chainTenants() (open, tight *tenant, err error) {
	f, err := os.Open(chainCatalogPath)
	if err != nil {
		return nil, nil, err
	}
	defer f.Close()
	db, err := relation.ReadDatabase(f)
	if err != nil {
		return nil, nil, fmt.Errorf("%s: %w", chainCatalogPath, err)
	}
	const chainQuery = "pi[A D](R1 * R2 * R3)"
	oc, err := newCatalog(db,
		&query{src: chainQuery},
		&query{src: chainQuery, strategy: "hash", count: true},
		&query{src: "pi[B D](R2 * R3)", strategy: "yannakakis", count: true},
	)
	if err != nil {
		return nil, nil, err
	}
	tc, err := newCatalog(db,
		&query{src: chainQuery, reject: true},
		&query{src: chainQuery, strategy: "hash", count: true, reject: true},
	)
	if err != nil {
		return nil, nil, err
	}
	return &tenant{name: "chain", gens: []*catalog{oc}}, &tenant{name: "tight", budget: tightBudget, gens: []*catalog{tc}}, nil
}

// gadgetTenant builds the Lemma 1 gadget R_G and its query φ_G for the
// formula, checking the tableau oracle against the paper's identity
// |φ_G(R_G)| = |R_G| + #SAT(G).
func gadgetTenant(name string, g *cnf.Formula, forced string) (*tenant, error) {
	g, _ = cnf.Compact(g)
	c, err := reduction.New(g)
	if err != nil {
		return nil, err
	}
	phi, err := c.PhiG()
	if err != nil {
		return nil, err
	}
	src := phi.String()
	cat, err := newCatalog(c.Database(),
		&query{src: src},
		&query{src: src, strategy: forced, count: true},
	)
	if err != nil {
		return nil, err
	}
	models, err := sat.CountModels(c.G)
	if err != nil {
		return nil, err
	}
	if got, want := cat.queries[0].want.Len(), c.R.Len()+int(models); got != want {
		return nil, fmt.Errorf("%s: |φ_G(R_G)| = %d, want |R_G| + #SAT(G) = %d", name, got, want)
	}
	return &tenant{name: name, budget: generousBudget, gens: []*catalog{cat}}, nil
}

// familySize is the leg length of the acyclic families, about 20× the
// test fixtures'.
const familySize = 300

// familyTenants builds the acyclic path, star and snowflake families at
// familySize tuples per leg with values named from the seed: each has a
// dangling block whose greedy binary join is quadratic while the output
// is linear.
func familyTenants(rng *rand.Rand) ([]*tenant, error) {
	var out []*tenant
	add := func(name, forced string, db relation.Database, src string) error {
		cat, err := newCatalog(db,
			&query{src: src},
			&query{src: src, strategy: forced, count: true},
		)
		if err != nil {
			return err
		}
		out = append(out, &tenant{name: name, budget: generousBudget, gens: []*catalog{cat}})
		return nil
	}

	// Path A–B–C–D: the b0 block joins n×n before R3 kills it.
	n := familySize
	a, c, d := labels(rng, "a", n), labels(rng, "c", n), labels(rng, "d", n+1)
	r1, r2, r3 := newRel("A", "B"), newRel("B", "C"), newRel("C", "D")
	for i := 0; i < n; i++ {
		r1.MustAdd(relation.TupleOf(a[i], "b0"))
		r2.MustAdd(relation.TupleOf("b0", c[i]))
		r3.MustAdd(relation.TupleOf("c*", d[i]))
	}
	r1.MustAdd(relation.TupleOf("a*", "b1"))
	r2.MustAdd(relation.TupleOf("b1", "c*"))
	r3.MustAdd(relation.TupleOf("c*", d[n]))
	if err := add("path", "hash", relation.Database{"R1": r1, "R2": r2, "R3": r3}, "R1 * R2 * R3"); err != nil {
		return nil, err
	}

	// Star around hub A: L1 and L2 fan out on h0, L3 only knows h1.
	f := familySize
	b, cc, dd := labels(rng, "b", f), labels(rng, "c", f), labels(rng, "d", f+1)
	l1, l2, l3 := newRel("A", "B"), newRel("A", "C"), newRel("A", "D")
	for i := 0; i < f; i++ {
		l1.MustAdd(relation.TupleOf("h0", b[i]))
		l2.MustAdd(relation.TupleOf("h0", cc[i]))
		l3.MustAdd(relation.TupleOf("h1", dd[i]))
	}
	l1.MustAdd(relation.TupleOf("h1", "b*"))
	l2.MustAdd(relation.TupleOf("h1", "c*"))
	l3.MustAdd(relation.TupleOf("h1", dd[f]))
	if err := add("star", "wcoj", relation.Database{"L1": l1, "L2": l2, "L3": l3}, "L1 * L2 * L3"); err != nil {
		return nil, err
	}

	// Snowflake: the fat a0 block of FACT meets its A arm, the B arm
	// kills it, the C arm fans the one surviving chain out.
	s := familySize
	sb, sc, sd := labels(rng, "b", s), labels(rng, "c", s), labels(rng, "d", s)
	se, sf := labels(rng, "e", s), labels(rng, "f", s+1)
	fact, arm1, arm2, arm3 := newRel("A", "B", "C"), newRel("A", "D"), newRel("B", "E"), newRel("C", "F")
	for i := 0; i < s; i++ {
		fact.MustAdd(relation.TupleOf("a0", sb[i], sc[i]))
		arm1.MustAdd(relation.TupleOf("a0", sd[i]))
		arm2.MustAdd(relation.TupleOf("bdead"+sb[i], se[i]))
		arm3.MustAdd(relation.TupleOf("c*", sf[i]))
	}
	fact.MustAdd(relation.TupleOf("a1", "b*", "c*"))
	arm1.MustAdd(relation.TupleOf("a1", "d*"))
	arm2.MustAdd(relation.TupleOf("b*", "e*"))
	arm3.MustAdd(relation.TupleOf("c*", sf[s]))
	db := relation.Database{"FACT": fact, "D1": arm1, "D2": arm2, "D3": arm3}
	if err := add("snowflake", "yannakakis", db, "pi[A F](FACT * D1 * D2 * D3)"); err != nil {
		return nil, err
	}
	return out, nil
}

// Churn sizing: each generation of a churn tenant is a fresh chain of
// a thousand rows.
const (
	churnTenants = 8
	churnGens    = 5 // generation 0 is loaded at set-up, 1..4 replace it
)

// churnCatalog generates one chain generation R1(A,B) ⋈ R2(B,C) ⋈ R3(C,D)
// of 400 + 300 + 300 rows. Which values meet is drawn from the seed, but
// every B value has four A partners and three C partners and every C
// value three D partners of its own, so the join's size (3600 rows) and
// the replies' sizes are the same for every seed.
func churnCatalog(rng *rand.Rand) (*catalog, error) {
	a, b, c, d := labels(rng, "a", 400), labels(rng, "b", 100), labels(rng, "c", 100), labels(rng, "d", 300)
	r1, r2, r3 := newRel("A", "B"), newRel("B", "C"), newRel("C", "D")
	for i, p := range rng.Perm(400) {
		r1.MustAdd(relation.TupleOf(a[i], b[p%100]))
	}
	for i := range b {
		for _, p := range rng.Perm(100)[:3] {
			r2.MustAdd(relation.TupleOf(b[i], c[p]))
		}
	}
	for i, p := range rng.Perm(300) {
		r3.MustAdd(relation.TupleOf(c[i%100], d[p]))
	}
	return newCatalog(relation.Database{"R1": r1, "R2": r2, "R3": r3},
		&query{src: "pi[A D](R1 * R2 * R3)"},
		&query{src: "R1 * R2 * R3", strategy: "hash", count: true},
		&query{src: "pi[B D](R2 * R3)", strategy: "yannakakis", count: true},
	)
}

// buildTenants generates every tenant of a workload from the seed.
func buildTenants(workload string, seed int64) ([]*tenant, error) {
	rng := rand.New(rand.NewSource(seed))
	open, tight, err := chainTenants()
	if err != nil {
		return nil, err
	}
	if workload == "churn" {
		ts := []*tenant{tight.finish()}
		for i := 0; i < churnTenants; i++ {
			t := &tenant{name: fmt.Sprintf("churn%d", i), budget: generousBudget}
			for g := 0; g < churnGens; g++ {
				c, err := churnCatalog(rng)
				if err != nil {
					return nil, err
				}
				t.gens = append(t.gens, c)
			}
			ts = append(ts, t.finish())
		}
		return ts, nil
	}
	xor, err := cnf.XorChain(2, true)
	if err != nil {
		return nil, err
	}
	php, err := cnf.Pigeonhole(1)
	if err != nil {
		return nil, err
	}
	xt, err := gadgetTenant("xorchain2", xor, "hash")
	if err != nil {
		return nil, err
	}
	pt, err := gadgetTenant("pigeonhole1", php, "wcoj")
	if err != nil {
		return nil, err
	}
	fams, err := familyTenants(rng)
	if err != nil {
		return nil, err
	}
	ts := []*tenant{open, tight, xt, pt}
	for _, t := range append(ts, fams...) {
		t.finish()
	}
	return append(ts, fams...), nil
}
