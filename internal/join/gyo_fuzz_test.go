package join

import (
	"math/rand"
	"testing"

	"relquery/internal/relation"
)

// fuzzAttrs is the attribute pool for fuzzed hypergraphs: up to 6
// attributes, so a hyperedge is a 6-bit mask and the brute-force oracle
// (all labeled trees over ≤5 edges, 5³ = 125 candidates) stays cheap.
var fuzzAttrs = []relation.Attribute{"A", "B", "C", "D", "E", "F"}

// maskEdge decodes a nonzero 6-bit mask into a scheme over fuzzAttrs.
func maskEdge(t *testing.T, mask byte) relation.Scheme {
	t.Helper()
	var attrs []relation.Attribute
	for i, a := range fuzzAttrs {
		if mask&(1<<i) != 0 {
			attrs = append(attrs, a)
		}
	}
	s, err := relation.NewScheme(attrs...)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// runningIntersection reports whether the tree given by parent pointers
// has the running-intersection property over the hyperedges: for every
// attribute, the tree nodes whose edge contains it induce a connected
// subtree. By the Beeri–Fagin–Maier–Yannakakis theorem a hypergraph has
// such a tree iff it is α-acyclic.
func runningIntersection(edges []relation.Scheme, parent []int) bool {
	n := len(edges)
	adj := make([][]int, n)
	for i, p := range parent {
		if p >= 0 {
			adj[i] = append(adj[i], p)
			adj[p] = append(adj[p], i)
		}
	}
	attrs := map[relation.Attribute][]int{}
	for i, e := range edges {
		for _, a := range e.Attrs() {
			attrs[a] = append(attrs[a], i)
		}
	}
	for _, nodes := range attrs {
		in := make(map[int]bool, len(nodes))
		for _, i := range nodes {
			in[i] = true
		}
		// BFS within the induced subgraph from the first node.
		seen := map[int]bool{nodes[0]: true}
		queue := []int{nodes[0]}
		for len(queue) > 0 {
			v := queue[0]
			queue = queue[1:]
			for _, w := range adj[v] {
				if in[w] && !seen[w] {
					seen[w] = true
					queue = append(queue, w)
				}
			}
		}
		if len(seen) != len(nodes) {
			return false
		}
	}
	return true
}

// pruferTree decodes a Prüfer sequence over n labeled nodes into parent
// pointers rooted at node n-1. Iterating all n^(n-2) sequences iterates
// all labeled trees exactly once (Cayley's formula).
func pruferTree(n int, seq []int) []int {
	parent := make([]int, n)
	for i := range parent {
		parent[i] = -1
	}
	if n < 2 {
		return parent
	}
	degree := make([]int, n)
	for i := range degree {
		degree[i] = 1
	}
	for _, v := range seq {
		degree[v]++
	}
	type pair struct{ a, b int }
	var links []pair
	for _, v := range seq {
		for u := 0; u < n; u++ {
			if degree[u] == 1 {
				links = append(links, pair{u, v})
				degree[u]--
				degree[v]--
				break
			}
		}
	}
	u, v := -1, -1
	for i := 0; i < n; i++ {
		if degree[i] == 1 {
			if u < 0 {
				u = i
			} else {
				v = i
			}
		}
	}
	links = append(links, pair{u, v})
	// Orient every link toward the root n-1.
	adj := make([][]int, n)
	for _, l := range links {
		adj[l.a] = append(adj[l.a], l.b)
		adj[l.b] = append(adj[l.b], l.a)
	}
	seen := make([]bool, n)
	seen[n-1] = true
	queue := []int{n - 1}
	for len(queue) > 0 {
		x := queue[0]
		queue = queue[1:]
		for _, y := range adj[x] {
			if !seen[y] {
				seen[y] = true
				parent[y] = x
				queue = append(queue, y)
			}
		}
	}
	return parent
}

// acyclicOracle brute-forces α-acyclicity: the hypergraph is acyclic iff
// some labeled tree over its edges has the running-intersection property.
func acyclicOracle(edges []relation.Scheme) bool {
	n := len(edges)
	if n <= 1 {
		return true
	}
	seq := make([]int, n-2)
	for {
		if runningIntersection(edges, pruferTree(n, seq)) {
			return true
		}
		// Increment the sequence in base n.
		i := 0
		for ; i < len(seq); i++ {
			seq[i]++
			if seq[i] < n {
				break
			}
			seq[i] = 0
		}
		if i == len(seq) {
			return false
		}
	}
}

// FuzzGYO cross-checks the GYO reduction and the Yannakakis strategy on
// random hypergraphs: the verdict must agree with the brute-force
// spanning-tree oracle, a returned join tree must itself witness
// acyclicity, the strategy's JoinAll must equal the greedy hash plan, and
// on acyclic inputs the full reducer must leave exactly the projections
// of the join (global consistency).
func FuzzGYO(f *testing.F) {
	f.Add(byte(0b000011), byte(0b000110), byte(0b001100), byte(0), byte(0), int64(1)) // chain
	f.Add(byte(0b000011), byte(0b000110), byte(0b000101), byte(0), byte(0), int64(2)) // triangle
	f.Add(byte(0b000111), byte(0b001001), byte(0b010010), byte(0b100100), byte(0), int64(3))
	f.Add(byte(0b000011), byte(0b000011), byte(0b000011), byte(0b001100), byte(0b110000), int64(4))
	f.Fuzz(func(t *testing.T, m1, m2, m3, m4, m5 byte, seed int64) {
		var edges []relation.Scheme
		for _, m := range []byte{m1, m2, m3, m4, m5} {
			if m &= 0b111111; m != 0 {
				edges = append(edges, maskEdge(t, m))
			}
		}
		tree, got := JoinTreeOf(edges)
		if want := acyclicOracle(edges); got != want {
			t.Fatalf("GYO says acyclic=%v, oracle says %v for %v", got, want, edges)
		}
		if got && len(edges) > 0 {
			if !runningIntersection(edges, tree.Parent) {
				t.Fatalf("GYO tree %v lacks running intersection for %v", tree.Parent, edges)
			}
		}
		if len(edges) == 0 {
			return
		}

		// Data parity: Yannakakis (full reducer on acyclic inputs, binary
		// fallback on cyclic ones) must agree with the greedy hash plan.
		rng := rand.New(rand.NewSource(seed))
		rels := make([]*relation.Relation, len(edges))
		for i, e := range edges {
			rels[i] = randomRelation(rng, e, 4)
		}
		want, err := Multi(Exec{}, rels, Hash{}, Greedy)
		if err != nil {
			t.Fatal(err)
		}
		gotRel, stats, err := Yannakakis{}.JoinAll(Exec{}, NewPlan(rels))
		if err != nil {
			t.Fatal(err)
		}
		if !gotRel.Equal(want) {
			t.Fatalf("Yannakakis join differs from greedy hash plan: %v vs %v",
				gotRel.Sorted(), want.Sorted())
		}
		if len(edges) > 1 && stats.Acyclic != got {
			t.Fatalf("JoinAll acyclic=%v, GYO said %v", stats.Acyclic, got)
		}

		if got {
			// Global consistency: the full reducer leaves each relation
			// equal to the join projected onto its scheme.
			reduced, _, err := FullReduce(rels)
			if err != nil {
				t.Fatal(err)
			}
			for i, r := range reduced {
				proj, err := want.Project(edges[i])
				if err != nil {
					t.Fatal(err)
				}
				if !r.Equal(proj) {
					t.Fatalf("reduced[%d] = %v, want projection %v", i, r.Sorted(), proj.Sorted())
				}
				if r.Len() > rels[i].Len() {
					t.Fatalf("full reducer grew relation %d", i)
				}
			}
		} else if _, _, err := FullReduce(rels); err == nil {
			t.Fatal("FullReduce accepted a cyclic hypergraph")
		}
	})
}

// TestAcyclicOracleSelfCheck pins the oracle on known shapes so FuzzGYO
// is not testing GYO against a broken referee.
func TestAcyclicOracleSelfCheck(t *testing.T) {
	cases := []struct {
		edges   []string
		acyclic bool
	}{
		{[]string{"A B", "B C", "C D"}, true},
		{[]string{"A B", "B C", "A C"}, false},
		{[]string{"A B", "B C", "A C", "A B C"}, true},
		{[]string{"A B", "B C", "C D", "D A"}, false},
		{[]string{"A B", "C D"}, true},
	}
	for _, tc := range cases {
		edges := schemesOfSpecs(t, tc.edges...)
		if got := acyclicOracle(edges); got != tc.acyclic {
			t.Errorf("oracle(%v) = %v, want %v", tc.edges, got, tc.acyclic)
		}
	}
}
