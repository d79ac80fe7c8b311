package join

import (
	"testing"

	"relquery/internal/relation"
)

func schemesOfSpecs(t *testing.T, specs ...string) []relation.Scheme {
	t.Helper()
	out := make([]relation.Scheme, len(specs))
	for i, s := range specs {
		sc, err := relation.SchemeOf(s)
		if err != nil {
			t.Fatal(err)
		}
		out[i] = sc
	}
	return out
}

func TestJoinTreeOfVerdicts(t *testing.T) {
	cases := []struct {
		name    string
		edges   []string
		acyclic bool
	}{
		{"empty", nil, true},
		{"single", []string{"A B C"}, true},
		{"chain", []string{"A B", "B C", "C D"}, true},
		{"star", []string{"A B", "A C", "A D"}, true},
		{"triangle", []string{"A B", "B C", "A C"}, false},
		{"triangle with cover", []string{"A B", "B C", "A C", "A B C"}, true},
		{"contained duplicate", []string{"A B", "A B"}, true},
		{"self-join", []string{"A B", "A B", "A B"}, true},
		{"disconnected", []string{"A B", "C D"}, true},
		{"disconnected with cycle", []string{"A B", "E F", "F G", "E G"}, false},
		{"snowflake", []string{"A B C", "A D", "B E", "C F"}, true},
		{"cycle of length four", []string{"A B", "B C", "C D", "D A"}, false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			edges := schemesOfSpecs(t, tc.edges...)
			tree, ok := JoinTreeOf(edges)
			if ok != tc.acyclic {
				t.Fatalf("JoinTreeOf acyclic = %v, want %v", ok, tc.acyclic)
			}
			if !ok {
				if tree != nil {
					t.Errorf("cyclic verdict returned a tree: %+v", tree)
				}
				return
			}
			checkJoinTree(t, edges, tree)
		})
	}
}

// checkJoinTree verifies the structural contract of a GYO join tree:
// Order is a permutation of the edges ending in the root, every non-root
// edge has a live parent removed after it, and the tree has the
// running-intersection property (for every attribute, the edges
// containing it induce a connected subtree).
func checkJoinTree(t *testing.T, edges []relation.Scheme, tree *JoinTree) {
	t.Helper()
	n := len(edges)
	if len(tree.Parent) != n || len(tree.Order) != n {
		t.Fatalf("malformed tree: %d edges, Parent %d, Order %d", n, len(tree.Parent), len(tree.Order))
	}
	pos := make([]int, n) // removal position of each edge
	seen := make([]bool, n)
	for k, i := range tree.Order {
		if i < 0 || i >= n || seen[i] {
			t.Fatalf("Order is not a permutation: %v", tree.Order)
		}
		seen[i] = true
		pos[i] = k
	}
	root := tree.Root()
	if n > 0 && tree.Parent[root] != -1 {
		t.Fatalf("root %d has parent %d", root, tree.Parent[root])
	}
	for i := 0; i < n; i++ {
		p := tree.Parent[i]
		if i == root {
			continue
		}
		if p < 0 || p >= n || p == i {
			t.Fatalf("edge %d has invalid parent %d", i, p)
		}
		if pos[p] <= pos[i] {
			t.Errorf("edge %d removed after its parent %d", i, p)
		}
	}
	if !runningIntersection(edges, tree.Parent) {
		t.Errorf("tree lacks the running-intersection property: parents %v", tree.Parent)
	}
}

func TestJoinTreeOfDeterministic(t *testing.T) {
	edges := schemesOfSpecs(t, "A B C", "A D", "B E", "C F", "F G")
	first, ok := JoinTreeOf(edges)
	if !ok {
		t.Fatal("snowflake chain should be acyclic")
	}
	for i := 0; i < 10; i++ {
		tree, ok := JoinTreeOf(edges)
		if !ok {
			t.Fatal("verdict changed across runs")
		}
		if len(tree.Order) != len(first.Order) {
			t.Fatal("order length changed across runs")
		}
		for k := range tree.Order {
			if tree.Order[k] != first.Order[k] || tree.Parent[k] != first.Parent[k] {
				t.Fatalf("tree changed across runs: %+v vs %+v", tree, first)
			}
		}
	}
}

func TestJoinTreeRootEmpty(t *testing.T) {
	tree, ok := JoinTreeOf(nil)
	if !ok || tree.Root() != -1 {
		t.Errorf("empty hypergraph: ok=%v root=%d", ok, tree.Root())
	}
	var nilTree *JoinTree
	if nilTree.Root() != -1 {
		t.Error("nil tree root should be -1")
	}
}
