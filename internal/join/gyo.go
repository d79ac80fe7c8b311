package join

import (
	"relquery/internal/relation"
)

// α-acyclicity detection for join hypergraphs via the Graham–Yu–Özsoyoğlu
// (GYO) ear-removal reduction. The join hypergraph of an n-ary natural
// join has one hyperedge per joined scheme; the join is α-acyclic exactly
// when repeatedly (1) deleting attributes that occur in a single edge and
// (2) deleting edges contained in another edge reduces the hypergraph to
// one edge. The reduction simultaneously yields a join tree — the data
// structure Yannakakis' algorithm runs over — so detection and planning
// are one pass. This is the machinery behind the acyclic fast path: the
// Durand–Grandjean line of work places α-acyclic joins in the tractable
// (linear, output-bounded) frontier of exactly the evaluation problem the
// paper proves hard in general.

// JoinTree is the output of a successful GYO reduction: Parent[i] is the
// index of edge i's parent (the edge that witnessed its removal as an
// ear), or -1 for the root. Order is the ear-removal order, ending with
// the root; visiting Order[0], Order[1], … therefore performs a
// leaf-to-root semijoin sweep, and the reverse order a root-to-leaf one.
type JoinTree struct {
	Parent []int
	Order  []int
}

// Root returns the index of the tree's root edge, or -1 for the empty
// tree.
func (t *JoinTree) Root() int {
	if t == nil || len(t.Order) == 0 {
		return -1
	}
	return t.Order[len(t.Order)-1]
}

// JoinTreeOf runs the GYO reduction over the join hypergraph with the
// given edges. When the hypergraph is α-acyclic it returns a join tree
// with the running-intersection property (for every attribute, the edges
// containing it form a connected subtree) and true; otherwise nil and
// false. Zero edges reduce to the empty tree; a single edge is its own
// root. The reduction is deterministic: ears are removed in ascending
// edge-index order, so equal inputs always produce equal trees — the
// parity suites lean on that.
func JoinTreeOf(edges []relation.Scheme) (*JoinTree, bool) {
	n := len(edges)
	tree := &JoinTree{Parent: make([]int, n)}
	for i := range tree.Parent {
		tree.Parent[i] = -1
	}
	if n == 0 {
		return tree, true
	}
	// Work on mutable attribute sets.
	sets := make([]map[relation.Attribute]bool, n)
	for i, e := range edges {
		sets[i] = make(map[relation.Attribute]bool, e.Len())
		for _, a := range e.Attrs() {
			sets[i][a] = true
		}
	}
	alive := make([]bool, n)
	for i := range alive {
		alive[i] = true
	}
	aliveCount := n

	for aliveCount > 1 {
		progressed := false

		// Rule 1: remove attributes occurring in exactly one live edge.
		count := make(map[relation.Attribute]int)
		for i, e := range sets {
			if !alive[i] {
				continue
			}
			for a := range e {
				count[a]++
			}
		}
		for i, e := range sets {
			if !alive[i] {
				continue
			}
			for a := range e {
				if count[a] == 1 {
					delete(e, a)
					progressed = true
				}
			}
		}

		// Rule 2: remove edges contained in another live edge.
		for i := 0; i < n && aliveCount > 1; i++ {
			if !alive[i] {
				continue
			}
			for j := 0; j < n; j++ {
				if i == j || !alive[j] {
					continue
				}
				if containsAttrSet(sets[j], sets[i]) {
					alive[i] = false
					aliveCount--
					tree.Parent[i] = j
					tree.Order = append(tree.Order, i)
					progressed = true
					break
				}
			}
		}

		if !progressed {
			return nil, false
		}
	}
	// The last live edge is the root.
	for i := range alive {
		if alive[i] {
			tree.Order = append(tree.Order, i)
		}
	}
	return tree, true
}

// SchemesOf collects the schemes of the given relations — the join
// hypergraph's edges, in input order.
func SchemesOf(rels []*relation.Relation) []relation.Scheme {
	edges := make([]relation.Scheme, len(rels))
	for i, r := range rels {
		edges[i] = r.Scheme()
	}
	return edges
}

// containsAttrSet reports whether sub ⊆ super.
func containsAttrSet(super, sub map[relation.Attribute]bool) bool {
	if len(sub) > len(super) {
		return false
	}
	for a := range sub {
		if !super[a] {
			return false
		}
	}
	return true
}
