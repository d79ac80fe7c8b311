package join

import (
	"fmt"

	"relquery/internal/relation"
)

// Order decides the sequence in which an n-ary join combines its inputs.
type Order int

const (
	// Sequential joins the inputs left to right as written — the paper's
	// literal reading of R₁ ∗ R₂ ∗ … ∗ R_k. Used by experiment E7 to expose
	// the inherent intermediate blow-up.
	Sequential Order = iota
	// Greedy repeatedly joins the pair whose schemes share attributes and
	// whose size product is smallest, falling back to the globally smallest
	// product when only cross products remain. A simple but effective
	// heuristic planner.
	Greedy
)

// String returns the order's flag name.
func (o Order) String() string {
	switch o {
	case Sequential:
		return "sequential"
	case Greedy:
		return "greedy"
	default:
		return fmt.Sprintf("Order(%d)", int(o))
	}
}

// OrderByName parses an Order from its flag name.
func OrderByName(name string) (Order, error) {
	switch name {
	case "sequential":
		return Sequential, nil
	case "greedy":
		return Greedy, nil
	default:
		return 0, fmt.Errorf("join: unknown order %q (want sequential or greedy)", name)
	}
}

// Multi computes the natural join of all inputs using alg for each binary
// join, combining in the given order, and calls x.Observe on every
// binary-join result. Joining zero relations is an error (the neutral
// element — the relation over the empty scheme holding the empty tuple —
// is almost never what a caller wants); joining one relation returns it
// unchanged.
func Multi(x Exec, inputs []*relation.Relation, alg Algorithm, order Order) (*relation.Relation, error) {
	switch len(inputs) {
	case 0:
		return nil, fmt.Errorf("join: Multi requires at least one input")
	case 1:
		return inputs[0], nil
	}
	if order != Sequential && order != Greedy {
		return nil, fmt.Errorf("join: unknown order %v", order)
	}
	pending := make([]*relation.Relation, len(inputs))
	copy(pending, inputs)
	for len(pending) > 1 {
		// Sequential folds left to right as written; Greedy picks the
		// cheapest pair each step.
		bi, bj := 0, 1
		if order == Greedy {
			bi, bj = pickPair(pending)
		}
		joined, err := alg.Join(x, pending[bi], pending[bj])
		if err != nil {
			return nil, err
		}
		if err := x.Observe(joined); err != nil {
			return nil, err
		}
		// Remove bj first (bj > bi), then replace bi.
		pending = append(pending[:bj], pending[bj+1:]...)
		pending[bi] = joined
	}
	return pending[0], nil
}

// pickPair chooses the next pair to join: among pairs whose schemes share
// at least one attribute, the one with the smallest size product; if no
// pair shares attributes, the overall smallest product (an unavoidable
// cross product). Returns indices with i < j.
func pickPair(rels []*relation.Relation) (int, int) {
	bestI, bestJ := 0, 1
	bestShared := false
	bestCost := -1
	for i := 0; i < len(rels); i++ {
		for j := i + 1; j < len(rels); j++ {
			shared := !rels[i].Scheme().Disjoint(rels[j].Scheme())
			cost := rels[i].Len() * rels[j].Len()
			better := false
			switch {
			case shared && !bestShared:
				better = true
			case shared == bestShared && (bestCost < 0 || cost < bestCost):
				better = true
			}
			if better {
				bestI, bestJ, bestShared, bestCost = i, j, shared, cost
			}
		}
	}
	return bestI, bestJ
}
