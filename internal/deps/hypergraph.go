package deps

import (
	"fmt"

	"relquery/internal/algebra"
	"relquery/internal/join"
	"relquery/internal/relation"
	"relquery/internal/tableau"
)

// Hypergraph is the scheme hypergraph of a join query: one hyperedge per
// joined relation scheme.
type Hypergraph struct {
	Edges []relation.Scheme
}

// JoinTree is the output of a successful GYO reduction — an alias for
// join.JoinTree, where the reduction now lives so the planner can run it
// without importing deps (deps sits above join in the package hierarchy).
type JoinTree = join.JoinTree

// IsAcyclic reports whether the hypergraph is α-acyclic, via the
// Graham–Yu–Özsoyoğlu (GYO) reduction: repeatedly (1) delete attributes
// that occur in exactly one edge, and (2) delete edges contained in
// another edge, recording the container as the parent. The hypergraph is
// acyclic iff everything reduces away. When acyclic, the returned JoinTree
// drives Yannakakis' algorithm. It delegates to join.JoinTreeOf.
func (h Hypergraph) IsAcyclic() (bool, *JoinTree) {
	tree, ok := join.JoinTreeOf(h.Edges)
	if !ok {
		return false, nil
	}
	return true, tree
}

// Semijoin computes r ⋉ s: the tuples of r that join with at least one
// tuple of s. It delegates to the join package's implementation.
func Semijoin(r, s *relation.Relation) (*relation.Relation, error) {
	return join.Semijoin(r, s)
}

// FullReduce runs Yannakakis' full reducer over an acyclic join: a
// leaf-to-root semijoin sweep followed by a root-to-leaf sweep, after
// which every tuple of every relation participates in at least one join
// result (global consistency). It reports an error when the relations'
// scheme hypergraph is cyclic. It delegates to join.FullReduce, where the
// reducer now lives as part of the join.Yannakakis strategy.
func FullReduce(rels []*relation.Relation) ([]*relation.Relation, error) {
	out, _, err := join.FullReduce(rels)
	if err != nil {
		return nil, fmt.Errorf("deps: %w", err)
	}
	return out, nil
}

// AcyclicJoin evaluates the natural join of an acyclic collection of
// relations with Yannakakis' algorithm: full reduction, then joins along
// the join tree from leaves to root. After full reduction every
// intermediate join result joins losslessly with the remaining relations,
// so intermediate sizes are bounded by |output| · max |input| instead of
// exploding. It reports an error when the scheme hypergraph is cyclic —
// unlike join.Yannakakis, which quietly falls back to a binary plan
// there, this wrapper is for callers that rely on acyclicity.
func AcyclicJoin(rels []*relation.Relation) (*relation.Relation, error) {
	if len(rels) == 0 {
		return nil, fmt.Errorf("deps: AcyclicJoin of zero relations")
	}
	plan := join.NewPlan(rels)
	if _, ok := plan.JoinTree(); !ok {
		return nil, fmt.Errorf("deps: acyclic join requires an acyclic hypergraph (schemes %v)", join.SchemesOf(rels))
	}
	out, _, err := join.Yannakakis{}.JoinAll(join.Exec{}, plan)
	return out, err
}

// HoldsIn reports whether the relation satisfies the join dependency:
// ∗π_{Y_i}(R) = R. Since R ⊆ ∗π_{Y_i}(R) always holds (every tuple of R
// rejoins from its own projections), only the reverse containment is
// checked. For acyclic JDs the check runs in polynomial time via
// Yannakakis evaluation; for cyclic JDs it streams the join of projections
// through a tableau search, hunting for a recombined tuple outside R —
// space stays bounded, but time may be exponential: the problem is
// co-NP-complete in general, as the paper (after Maier–Sagiv–Yannakakis)
// proves.
func (jd JD) HoldsIn(r *relation.Relation) (bool, error) {
	holds, _, err := jd.Check(r)
	return holds, err
}

// Check is HoldsIn returning, on failure, a witness tuple of
// ∗π_{Y_i}(R) \ R over r's scheme.
func (jd JD) Check(r *relation.Relation) (holds bool, witness relation.Tuple, err error) {
	if err := jd.Validate(r.Scheme()); err != nil {
		return false, nil, err
	}
	if acyclic, _ := jd.Hypergraph().IsAcyclic(); acyclic {
		projections := make([]*relation.Relation, len(jd.Components))
		for i, c := range jd.Components {
			p, err := r.Project(c)
			if err != nil {
				return false, nil, err
			}
			projections[i] = p
		}
		joined, err := AcyclicJoin(projections)
		if err != nil {
			return false, nil, err
		}
		// |∗π(R)| ≥ |R| always; a size excess means some tuple is new.
		if joined.Len() == r.Len() {
			return true, nil, nil
		}
		aligned, err := joined.Project(r.Scheme())
		if err != nil {
			return false, nil, err
		}
		diff, err := aligned.Difference(r)
		if err != nil {
			return false, nil, err
		}
		return false, diff.Tuple(0), nil
	}
	return jd.checkCyclic(r)
}

// checkCyclic streams the join of projections via a tableau valuation
// search, stopping at the first recombined tuple outside r.
func (jd JD) checkCyclic(r *relation.Relation) (bool, relation.Tuple, error) {
	const operand = "R"
	op, err := algebra.NewOperand(operand, r.Scheme())
	if err != nil {
		return false, nil, err
	}
	args := make([]algebra.Expr, len(jd.Components))
	for i, c := range jd.Components {
		p, err := algebra.NewProject(c, op)
		if err != nil {
			return false, nil, err
		}
		args[i] = p
	}
	join, err := algebra.JoinAll(args...)
	if err != nil {
		return false, nil, err
	}
	tb, err := tableau.New(join)
	if err != nil {
		return false, nil, err
	}
	db := relation.Single(operand, r)
	// The join's target scheme is set-equal to r's scheme (the JD's
	// components cover it) but may order columns differently; witnesses
	// are realigned to r's column order before being returned.
	var witness relation.Tuple
	err = tb.Stream(db, func(tp relation.Tuple) bool {
		nt := relation.NamedTuple{Scheme: tb.Target, Vals: tp}
		if !r.ContainsNamed(nt) {
			aligned, perr := nt.Project(r.Scheme())
			if perr == nil {
				witness = aligned.Vals
			} else {
				witness = tp.Clone()
			}
			return false
		}
		return true
	})
	if err != nil {
		return false, nil, err
	}
	return witness == nil, witness, nil
}
