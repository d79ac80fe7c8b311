package join

import (
	"fmt"

	"relquery/internal/fault"
	"relquery/internal/relation"
)

// Yannakakis evaluates α-acyclic n-ary natural joins with Yannakakis'
// algorithm: GYO ear removal yields a join tree, a leaf-to-root plus
// root-to-leaf semijoin sweep (the "full reducer") deletes every dangling
// tuple, and the reduced relations are then joined along the tree. After
// full reduction every tuple of every relation extends to at least one
// output tuple, so each intermediate join along the tree is bounded by
// the output projected onto its subtree — evaluation is linear in input
// plus output, the Durand–Grandjean tractable frontier of exactly the
// problem the paper proves hard for general (cyclic) queries.
//
// The contrast with the other strategies: the greedy binary planner can
// be forced to materialize dangling combinations exponentially larger
// than the output, and the worst-case-optimal Generic join, while never
// exceeding the AGM bound, still sorts every input into a trie up front.
// On acyclic inputs Yannakakis does neither — semijoins only shrink, and
// the tree joins never outgrow the output.
//
// On a cyclic hypergraph the algorithm does not apply; JoinAll then
// falls back to the greedy binary plan (Multi over hash joins), so the
// type is safe to force on arbitrary queries via -join=yannakakis. The
// algebra evaluator detects the cyclic case up front and routes it
// through its normal binary path instead, where every binary step is a
// pairwise-reduced Join.
//
// Every semijoin pass is counted into the metrics with its output
// cardinality, and the governor is ticked inside every semijoin sweep
// and every tree join, so both full-reducer passes and the final joins
// abort at tuple granularity.
type Yannakakis struct{}

// YannakakisStats reports one acyclic join's full-reducer effort.
type YannakakisStats struct {
	// Acyclic records the GYO verdict: false means the hypergraph was
	// cyclic and the greedy-binary fallback produced the result.
	Acyclic bool
	// Semijoins counts the semijoin passes executed by the full reducer
	// (bottom-up plus top-down; 2·(edges−1) on acyclic inputs).
	Semijoins int
	// InputRows totals the input cardinalities before reduction.
	InputRows int
	// ReducedRows totals the cardinalities surviving the full reducer —
	// the "semijoin-pass cardinality" EXPLAIN ANALYZE reports. Dangling
	// tuples are exactly InputRows − ReducedRows.
	ReducedRows int
}

// Name implements Algorithm.
func (Yannakakis) Name() string { return "yannakakis" }

// Join implements Algorithm; two relations are always α-acyclic, so a
// binary Yannakakis join is a pairwise full reduction (one semijoin each
// way) followed by a hash join of the reduced sides. Like every binary
// join it observes nothing: the n-ary caller observes the result.
func (y Yannakakis) Join(x Exec, l, r *relation.Relation) (*relation.Relation, error) {
	out, _, err := y.join(x, NewPlan([]*relation.Relation{l, r}), false)
	return out, err
}

// JoinAll returns the natural join of the plan's inputs along the
// plan's GYO join tree, with the full-reducer counters for trace spans.
// It calls x.Observe on every relation it materializes — each semijoin
// result and each join along the tree — so the span's peak and the
// governor's budgets see the whole reduction. Like Multi, joining zero
// relations is an error and a single relation passes through unchanged.
func (y Yannakakis) JoinAll(x Exec, p *Plan) (*relation.Relation, YannakakisStats, error) {
	return y.join(x, p, true)
}

// join is JoinAll with observation switchable: the binary Join runs the
// same reduction without observing its internal steps.
func (Yannakakis) join(x Exec, p *Plan, observe bool) (*relation.Relation, YannakakisStats, error) {
	fault.Hit(fault.JoinStart)
	inputs := p.Inputs()
	if err := x.Gov.Check(); err != nil {
		return nil, YannakakisStats{}, err
	}
	switch len(inputs) {
	case 0:
		return nil, YannakakisStats{}, fmt.Errorf("join: JoinAll requires at least one input")
	case 1:
		return inputs[0], YannakakisStats{Acyclic: true, InputRows: inputs[0].Len(), ReducedRows: inputs[0].Len()}, nil
	}
	stats := YannakakisStats{}
	for _, r := range inputs {
		stats.InputRows += r.Len()
	}
	tree, ok := p.JoinTree()
	if !ok {
		// Cyclic: no join tree exists. Fall back to the greedy binary
		// plan — sound for any join, just without the acyclic
		// output-boundedness guarantee. (Two inputs are never cyclic, so
		// the binary Join cannot get here.)
		out, err := Multi(x, inputs, Hash{}, Greedy)
		return out, stats, err
	}
	stats.Acyclic = true

	reduced, semijoins, err := fullReduce(x, inputs, tree, observe)
	if err != nil {
		return nil, stats, err
	}
	stats.Semijoins = semijoins
	for _, r := range reduced {
		stats.ReducedRows += r.Len()
	}

	// Join children into parents along the tree, leaves first: with the
	// relations fully reduced, every intermediate tuple extends to an
	// output tuple, so no step outgrows the output.
	acc := make([]*relation.Relation, len(reduced))
	copy(acc, reduced)
	for _, i := range tree.Order {
		p := tree.Parent[i]
		if p < 0 {
			continue
		}
		joined, err := Hash{}.Join(x, acc[p], acc[i])
		if err != nil {
			return nil, stats, err
		}
		if observe {
			if err := x.Observe(joined); err != nil {
				return nil, stats, err
			}
		}
		acc[p] = joined
	}
	root := tree.Root()
	if root < 0 {
		return nil, stats, fmt.Errorf("join: internal error: join tree has no root")
	}
	x.Metrics.Yannakakis()
	return acc[root], stats, nil
}

// fullReduce runs the two semijoin sweeps over the join tree: leaf to
// root (parent ⋉ child, in ear-removal order), then root to leaf (child
// ⋉ parent, reversed). After both sweeps the relations are globally
// consistent: every remaining tuple participates in at least one output
// tuple. With observe set, every semijoin result passes through
// x.Observe.
func fullReduce(x Exec, rels []*relation.Relation, tree *JoinTree, observe bool) ([]*relation.Relation, int, error) {
	out := make([]*relation.Relation, len(rels))
	copy(out, rels)
	semijoins := 0
	reduce := func(dst, src int) error {
		reduced, err := SemijoinWith(out[dst], out[src], x.Gov)
		if err != nil {
			return err
		}
		semijoins++
		x.Metrics.Semijoin(reduced.Len())
		if observe {
			if err := x.Observe(reduced); err != nil {
				return err
			}
		}
		out[dst] = reduced
		return nil
	}
	for _, i := range tree.Order {
		if p := tree.Parent[i]; p >= 0 {
			if err := reduce(p, i); err != nil {
				return nil, semijoins, err
			}
		}
	}
	for k := len(tree.Order) - 1; k >= 0; k-- {
		i := tree.Order[k]
		if p := tree.Parent[i]; p >= 0 {
			if err := reduce(i, p); err != nil {
				return nil, semijoins, err
			}
		}
	}
	return out, semijoins, nil
}

// FullReduce runs Yannakakis' full reducer over an acyclic join and
// returns the reduced relations together with the number of semijoins
// performed. It reports an error when the relations' scheme hypergraph
// is cyclic: no semijoin program removes every dangling tuple there.
func FullReduce(rels []*relation.Relation) ([]*relation.Relation, int, error) {
	edges := SchemesOf(rels)
	tree, ok := JoinTreeOf(edges)
	if !ok {
		return nil, 0, fmt.Errorf("join: full reduction requires an acyclic join (schemes %v)", edges)
	}
	return fullReduce(Exec{}, rels, tree, false)
}

var _ Algorithm = Yannakakis{}
