package join

import (
	"errors"

	"relquery/internal/governor"
	"relquery/internal/relation"
)

// Plan is the decision record of one n-ary join node: the facts the
// paper's Lemma 1 dichotomy is decided on, each computed lazily and at
// most once from the node's inputs — one GYO pass (JoinTree: is the
// node α-acyclic, hence output-bounded under Yannakakis), one AGM LP
// (AGMBound, with the cover the generic join's attribute order reads)
// and one greedy-plan simulation (Peak). The strategy choice, admission
// gate, span annotation and n-ary executors all read the same Plan. A
// Plan is not safe for concurrent use.
type Plan struct {
	inputs []*relation.Relation

	treeDone, lpDone, peakDone bool

	tree    *JoinTree
	acyclic bool
	cover   []float64
	bound   float64
	peak    float64
}

// NewPlan returns the plan for joining inputs; nothing is analyzed yet.
func NewPlan(inputs []*relation.Relation) *Plan { return &Plan{inputs: inputs} }

// Inputs returns the relations the plan joins, in argument order.
func (p *Plan) Inputs() []*relation.Relation { return p.inputs }

// JoinTree returns JoinTreeOf over the inputs' schemes.
func (p *Plan) JoinTree() (*JoinTree, bool) {
	if !p.treeDone {
		p.tree, p.acyclic = JoinTreeOf(SchemesOf(p.inputs))
		p.treeDone = true
	}
	return p.tree, p.acyclic
}

// AGMBound returns the AGM bound of the node's output. The LP's
// minimizing cover (see FractionalCover) is kept for the generic join's
// attribute order.
func (p *Plan) AGMBound() float64 {
	if !p.lpDone {
		sizes := make([]int, len(p.inputs))
		for i, r := range p.inputs {
			sizes[i] = r.Len()
		}
		p.cover, p.bound = FractionalCover(SchemesOf(p.inputs), sizes)
		p.lpDone = true
	}
	return p.bound
}

// Peak returns the predicted peak intermediate of the greedy binary
// planner over the inputs: the larger of PredictedPeakGreedy and
// WorstCasePeakGreedy, from one simulation.
func (p *Plan) Peak() float64 {
	if !p.peakDone {
		est, worst := greedyPeaks(p.inputs)
		p.peak = max(est, worst)
		p.peakDone = true
	}
	return p.peak
}

// Admit is the admission rule. It rejects the node before any join
// work runs when its Peak exceeds the governor's intermediate-row
// budget, unless outputBounded — the node runs on a strategy that never
// materializes past the AGM bound — and that bound fits the budget. The
// rejection is a *governor.AdmissionError carrying the AGM bound. With
// no budget nothing is analyzed.
func (p *Plan) Admit(gov *governor.Governor, outputBounded bool) error {
	if gov.Limits().MaxIntermediateRows <= 0 {
		return nil
	}
	bounded := 0.0
	if outputBounded {
		bounded = p.AGMBound()
	}
	err := gov.Admit(p.Peak(), bounded)
	var ae *governor.AdmissionError
	if errors.As(err, &ae) {
		ae.AGMBound = p.AGMBound()
	}
	return err
}
