package join

import (
	"relquery/internal/relation"
)

// Cardinality estimation in the classic System R style: the estimated size
// of a natural join is the product of the input sizes divided, for each
// shared attribute, by the larger of the two distinct-value counts —
// assuming uniformity and inclusion, the textbook selectivity model.

// ColumnStats holds per-attribute distinct-value counts for one relation.
type ColumnStats struct {
	// Rows is the relation's cardinality.
	Rows int
	// Distinct maps each attribute to its number of distinct values.
	Distinct map[relation.Attribute]int
}

// Analyze computes column statistics for a relation in one pass.
func Analyze(r *relation.Relation) ColumnStats {
	s := ColumnStats{
		Rows:     r.Len(),
		Distinct: make(map[relation.Attribute]int, r.Scheme().Len()),
	}
	scheme := r.Scheme()
	sets := make([]map[relation.Value]struct{}, scheme.Len())
	for i := range sets {
		sets[i] = make(map[relation.Value]struct{})
	}
	r.Each(func(t relation.Tuple) bool {
		for i, v := range t {
			sets[i][v] = struct{}{}
		}
		return true
	})
	for i := 0; i < scheme.Len(); i++ {
		s.Distinct[scheme.Attr(i)] = len(sets[i])
	}
	return s
}

// EstimateJoinSize predicts |l ∗ r| from the two relations' statistics and
// schemes: |l|·|r| / ∏_{a shared} max(V(a,l), V(a,r)).
func EstimateJoinSize(lScheme relation.Scheme, l ColumnStats, rScheme relation.Scheme, r ColumnStats) float64 {
	est := float64(l.Rows) * float64(r.Rows)
	shared := lScheme.Intersect(rScheme)
	for _, a := range shared.Attrs() {
		vl, vr := l.Distinct[a], r.Distinct[a]
		if vl < vr {
			vl = vr
		}
		if vl > 1 {
			est /= float64(vl)
		}
	}
	return est
}

// PredictedPeakGreedy simulates the greedy binary planner purely over
// System R estimates — no joins are executed — and returns the largest
// intermediate result a binary plan over these inputs is predicted to
// materialize. Inputs with fewer than two relations predict no
// intermediates (0). Plan.Peak is the larger of this and
// WorstCasePeakGreedy, from one simulation.
func PredictedPeakGreedy(inputs []*relation.Relation) float64 {
	est, _ := greedyPeaks(inputs)
	return est
}

// WorstCasePeakGreedy simulates the same greedy pairing but scores each
// intermediate accumulator by the AGM bound of the base relations merged
// into it — the largest result a binary plan could be FORCED to
// materialize at that step, independent of the data's correlations. The
// estimate-based peak misses the Lemma 1 gadgets precisely because their
// correlations break System R's independence assumption; the worst-case
// peak does not. The final accumulator (the full input set) is excluded:
// its bound is the n-ary AGM bound itself, which no plan can avoid.
func WorstCasePeakGreedy(inputs []*relation.Relation) float64 {
	_, worst := greedyPeaks(inputs)
	return worst
}

// greedyPeaks runs the shared greedy-plan simulation and returns both the
// System R estimated peak and the worst-case (AGM) peak over intermediate
// accumulators.
func greedyPeaks(inputs []*relation.Relation) (estPeak, worstPeak float64) {
	if len(inputs) < 2 {
		return 0, 0
	}
	type estRel struct {
		scheme   relation.Scheme
		rows     float64
		distinct map[relation.Attribute]float64
	}
	estimate := func(l, r estRel) float64 {
		est := l.rows * r.rows
		for _, a := range l.scheme.Intersect(r.scheme).Attrs() {
			if v := max(l.distinct[a], r.distinct[a]); v > 1 {
				est /= v
			}
		}
		return est
	}
	pending := make([]estRel, len(inputs))
	base := make([][]*relation.Relation, len(inputs)) // base relations per accumulator
	for i, r := range inputs {
		s := Analyze(r)
		d := make(map[relation.Attribute]float64, len(s.Distinct))
		for a, v := range s.Distinct {
			d[a] = float64(v)
		}
		pending[i] = estRel{scheme: r.Scheme(), rows: float64(s.Rows), distinct: d}
		base[i] = inputs[i : i+1]
	}
	peak := 0.0
	for len(pending) > 1 {
		// Prefer shared-attribute pairs, then the smallest estimated
		// join size.
		bestI, bestJ := 0, 1
		bestShared := false
		bestCost := -1.0
		for i := 0; i < len(pending); i++ {
			for j := i + 1; j < len(pending); j++ {
				shared := !pending[i].scheme.Disjoint(pending[j].scheme)
				cost := estimate(pending[i], pending[j])
				switch {
				case shared && !bestShared,
					shared == bestShared && (bestCost < 0 || cost < bestCost):
					bestI, bestJ, bestShared, bestCost = i, j, shared, cost
				}
			}
		}
		l, r := pending[bestI], pending[bestJ]
		est := estimate(l, r)
		if est > peak {
			peak = est
		}
		merged := estRel{
			scheme:   l.scheme.Union(r.scheme),
			rows:     est,
			distinct: make(map[relation.Attribute]float64, l.scheme.Len()+r.scheme.Len()),
		}
		for _, a := range merged.scheme.Attrs() {
			v := 0.0
			switch {
			case l.scheme.Has(a) && r.scheme.Has(a):
				v = min(l.distinct[a], r.distinct[a])
			case l.scheme.Has(a):
				v = l.distinct[a]
			default:
				v = r.distinct[a]
			}
			merged.distinct[a] = min(v, max(est, 1))
		}
		mergedBase := append(append([]*relation.Relation{}, base[bestI]...), base[bestJ]...)
		if len(pending) > 2 { // intermediate, not the final full-set result
			if wc := AGMBoundOf(mergedBase); wc > worstPeak {
				worstPeak = wc
			}
		}
		pending = append(pending[:bestJ], pending[bestJ+1:]...)
		base = append(base[:bestJ], base[bestJ+1:]...)
		pending[bestI] = merged
		base[bestI] = mergedBase
	}
	return peak, worstPeak
}
