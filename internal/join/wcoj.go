package join

import (
	"fmt"
	"sort"

	"relquery/internal/fault"
	"relquery/internal/governor"
	"relquery/internal/relation"
)

// Generic is a worst-case-optimal n-ary natural join in the
// NPRR/LeapFrog-TrieJoin family ("Worst-case optimal join algorithms",
// Ngo–Porat–Ré–Rudra; "Leapfrog Triejoin", Veldhuizen): instead of
// combining relations pairwise, it fixes one global attribute order and
// extends a partial binding one attribute at a time, intersecting the
// candidate values of every relation containing that attribute. A binding
// survives only while every relation still has matching tuples, so the
// algorithm never materializes anything larger than the final output —
// its running time is O(AGM bound) up to log factors, which is exactly
// the ceiling internal/join/agm.go computes.
//
// This is the antidote to the paper's Lemma 1 phenomenon: Cosmadakis'
// gadget queries force every binary join tree through an intermediate
// exponentially larger than input and output, but the n-ary output itself
// stays small, so the attribute-at-a-time join side-steps the blow-up
// entirely (experiment E7, BENCH_wcoj.txt).
//
// Each relation is indexed as a sorted trie: its tuples, with columns
// permuted into the global attribute order, sorted lexicographically. A
// partial binding then corresponds to a contiguous row range per
// relation, and intersecting a new attribute is a walk over the distinct
// values of the smallest range with binary-search narrowing in the
// others.
//
// It counts the rows indexed into tries as built and the candidate
// values examined as probed, next to its own candidate/intersection
// counters. The governor is ticked during trie construction and once per
// candidate value, with a row-budget check as output bindings
// accumulate, so even a search that stays under the AGM bound dies
// promptly on cancel or budget violation.
type Generic struct{}

// GenericStats reports one generic join's search effort.
type GenericStats struct {
	// Candidates counts the distinct candidate values enumerated across
	// all attribute intersections (each was tested against every other
	// relation containing the attribute).
	Candidates int
	// Intersections counts the attribute-level intersection passes — one
	// per node of the binding search tree.
	Intersections int
}

// Name implements Algorithm.
func (Generic) Name() string { return "wcoj" }

// Join implements Algorithm; a binary generic join is simply the two-input
// case of JoinAll.
func (g Generic) Join(x Exec, l, r *relation.Relation) (*relation.Relation, error) {
	out, _, err := g.JoinAll(x, NewPlan([]*relation.Relation{l, r}))
	return out, err
}

// JoinAll returns the natural join of the plan's inputs in one
// attribute-at-a-time pass, with the search-effort counters for trace
// spans; the attribute order reads the plan's fractional cover. Its
// only materialization is the result, which the caller observes. Like
// Multi, joining zero relations is an error and a single relation
// passes through unchanged.
func (Generic) JoinAll(x Exec, p *Plan) (*relation.Relation, GenericStats, error) {
	fault.Hit(fault.JoinStart)
	inputs := p.Inputs()
	switch len(inputs) {
	case 0:
		return nil, GenericStats{}, fmt.Errorf("join: JoinAll requires at least one input")
	case 1:
		return inputs[0], GenericStats{}, nil
	}
	// Output scheme: left-to-right union, matching the binary combiners.
	outScheme := inputs[0].Scheme()
	for _, r := range inputs[1:] {
		outScheme = outScheme.Union(r.Scheme())
	}
	for _, r := range inputs {
		if r.Empty() {
			empty, err := relation.FromDistinctTuples(outScheme)
			if err != nil {
				return nil, GenericStats{}, err
			}
			x.Metrics.ObserveJoin(0)
			return empty, GenericStats{}, nil
		}
	}

	order := attributeOrder(p, outScheme)
	tries := make([]*sortedTrie, len(inputs))
	indexed := 0
	for i, r := range inputs {
		t, err := newSortedTrie(r, order, x.Gov)
		if err != nil {
			return nil, GenericStats{}, err
		}
		tries[i] = t
		indexed += r.Len()
	}
	j := newGenericJoin(outScheme, order, tries)
	j.gov = x.Gov
	j.search(0)
	if j.err != nil {
		return nil, GenericStats{}, j.err
	}

	// Distinct bindings yield distinct output tuples, so the result
	// assembles without re-deduplication.
	out, err := relation.FromDistinctTuples(outScheme, j.tuples)
	if err != nil {
		return nil, GenericStats{}, err
	}
	gs := GenericStats{Candidates: j.candidates, Intersections: j.intersections}
	x.Metrics.JoinWork(indexed, j.candidates, out.Len())
	x.Metrics.ObserveJoin(out.Len())
	x.Metrics.WCOJ(gs.Candidates, gs.Intersections)
	return out, gs, nil
}

// attributeOrder fixes the global attribute order the tries and the
// binding search share: attributes shared by more relations come first
// (they constrain the search most), ties broken by the total fractional
// edge-cover weight of the relations containing the attribute (heavier
// cover mass = the attribute sits in the relations the AGM bound charges,
// so binding it early prunes against the bound), then by union-scheme
// position for determinism.
func attributeOrder(p *Plan, union relation.Scheme) []relation.Attribute {
	p.AGMBound() // solves the LP that fills p.cover
	attrs := union.Attrs()
	count := make([]int, len(attrs))
	mass := make([]float64, len(attrs))
	for k, a := range attrs {
		for i, r := range p.Inputs() {
			if r.Scheme().Has(a) {
				count[k]++
				if p.cover != nil {
					mass[k] += p.cover[i]
				}
			}
		}
	}
	pos := make([]int, len(attrs))
	for i := range pos {
		pos[i] = i
	}
	sort.SliceStable(pos, func(x, y int) bool {
		i, j := pos[x], pos[y]
		if count[i] != count[j] {
			return count[i] > count[j]
		}
		if mass[i] != mass[j] {
			return mass[i] > mass[j]
		}
		return i < j
	})
	order := make([]relation.Attribute, len(attrs))
	for x, i := range pos {
		order[x] = attrs[i]
	}
	return order
}

// sortedTrie is one relation's trie view: tuples with columns permuted
// into the global attribute order (restricted to the relation's scheme)
// and sorted lexicographically, so every partial binding corresponds to a
// contiguous row range and each trie level is a sorted value column.
type sortedTrie struct {
	depthOf map[relation.Attribute]int
	rows    [][]relation.Value
}

func newSortedTrie(r *relation.Relation, order []relation.Attribute, gov *governor.Governor) (*sortedTrie, error) {
	sc := r.Scheme()
	depthOf := make(map[relation.Attribute]int, sc.Len())
	cols := make([]int, 0, sc.Len())
	for _, a := range order {
		if j, ok := sc.Pos(a); ok {
			depthOf[a] = len(cols)
			cols = append(cols, j)
		}
	}
	rows := make([][]relation.Value, 0, r.Len())
	var err error
	r.Each(func(t relation.Tuple) bool {
		if err = gov.Tick(); err != nil {
			return false
		}
		row := make([]relation.Value, len(cols))
		for d, j := range cols {
			row[d] = t[j]
		}
		rows = append(rows, row)
		return true
	})
	if err != nil {
		return nil, err
	}
	sort.Slice(rows, func(i, j int) bool {
		a, b := rows[i], rows[j]
		for k := range a {
			if a[k] != b[k] {
				return a[k] < b[k]
			}
		}
		return false
	})
	return &sortedTrie{depthOf: depthOf, rows: rows}, nil
}

// trieRange is a half-open row range [lo, hi) of one trie — the tuples
// compatible with the current partial binding.
type trieRange struct{ lo, hi int }

// genericJoin is the state of one attribute-at-a-time binding search.
type genericJoin struct {
	order  []relation.Attribute
	tries  []*sortedTrie
	parts  [][]int     // parts[k]: tries whose scheme contains order[k]
	ranges []trieRange // current range per trie
	bind   []relation.Value
	outPos []int // output column -> order index
	tuples []relation.Tuple

	candidates    int
	intersections int

	// gov is the search's cooperative checkpoint; err is the abort
	// latch — once set, every recursion level unwinds immediately.
	gov *governor.Governor
	err error
}

func newGenericJoin(out relation.Scheme, order []relation.Attribute, tries []*sortedTrie) *genericJoin {
	rank := make(map[relation.Attribute]int, len(order))
	for k, a := range order {
		rank[a] = k
	}
	parts := make([][]int, len(order))
	for k, a := range order {
		for i, tr := range tries {
			if _, ok := tr.depthOf[a]; ok {
				parts[k] = append(parts[k], i)
			}
		}
	}
	ranges := make([]trieRange, len(tries))
	for i, tr := range tries {
		ranges[i] = trieRange{0, len(tr.rows)}
	}
	outPos := make([]int, out.Len())
	for i := 0; i < out.Len(); i++ {
		outPos[i] = rank[out.Attr(i)]
	}
	return &genericJoin{
		order:  order,
		tries:  tries,
		parts:  parts,
		ranges: ranges,
		bind:   make([]relation.Value, len(order)),
		outPos: outPos,
	}
}

// search extends the binding with the k-th attribute: it walks the
// distinct candidate values of the relation with the smallest compatible
// range and narrows every other relation containing the attribute by
// binary search, recursing only while all of them stay non-empty. A
// governor violation latches j.err and unwinds the whole recursion.
func (j *genericJoin) search(k int) {
	if j.err != nil {
		return
	}
	if k == len(j.order) {
		t := make(relation.Tuple, len(j.outPos))
		for i, oi := range j.outPos {
			t[i] = j.bind[oi]
		}
		j.tuples = append(j.tuples, t)
		if len(j.tuples)%checkBatch == 0 {
			j.err = j.gov.CheckRows(len(j.tuples))
		}
		return
	}
	attr := j.order[k]
	parts := j.parts[k]
	fault.Hit(fault.WCOJSearch)

	saved := make([]trieRange, len(parts))
	seedIdx := 0
	for i, p := range parts {
		saved[i] = j.ranges[p]
		if w, best := saved[i].hi-saved[i].lo, saved[seedIdx].hi-saved[seedIdx].lo; w < best {
			seedIdx = i
		}
	}
	seed := parts[seedIdx]
	st := j.tries[seed]
	d := st.depthOf[attr]
	j.intersections++

	lo, hi := saved[seedIdx].lo, saved[seedIdx].hi
	for lo < hi {
		if j.err = j.gov.Tick(); j.err != nil {
			return
		}
		v := st.rows[lo][d]
		vhi := upperBound(st.rows, lo, hi, d, v)
		j.candidates++

		ok := true
		for i, p := range parts {
			if p == seed {
				j.ranges[p] = trieRange{lo, vhi}
				continue
			}
			tp := j.tries[p]
			dp := tp.depthOf[attr]
			nlo := lowerBound(tp.rows, saved[i].lo, saved[i].hi, dp, v)
			nhi := upperBound(tp.rows, nlo, saved[i].hi, dp, v)
			if nlo == nhi {
				ok = false
				break
			}
			j.ranges[p] = trieRange{nlo, nhi}
		}
		if ok {
			j.bind[k] = v
			j.search(k + 1)
			if j.err != nil {
				return
			}
		}
		lo = vhi
	}
	for i, p := range parts {
		j.ranges[p] = saved[i]
	}
}

// lowerBound returns the first index in [lo, hi) whose column-d value is
// ≥ v (hi when none).
func lowerBound(rows [][]relation.Value, lo, hi, d int, v relation.Value) int {
	return lo + sort.Search(hi-lo, func(i int) bool { return rows[lo+i][d] >= v })
}

// upperBound returns the first index in [lo, hi) whose column-d value is
// > v (hi when none).
func upperBound(rows [][]relation.Value, lo, hi, d int, v relation.Value) int {
	return lo + sort.Search(hi-lo, func(i int) bool { return rows[lo+i][d] > v })
}

var _ Algorithm = Generic{}
