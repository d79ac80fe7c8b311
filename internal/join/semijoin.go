package join

import (
	"relquery/internal/fault"
	"relquery/internal/governor"
	"relquery/internal/relation"
)

// Semijoin computes r ⋉ s: the tuples of r that join with at least one
// tuple of s on their shared attributes. When the schemes are disjoint,
// the result is r itself if s is nonempty and empty otherwise.
func Semijoin(r, s *relation.Relation) (*relation.Relation, error) {
	return SemijoinWith(r, s, nil)
}

// SemijoinWith is Semijoin under a governor: both scan loops tick g, so
// a semijoin pass over a large relation aborts at tuple granularity on
// cancel, deadline or budget violation. A nil governor is Semijoin.
func SemijoinWith(r, s *relation.Relation, g *governor.Governor) (*relation.Relation, error) {
	fault.Hit(fault.Semijoin)
	shared := r.Scheme().Intersect(s.Scheme())
	keyR, err := projectionKeys(r.Scheme(), shared)
	if err != nil {
		return nil, err
	}
	keyS, err := projectionKeys(s.Scheme(), shared)
	if err != nil {
		return nil, err
	}
	keys := make(map[string]struct{}, s.Len())
	var loopErr error
	s.Each(func(t relation.Tuple) bool {
		if loopErr = g.Tick(); loopErr != nil {
			return false
		}
		keys[keyS(t)] = struct{}{}
		return true
	})
	if loopErr != nil {
		return nil, loopErr
	}
	out := relation.New(r.Scheme())
	r.Each(func(t relation.Tuple) bool {
		if loopErr = g.Tick(); loopErr != nil {
			return false
		}
		if _, ok := keys[keyR(t)]; ok {
			if _, err := out.Add(t); err != nil {
				loopErr = err
				return false
			}
		}
		return true
	})
	if loopErr != nil {
		return nil, loopErr
	}
	return out, nil
}

// projectionKeys builds a closure mapping a tuple to the encoding of its
// projection onto `onto`.
func projectionKeys(src, onto relation.Scheme) (func(relation.Tuple) string, error) {
	pos := make([]int, onto.Len())
	for i := 0; i < onto.Len(); i++ {
		p, ok := src.Pos(onto.Attr(i))
		if !ok {
			return nil, errAttrMissing(onto.Attr(i), src)
		}
		pos[i] = p
	}
	return func(t relation.Tuple) string {
		sub := make(relation.Tuple, len(pos))
		for i, p := range pos {
			sub[i] = t[p]
		}
		return sub.Key()
	}, nil
}

func errAttrMissing(a relation.Attribute, s relation.Scheme) error {
	return &attrError{attr: a, scheme: s}
}

type attrError struct {
	attr   relation.Attribute
	scheme relation.Scheme
}

func (e *attrError) Error() string {
	return "join: attribute " + string(e.attr) + " not in scheme " + e.scheme.String()
}
