// Fixture for govloop: the governor reaches a strategy only as the Gov
// field of its execution-context parameter, as in the real join package.
package join

import (
	"relquery/internal/governor"
	"relquery/internal/relation"
)

// Exec models join.Exec: metrics, governor and span travel together.
type Exec struct {
	Gov *governor.Governor
}

// ExecUngoverned never touches x.Gov, yet the context puts a governor in
// scope: the tuple loop must still be flagged.
func ExecUngoverned(x Exec, r *relation.Relation) int {
	n := 0
	r.Each(func(t relation.Tuple) bool { // want `Relation\.Each callback has no reachable governor Tick/Check`
		n++
		return true
	})
	return n
}

// ExecTicked polls the context's governor per tuple: clean.
func ExecTicked(x Exec, r *relation.Relation) error {
	var err error
	r.Each(func(t relation.Tuple) bool {
		err = x.Gov.Tick()
		return err == nil
	})
	return err
}

// ExecDelegated hands the whole context to a callee, which governs on
// its behalf: clean.
func ExecDelegated(x Exec, rows []relation.Tuple, sink func(Exec) error) error {
	for range rows {
		if err := sink(x); err != nil {
			return err
		}
	}
	return nil
}
