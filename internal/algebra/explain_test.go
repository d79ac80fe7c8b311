package algebra

import (
	"strings"
	"testing"

	"relquery/internal/governor"
	"relquery/internal/relation"
)

func TestExplainShape(t *testing.T) {
	r := mkrel(t, "A B C", "1 x p", "2 x q", "2 y q")
	db := relation.Single("T", r)
	e, err := ParseForDatabase("pi[A C](pi[A B](T) * pi[B C](T))", db)
	if err != nil {
		t.Fatal(err)
	}
	out, err := Explain(e, db)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 6 { // pi, join, pi, T, pi, T
		t.Fatalf("lines = %d:\n%s", len(lines), out)
	}
	if !strings.HasPrefix(lines[0], "pi[A C]") || !strings.Contains(lines[0], "rows=") {
		t.Errorf("root line = %q", lines[0])
	}
	if !strings.Contains(lines[1], "natural join") {
		t.Errorf("join line = %q", lines[1])
	}
	// The join node's count (5) exceeds the projection above it (4) —
	// the shape Explain is meant to surface.
	if !strings.Contains(lines[0], "rows=4") || !strings.Contains(lines[1], "rows=5") {
		t.Errorf("row counts wrong:\n%s", out)
	}
	// Tree connectors present.
	if !strings.Contains(out, "├─") || !strings.Contains(out, "└─") {
		t.Errorf("missing connectors:\n%s", out)
	}
}

func TestExplainOperandOnly(t *testing.T) {
	r := mkrel(t, "A", "1", "2")
	db := relation.Single("T", r)
	e, err := ParseForDatabase("T", db)
	if err != nil {
		t.Fatal(err)
	}
	out, err := Explain(e, db)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(out, "T") || !strings.Contains(out, "rows=2") {
		t.Errorf("Explain = %q", out)
	}
}

func TestExplainPropagatesErrors(t *testing.T) {
	e := MustOperand("Missing", relation.MustScheme("A"))
	if _, err := Explain(e, relation.NewDatabase()); err == nil {
		t.Error("missing operand accepted")
	}
}

func TestExplainWithBudget(t *testing.T) {
	db := relation.NewDatabase()
	db.Put("L", mkrel(t, "A", "1", "2", "3"))
	db.Put("R", mkrel(t, "B", "1", "2", "3"))
	e := MustJoin(
		MustOperand("L", relation.MustScheme("A")),
		MustOperand("R", relation.MustScheme("B")),
	)
	ev := Evaluator{Limits: governor.Limits{MaxIntermediateRows: 2}}
	if _, err := ExplainWith(&ev, e, db); err == nil {
		t.Error("budget violation not propagated")
	}
}
