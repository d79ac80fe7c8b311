package framework

import (
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"strings"
	"testing"
)

// TestLoadAndRunOnModulePackage drives the whole loading pipeline (go
// list export closure, source type-check, importer) against a real
// module package and runs a trivial analyzer over it.
func TestLoadAndRunOnModulePackage(t *testing.T) {
	wd, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	root, err := ModuleRoot(wd)
	if err != nil {
		t.Fatal(err)
	}
	prog, err := LoadPackages(root, "./internal/join/...")
	if err != nil {
		t.Fatal(err)
	}
	if len(prog.Pkgs) == 0 {
		t.Fatal("no packages loaded")
	}
	funcs := 0
	count := &Analyzer{
		Name: "count",
		Doc:  "counts function declarations",
		Run: func(pass *Pass) error {
			for _, f := range pass.Files {
				for _, d := range f.Decls {
					if _, ok := d.(*ast.FuncDecl); ok {
						funcs++
					}
				}
			}
			return nil
		},
	}
	diags, err := prog.Run(count)
	if err != nil {
		t.Fatal(err)
	}
	if len(diags) != 0 {
		t.Errorf("counting analyzer reported %d diagnostics", len(diags))
	}
	if funcs == 0 {
		t.Error("no function declarations seen in internal/join")
	}
	// The deprecation registry is fed from the loaded sources: it exists
	// even when, as in internal/join today, no symbol is deprecated.
	if prog.Deprecated == nil {
		t.Fatal("loader built no deprecation registry")
	}
	if n := len(prog.Deprecated.byKey); n != 0 {
		t.Errorf("deprecation registry indexed %d symbols in internal/join, want none: %v", n, prog.Deprecated.byKey)
	}
}

// TestRunFixturesReporting checks the fixture harness end to end with an
// analyzer that flags functions named Bad.
func TestRunFixturesReporting(t *testing.T) {
	flagBad := &Analyzer{
		Name: "flagbad",
		Doc:  "flags functions named Bad",
		Run: func(pass *Pass) error {
			for _, f := range pass.Files {
				for _, d := range f.Decls {
					if fd, ok := d.(*ast.FuncDecl); ok && fd.Name.Name == "Bad" {
						pass.Reportf(fd.Pos(), "function named Bad")
					}
				}
			}
			return nil
		},
	}
	RunFixtures(t, "testdata", flagBad, "x")
}

func TestSortDiagnostics(t *testing.T) {
	diags := []Diagnostic{
		{Pos: token.Position{Filename: "b.go", Line: 1, Column: 1}, Analyzer: "z", Message: "m"},
		{Pos: token.Position{Filename: "a.go", Line: 2, Column: 1}, Analyzer: "z", Message: "m"},
		{Pos: token.Position{Filename: "a.go", Line: 1, Column: 5}, Analyzer: "z", Message: "m"},
		{Pos: token.Position{Filename: "a.go", Line: 1, Column: 5}, Analyzer: "a", Message: "m"},
		{Pos: token.Position{Filename: "a.go", Line: 1, Column: 2}, Analyzer: "z", Message: "m"},
	}
	sortDiagnostics(diags)
	var got []string
	for _, d := range diags {
		got = append(got, d.String())
	}
	want := []string{
		"a.go:1:2: m (z)",
		"a.go:1:5: m (a)",
		"a.go:1:5: m (z)",
		"a.go:2:1: m (z)",
		"b.go:1:1: m (z)",
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("order[%d] = %q, want %q", i, got[i], want[i])
		}
	}
}

const stackSrc = `package p

func f() {
	if true {
		_ = 1
	}
}
`

func TestWalkStack(t *testing.T) {
	fset := token.NewFileSet()
	file, err := parser.ParseFile(fset, "p.go", stackSrc, 0)
	if err != nil {
		t.Fatal(err)
	}
	sawIf := false
	WalkStack(file, func(n ast.Node, stack []ast.Node) bool {
		if len(stack) > 0 && stack[0] != file {
			t.Errorf("stack[0] = %T, want *ast.File", stack[0])
		}
		if _, ok := n.(*ast.IfStmt); ok {
			sawIf = true
			// File > FuncDecl > BlockStmt enclose the if.
			if len(stack) != 3 {
				t.Errorf("if statement stack depth = %d, want 3", len(stack))
			}
		}
		return true
	})
	if !sawIf {
		t.Error("walk never reached the if statement")
	}

	// Pruning a FuncDecl must skip its body without corrupting the stack.
	visited := 0
	WalkStack(file, func(n ast.Node, stack []ast.Node) bool {
		visited++
		_, isFunc := n.(*ast.FuncDecl)
		return !isFunc
	})
	if visited != 3 { // file, ident (package name is not a Decl)... func decl
		// file, funcdecl, and the package name ident
		t.Errorf("pruned walk visited %d nodes, want 3", visited)
	}
}

const deprSrc = `package p

// Deprecated: use New instead.
type Old struct {
	// Deprecated: use Size instead.
	Count int
	Size  int
}

// Run runs.
//
// Deprecated: use Walk instead.
func (o *Old) Run() {}

// Deprecated: gone.
var V, W int

// Deprecated: use F.
func G() { V = 1 }

func F() {}
`

func TestCollectDeprecations(t *testing.T) {
	fset := token.NewFileSet()
	file, err := parser.ParseFile(fset, "p.go", deprSrc, parser.ParseComments)
	if err != nil {
		t.Fatal(err)
	}
	d := &Deprecations{}
	collectDeprecations(d, "example.com/p", []*ast.File{file})
	for key, wantSub := range map[string]string{
		"example.com/p.Old":       "use New",
		"example.com/p.Old.Count": "use Size",
		"example.com/p.Old.Run":   "use Walk",
		"example.com/p.V":         "gone",
		"example.com/p.W":         "gone",
		"example.com/p.G":         "use F",
	} {
		msg, ok := d.Lookup(key)
		if !ok {
			t.Errorf("missing deprecation for %s", key)
			continue
		}
		if !strings.Contains(msg, wantSub) {
			t.Errorf("%s notice = %q, want substring %q", key, msg, wantSub)
		}
	}
	if _, ok := d.Lookup("example.com/p.Old.Size"); ok {
		t.Error("non-deprecated field Size indexed")
	}
	if _, ok := d.Lookup("example.com/p.F"); ok {
		t.Error("non-deprecated func F indexed")
	}

	// DeclDeprecated: a position inside G's body is inside a deprecated
	// declaration; one inside F is not.
	var gPos, fPos token.Pos
	for _, decl := range file.Decls {
		if fd, ok := decl.(*ast.FuncDecl); ok {
			switch fd.Name.Name {
			case "G":
				gPos = fd.Body.Pos()
			case "F":
				fPos = fd.Body.Pos()
			}
		}
	}
	if !DeclDeprecated(file, gPos) {
		t.Error("body of deprecated G not recognized")
	}
	if DeclDeprecated(file, fPos) {
		t.Error("body of plain F misclassified as deprecated")
	}
}
