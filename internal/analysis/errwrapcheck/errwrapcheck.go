// Package errwrapcheck flags error-handling that breaks wrapped error
// chains: == / != / switch comparisons against sentinel errors, and
// fmt.Errorf formatting an error value without %w.
//
// Invariant guarded: the decision procedures return their budget
// sentinel wrapped — decide.ErrBudget always arrives inside an
// fmt.Errorf("%w: visited %d tuples ...") chain, and
// governor.ErrRowBudget likewise — so callers that compare with ==
// never match and silently misclassify a truncated search as a hard
// error. That is precisely the bug class PR 4 fixed by hand in
// internal/decide; this pass makes the fix permanent. Dually, building
// an error with fmt.Errorf("...%v", err) instead of %w severs the chain
// for every caller downstream.
package errwrapcheck

import (
	"go/ast"
	"go/constant"
	"go/token"
	"go/types"
	"strings"

	"relquery/internal/analysis/framework"
)

// Analyzer is the errwrapcheck pass.
var Analyzer = &framework.Analyzer{
	Name: "errwrapcheck",
	Doc: "flags ==/!=/switch comparisons against sentinel errors (use " +
		"errors.Is) and fmt.Errorf calls that format an error without %w",
	Run: run,
}

var errorIface = types.Universe.Lookup("error").Type().Underlying().(*types.Interface)

func isErrorType(t types.Type) bool {
	if t == nil {
		return false
	}
	return types.Implements(t, errorIface)
}

// sentinelName returns the rendered name of e when it denotes a
// package-level error variable named Err* — the sentinel convention —
// and "" otherwise.
func sentinelName(pass *framework.Pass, e ast.Expr) string {
	var id *ast.Ident
	prefix := ""
	switch v := ast.Unparen(e).(type) {
	case *ast.Ident:
		id = v
	case *ast.SelectorExpr:
		if x, ok := v.X.(*ast.Ident); ok {
			prefix = x.Name + "."
		}
		id = v.Sel
	default:
		return ""
	}
	obj, ok := pass.Info.Uses[id].(*types.Var)
	if !ok || obj.IsField() || obj.Pkg() == nil {
		return ""
	}
	if obj.Parent() != obj.Pkg().Scope() || !strings.HasPrefix(obj.Name(), "Err") {
		return ""
	}
	if !isErrorType(obj.Type()) {
		return ""
	}
	return prefix + id.Name
}

func run(pass *framework.Pass) error {
	for _, file := range pass.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			switch v := n.(type) {
			case *ast.BinaryExpr:
				checkComparison(pass, v)
			case *ast.SwitchStmt:
				checkSwitch(pass, v)
			case *ast.CallExpr:
				checkErrorf(pass, v)
			}
			return true
		})
	}
	return nil
}

func checkComparison(pass *framework.Pass, be *ast.BinaryExpr) {
	if be.Op != token.EQL && be.Op != token.NEQ {
		return
	}
	for _, pair := range [2][2]ast.Expr{{be.X, be.Y}, {be.Y, be.X}} {
		sentinel, other := pair[0], pair[1]
		name := sentinelName(pass, sentinel)
		if name == "" || !isErrorType(pass.Info.TypeOf(other)) {
			continue
		}
		pass.Reportf(be.Pos(),
			"%s compared with %s: sentinel errors arrive wrapped — use errors.Is", name, be.Op)
		return
	}
}

func checkSwitch(pass *framework.Pass, sw *ast.SwitchStmt) {
	if sw.Tag == nil || !isErrorType(pass.Info.TypeOf(sw.Tag)) {
		return
	}
	for _, stmt := range sw.Body.List {
		cc, ok := stmt.(*ast.CaseClause)
		if !ok {
			continue
		}
		for _, e := range cc.List {
			if name := sentinelName(pass, e); name != "" {
				pass.Reportf(e.Pos(),
					"switch case compares %s with ==: sentinel errors arrive wrapped — use errors.Is", name)
			}
		}
	}
}

// checkErrorf flags fmt.Errorf calls whose error-typed arguments exceed
// the %w verbs in the format string: those errors are flattened to text
// and lost to errors.Is/errors.As.
func checkErrorf(pass *framework.Pass, call *ast.CallExpr) {
	se, ok := call.Fun.(*ast.SelectorExpr)
	if !ok || se.Sel.Name != "Errorf" {
		return
	}
	pkgID, ok := se.X.(*ast.Ident)
	if !ok {
		return
	}
	pkgName, ok := pass.Info.Uses[pkgID].(*types.PkgName)
	if !ok || pkgName.Imported().Path() != "fmt" {
		return
	}
	if len(call.Args) < 2 {
		return
	}
	tv, ok := pass.Info.Types[call.Args[0]]
	if !ok || tv.Value == nil || tv.Value.Kind() != constant.String {
		return
	}
	wrapped := countWrapVerbs(constant.StringVal(tv.Value))
	errArgs := 0
	for _, arg := range call.Args[1:] {
		if isErrorType(pass.Info.TypeOf(arg)) {
			errArgs++
		}
	}
	if errArgs > wrapped {
		pass.Reportf(call.Pos(),
			"fmt.Errorf formats an error value without %%w: the wrapped chain is lost to errors.Is/errors.As")
	}
}

// countWrapVerbs counts %w verbs in a fmt format string, skipping %%.
func countWrapVerbs(format string) int {
	count := 0
	for i := 0; i < len(format); i++ {
		if format[i] != '%' {
			continue
		}
		i++
		// Skip flags, width, precision and argument indexes up to the
		// verb character.
		for i < len(format) && strings.ContainsRune("+-# 0123456789.[]*", rune(format[i])) {
			i++
		}
		if i < len(format) && format[i] == 'w' {
			count++
		}
	}
	return count
}
