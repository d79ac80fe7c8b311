// Package govloop checks that tuple loops in the evaluation engine stay
// under governance. The resource governor's contract (DESIGN.md,
// "Resource governance") is that every loop whose trip count scales
// with relation cardinality polls the governor — Tick amortizes the
// poll to one atomic load per CheckEvery iterations — so cancellation
// latency and budget overshoot stay bounded by one batch. A
// cardinality-scaled loop with no reachable governor call reintroduces
// exactly the unbounded work the governor exists to bound, and no test
// catches it until a production query hangs past its deadline.
//
// The analyzer flags for/range loops over tuple collections (slices of
// relation.Tuple, and Relation.Each callbacks, whose bodies are loop
// bodies in all but syntax) inside the engine packages when the
// enclosing function has a governor in scope but the loop body cannot
// reach a governor method: directly, through same-package helpers, or
// by delegating the governor itself into a callee. Loops that are
// genuinely cardinality-bounded can be annotated
// `//lint:ungoverned <reason>` — the reason is required, so the waiver
// documents itself.
package govloop

import (
	"go/ast"
	"go/types"

	"relquery/internal/analysis/framework"
)

// enginePkgs are the package names govloop polices: the packages whose
// loops run once per tuple of user-controlled relations.
var enginePkgs = map[string]bool{
	"join":    true,
	"algebra": true,
	"decide":  true,
	"tableau": true,
}

// governorMethods are the *governor.Governor methods that count as a
// governance poll or charge.
var governorMethods = map[string]bool{
	"Tick":        true,
	"Check":       true,
	"CheckRows":   true,
	"CheckOutput": true,
	"ChargeBytes": true,
	"Admit":       true,
	"Fail":        true,
}

var Analyzer = &framework.Analyzer{
	Name: "govloop",
	Doc:  "tuple loops in engine packages must reach a governor Tick/Check or carry a //lint:ungoverned reason",
	Run:  run,
}

func run(pass *framework.Pass) error {
	if !enginePkgs[pass.Pkg.Name()] {
		return nil
	}
	reach := framework.NewReachability(pass, isGovernorMethod)
	for _, file := range pass.Files {
		dirs := framework.Directives(pass.Fset, file)
		c := &checker{pass: pass, reach: reach, dirs: dirs}
		for _, decl := range file.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			c.checkFunc(fd)
		}
	}
	return nil
}

// isGovernorMethod reports whether fn is a governance method on the
// governor type (matched by package and type name, so fixtures
// modeling the real package exercise the same logic).
func isGovernorMethod(fn *types.Func) bool {
	if !governorMethods[fn.Name()] {
		return false
	}
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return false
	}
	return framework.IsNamed(sig.Recv().Type(), "governor", "Governor")
}

func isGovernorPtr(t types.Type) bool {
	return t != nil && framework.IsNamed(t, "governor", "Governor")
}

// carriesGovernor reports whether a value of type t hands its holder a
// governor: t is the governor pointer itself, or a struct (or pointer to
// one) with a governor field — the join package's execution context,
// whose Gov field is the only governor a strategy receives.
func carriesGovernor(t types.Type) bool {
	if isGovernorPtr(t) {
		return true
	}
	if t == nil {
		return false
	}
	if p, ok := t.Underlying().(*types.Pointer); ok {
		t = p.Elem()
	}
	st, ok := t.Underlying().(*types.Struct)
	if !ok {
		return false
	}
	for i := 0; i < st.NumFields(); i++ {
		if isGovernorPtr(st.Field(i).Type()) {
			return true
		}
	}
	return false
}

type checker struct {
	pass  *framework.Pass
	reach *framework.Reachability
	dirs  map[int]framework.Directive
}

// checkFunc flags ungoverned tuple loops in one declared function. The
// check only applies when a governor is in scope — as the receiver, a
// parameter (directly or as a field of a context struct like join.Exec),
// or any expression mentioned in the body (an evaluator's Gov field, a
// local) — because without one there is nothing the loop could tick.
func (c *checker) checkFunc(fd *ast.FuncDecl) {
	if !c.governorInScope(fd) {
		return
	}
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		switch x := n.(type) {
		case *ast.RangeStmt:
			if c.isTupleRange(x) {
				c.checkLoop(x, x.Body, "range over tuples")
			}
		case *ast.CallExpr:
			if body := eachCallbackBody(c.pass, x); body != nil {
				c.checkLoop(x, body, "Relation.Each callback")
			}
		}
		return true
	})
}

// governorInScope reports whether fd has a *governor.Governor reachable
// by name: in its signature (receiver included; parameters also count
// when they are context structs carrying one) or as any typed expression
// in its body.
func (c *checker) governorInScope(fd *ast.FuncDecl) bool {
	obj, ok := c.pass.Info.Defs[fd.Name].(*types.Func)
	if ok {
		sig := obj.Type().(*types.Signature)
		if recv := sig.Recv(); recv != nil && isGovernorPtr(recv.Type()) {
			return true
		}
		params := sig.Params()
		for i := 0; i < params.Len(); i++ {
			if carriesGovernor(params.At(i).Type()) {
				return true
			}
		}
	}
	found := false
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		if found {
			return false
		}
		expr, ok := n.(ast.Expr)
		if !ok {
			return true
		}
		if isGovernorPtr(c.pass.Info.TypeOf(expr)) {
			found = true
			return false
		}
		return true
	})
	return found
}

// isTupleRange reports whether the range statement iterates a slice of
// relation.Tuple — the shape whose trip count is a relation cardinality.
// Ranging over one Tuple's attributes is width-bounded and exempt.
func (c *checker) isTupleRange(rng *ast.RangeStmt) bool {
	t := c.pass.Info.TypeOf(rng.X)
	if t == nil {
		return false
	}
	slice, ok := t.Underlying().(*types.Slice)
	if !ok {
		return false
	}
	return framework.IsNamed(slice.Elem(), "relation", "Tuple")
}

// eachCallbackBody returns the function-literal body of a
// Relation.Each(func(t Tuple) bool) call, or nil when call is not one.
func eachCallbackBody(pass *framework.Pass, call *ast.CallExpr) *ast.BlockStmt {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok || sel.Sel.Name != "Each" || len(call.Args) != 1 {
		return nil
	}
	if !framework.IsNamed(pass.Info.TypeOf(sel.X), "relation", "Relation") {
		return nil
	}
	lit, ok := ast.Unparen(call.Args[0]).(*ast.FuncLit)
	if !ok {
		return nil
	}
	return lit.Body
}

// checkLoop reports loop (at node pos) unless its body reaches a
// governor method, hands the governor to a callee, or carries a
// reasoned //lint:ungoverned directive.
func (c *checker) checkLoop(at ast.Node, body *ast.BlockStmt, what string) {
	if d, ok := framework.DirectiveFor(c.pass.Fset, c.dirs, at, "ungoverned"); ok {
		if d.Reason == "" {
			c.pass.Reportf(at.Pos(), "//lint:ungoverned needs a reason: say why this %s is cardinality-bounded", what)
		}
		return
	}
	if c.reach.Reaches(body) || delegatesGovernor(c.pass, body) {
		return
	}
	c.pass.Reportf(at.Pos(), "%s has no reachable governor Tick/Check: tick per tuple, pass the governor down, or annotate //lint:ungoverned <reason>", what)
}

// delegatesGovernor reports whether any call or composite literal under
// n hands a *governor.Governor to other code — the engine's idiom for
// "the callee governs on our behalf" (sub-evaluators take Gov fields,
// helpers take governor parameters or an execution context carrying
// one).
func delegatesGovernor(pass *framework.Pass, n ast.Node) bool {
	found := false
	ast.Inspect(n, func(x ast.Node) bool {
		if found {
			return false
		}
		switch y := x.(type) {
		case *ast.CallExpr:
			for _, arg := range y.Args {
				if carriesGovernor(pass.Info.TypeOf(arg)) {
					found = true
					return false
				}
			}
		case *ast.KeyValueExpr:
			if isGovernorPtr(pass.Info.TypeOf(y.Value)) {
				found = true
				return false
			}
		}
		return true
	})
	return found
}
