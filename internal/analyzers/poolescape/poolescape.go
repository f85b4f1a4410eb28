// Package poolescape defines an analyzer keeping pool borrows inside their
// borrow scope. A pool is a sync.Pool or one of the module's own free lists
// (a named type ending in "Pool" with Get and Put methods, such as
// internal/maxent's workspacePool, which must survive garbage collections a
// sync.Pool would not). A value obtained from pool.Get() is on loan: the
// solver workspaces and scratch buffers pooled by internal/maxent and
// internal/optimize are reused the moment they are Put back, so a borrow
// that outlives the function aliases memory another goroutine will scribble
// over.
//
// Within each function, a variable initialized from `pool.Get()` (usually
// through a type assertion) must not
//
//   - be returned,
//   - be stored into a struct field, map/slice element, package-level
//     variable, or sent on a channel, or
//   - be used after a non-deferred `pool.Put(x)`.
//
// `defer pool.Put(x)` is the blessed pattern and never triggers the
// use-after-put rule. Variables ever reassigned from a non-pool source stop
// being tracked (conservative: no flow-splitting on reassignment).
package poolescape

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"

	"repro/internal/analyzers/framework"
)

// Analyzer is the poolescape analysis.
var Analyzer = &framework.Analyzer{
	Name: "poolescape",
	Doc:  "check that pool borrows (sync.Pool or a module free list) do not escape their borrow scope or get used after Put",
	Run:  run,
}

func run(pass *framework.Pass) error {
	for _, f := range pass.NonTestFiles() {
		for _, decl := range f.Decls {
			if fd, ok := decl.(*ast.FuncDecl); ok && fd.Body != nil {
				checkFunc(pass, fd)
			}
		}
	}
	return nil
}

// isPoolGet reports whether e is a call to a pool's Get, looking through
// type assertions and parens.
func isPoolGet(e ast.Expr, info *types.Info) bool {
	switch e := e.(type) {
	case *ast.ParenExpr:
		return isPoolGet(e.X, info)
	case *ast.TypeAssertExpr:
		return isPoolGet(e.X, info)
	case *ast.CallExpr:
		sel, ok := e.Fun.(*ast.SelectorExpr)
		if !ok || sel.Sel.Name != "Get" {
			return false
		}
		return isPoolType(info.TypeOf(sel.X))
	}
	return false
}

func isPoolType(t types.Type) bool {
	if t == nil {
		return false
	}
	if p, ok := t.Underlying().(*types.Pointer); ok {
		t = p.Elem()
	}
	n, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := n.Obj()
	if obj.Pkg() != nil && obj.Pkg().Path() == "sync" && obj.Name() == "Pool" {
		return true
	}
	if !strings.HasSuffix(obj.Name(), "Pool") {
		return false
	}
	ms := types.NewMethodSet(types.NewPointer(n))
	return ms.Lookup(obj.Pkg(), "Get") != nil && ms.Lookup(obj.Pkg(), "Put") != nil
}

func checkFunc(pass *framework.Pass, fd *ast.FuncDecl) {
	info := pass.TypesInfo

	// Collect borrows and drop any variable that is also assigned from a
	// non-pool source.
	borrows := make(map[types.Object]bool)
	disqualified := make(map[types.Object]bool)
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		as, ok := n.(*ast.AssignStmt)
		if !ok || len(as.Lhs) != len(as.Rhs) {
			return true
		}
		for i, lhs := range as.Lhs {
			id, ok := lhs.(*ast.Ident)
			if !ok || id.Name == "_" {
				continue
			}
			obj := info.ObjectOf(id)
			if obj == nil {
				continue
			}
			if isPoolGet(as.Rhs[i], info) {
				borrows[obj] = true
			} else {
				disqualified[obj] = true
			}
		}
		return true
	})
	for obj := range disqualified {
		delete(borrows, obj)
	}
	if len(borrows) == 0 {
		return
	}

	isBorrow := func(e ast.Expr) types.Object {
		if p, ok := e.(*ast.ParenExpr); ok {
			e = p.X
		}
		if u, ok := e.(*ast.UnaryExpr); ok && u.Op == token.AND {
			e = u.X
		}
		id, ok := e.(*ast.Ident)
		if !ok {
			return nil
		}
		obj := info.ObjectOf(id)
		if obj != nil && borrows[obj] {
			return obj
		}
		return nil
	}

	// Non-deferred Put positions per borrow. Puts inside a deferred closure
	// (`defer func() { ...; pool.Put(x) }()`) run at function exit like a
	// direct `defer pool.Put(x)` and don't bound the borrow's live range.
	putEnd := make(map[types.Object]token.Pos)
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		if _, ok := n.(*ast.DeferStmt); ok {
			return false
		}
		es, ok := n.(*ast.ExprStmt)
		if !ok {
			return true
		}
		call, ok := es.X.(*ast.CallExpr)
		if !ok || len(call.Args) != 1 {
			return true
		}
		sel, ok := call.Fun.(*ast.SelectorExpr)
		if !ok || sel.Sel.Name != "Put" || !isPoolType(info.TypeOf(sel.X)) {
			return true
		}
		if obj := isBorrow(call.Args[0]); obj != nil {
			if cur, ok := putEnd[obj]; !ok || call.End() < cur {
				putEnd[obj] = call.End()
			}
		}
		return true
	})

	ast.Inspect(fd.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.ReturnStmt:
			// Only a result that IS the borrow escapes; a value computed
			// from it (ws.Solution(), copies) is fine.
			for _, res := range n.Results {
				if obj := isBorrow(res); obj != nil {
					pass.Reportf(res.Pos(), "pooled %s returned from %s; it must stay within its borrow scope",
						obj.Name(), fd.Name.Name)
				}
			}
		case *ast.AssignStmt:
			for i, rhs := range n.Rhs {
				if i >= len(n.Lhs) {
					break
				}
				obj := isBorrow(rhs)
				if obj == nil {
					continue
				}
				switch lhs := n.Lhs[i].(type) {
				case *ast.SelectorExpr:
					pass.Reportf(rhs.Pos(), "pooled %s stored into field %s; the borrow escapes its scope",
						obj.Name(), lhs.Sel.Name)
				case *ast.IndexExpr:
					pass.Reportf(rhs.Pos(), "pooled %s stored into a map or slice element; the borrow escapes its scope",
						obj.Name())
				case *ast.Ident:
					if tgt := info.ObjectOf(lhs); tgt != nil && tgt.Parent() == pass.Pkg.Scope() {
						pass.Reportf(rhs.Pos(), "pooled %s stored into package variable %s; the borrow escapes its scope",
							obj.Name(), lhs.Name)
					}
				}
			}
		case *ast.SendStmt:
			if obj := isBorrow(n.Value); obj != nil {
				pass.Reportf(n.Value.Pos(), "pooled %s sent on a channel; the borrow escapes its scope", obj.Name())
			}
		case *ast.Ident:
			obj := info.ObjectOf(n)
			if obj == nil || !borrows[obj] {
				return true
			}
			if end, ok := putEnd[obj]; ok && n.Pos() > end {
				pass.Reportf(n.Pos(), "pooled %s used after Put; the pool may have handed it to another goroutine",
					obj.Name())
			}
		}
		return true
	})
}
