// Package stripelock defines an analyzer that checks mutex discipline on
// stripe-style structs: every access to a mutex-guarded field must happen
// inside a Lock/Unlock span of that mutex.
//
// The lock model (model.go): a struct with a sync.Mutex field guards its
// mutated siblings; a struct annotated
// `//lint:guardedby Owner.mu` is guarded by another struct's mutex.
// Functions whose name ends in "Locked" and methods on externally guarded
// types are entered with the lock held and are exempt, matching the
// repository's naming convention.
//
// Lock state is tracked by straight-line abstract interpretation:
// `x.mu.Lock()` acquires, `x.mu.Unlock()` releases, `defer x.mu.Unlock()`
// holds to the end of the function, a terminating if-branch (unlock then
// return/panic) does not affect the fall-through state, loops and switch
// arms merge by intersection, and a `go func(){...}` body starts with
// nothing held.
package stripelock

import (
	"go/ast"
	"go/types"
	"strings"

	"repro/internal/analyzers/framework"
)

// Analyzer is the stripelock analysis.
var Analyzer = &framework.Analyzer{
	Name: "stripelock",
	Doc:  "check that mutex-guarded stripe/entry fields are only accessed with the lock held",
	Run:  run,
}

func run(pass *framework.Pass) error {
	model := buildModel(pass)
	if len(model.guards) == 0 {
		return nil
	}
	for _, f := range pass.NonTestFiles() {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			if strings.HasSuffix(fd.Name.Name, "Locked") {
				continue
			}
			if recv := receiverNamed(fd, pass.TypesInfo); recv != nil && model.exempt[recv] {
				continue
			}
			c := &checker{
				pass:   pass,
				model:  model,
				locals: constructorLocals(fd, pass.TypesInfo),
			}
			c.stmt(fd.Body, make(lockState))
		}
	}
	return nil
}

// receiverNamed returns the named type of a method's receiver (nil for
// plain functions).
func receiverNamed(fd *ast.FuncDecl, info *types.Info) *types.Named {
	if fd.Recv == nil || len(fd.Recv.List) == 0 {
		return nil
	}
	t := info.TypeOf(fd.Recv.List[0].Type)
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	n, _ := t.(*types.Named)
	return n
}

// lockState is the set of mutex fields currently held.
type lockState map[*types.Var]bool

func (st lockState) clone() lockState {
	out := make(lockState, len(st))
	for k, v := range st {
		out[k] = v
	}
	return out
}

func intersect(states []lockState) lockState {
	if len(states) == 0 {
		return make(lockState)
	}
	out := states[0].clone()
	for _, st := range states[1:] {
		for mu := range out {
			if !st[mu] {
				delete(out, mu)
			}
		}
	}
	return out
}

type checker struct {
	pass   *framework.Pass
	model  *lockModel
	locals map[types.Object]bool
}

// stmt interprets one statement, returning the lock state on fall-through.
func (c *checker) stmt(s ast.Stmt, st lockState) lockState {
	switch s := s.(type) {
	case nil:
		return st
	case *ast.BlockStmt:
		for _, sub := range s.List {
			st = c.stmt(sub, st)
		}
		return st
	case *ast.ExprStmt:
		if call, ok := s.X.(*ast.CallExpr); ok {
			if mu, op := mutexField(call, c.pass.TypesInfo); mu != nil {
				switch op {
				case "Lock", "RLock":
					st[mu] = true
				case "Unlock", "RUnlock":
					delete(st, mu)
				}
				return st
			}
		}
		c.expr(s.X, st)
		return st
	case *ast.DeferStmt:
		if mu, op := mutexField(s.Call, c.pass.TypesInfo); mu != nil {
			// defer x.mu.Unlock(): the lock stays held for the rest of the
			// function body; no state change either way.
			_ = op
			return st
		}
		if lit, ok := s.Call.Fun.(*ast.FuncLit); ok {
			c.stmt(lit.Body, st.clone())
		} else {
			c.expr(s.Call.Fun, st)
		}
		for _, a := range s.Call.Args {
			c.expr(a, st)
		}
		return st
	case *ast.GoStmt:
		// A spawned goroutine holds none of the caller's locks.
		if lit, ok := s.Call.Fun.(*ast.FuncLit); ok {
			c.stmt(lit.Body, make(lockState))
		} else {
			c.expr(s.Call.Fun, st)
		}
		for _, a := range s.Call.Args {
			c.expr(a, st)
		}
		return st
	case *ast.AssignStmt:
		for _, e := range s.Rhs {
			c.expr(e, st)
		}
		for _, e := range s.Lhs {
			c.expr(e, st)
		}
		return st
	case *ast.IncDecStmt:
		c.expr(s.X, st)
		return st
	case *ast.ReturnStmt:
		for _, e := range s.Results {
			c.expr(e, st)
		}
		return st
	case *ast.SendStmt:
		c.expr(s.Chan, st)
		c.expr(s.Value, st)
		return st
	case *ast.DeclStmt:
		ast.Inspect(s, func(n ast.Node) bool {
			if e, ok := n.(ast.Expr); ok {
				c.expr(e, st)
				return false
			}
			return true
		})
		return st
	case *ast.IfStmt:
		st = c.stmt(s.Init, st)
		c.expr(s.Cond, st)
		bodyOut := c.stmt(s.Body, st.clone())
		var elseOut lockState
		if s.Else != nil {
			elseOut = c.stmt(s.Else, st.clone())
		}
		var outs []lockState
		if !terminates(s.Body) {
			outs = append(outs, bodyOut)
		}
		if s.Else == nil {
			outs = append(outs, st)
		} else if !terminates(s.Else) {
			outs = append(outs, elseOut)
		}
		if len(outs) == 0 {
			return st // fall-through unreachable
		}
		return intersect(outs)
	case *ast.ForStmt:
		st = c.stmt(s.Init, st)
		c.expr(s.Cond, st)
		bodyOut := c.stmt(s.Body, st.clone())
		c.stmt(s.Post, bodyOut)
		if terminates(s.Body) {
			return st
		}
		return intersect([]lockState{st, bodyOut})
	case *ast.RangeStmt:
		c.expr(s.X, st)
		bodyOut := c.stmt(s.Body, st.clone())
		if terminates(s.Body) {
			return st
		}
		return intersect([]lockState{st, bodyOut})
	case *ast.SwitchStmt:
		st = c.stmt(s.Init, st)
		c.expr(s.Tag, st)
		return c.clauses(s.Body, st)
	case *ast.TypeSwitchStmt:
		st = c.stmt(s.Init, st)
		c.stmt(s.Assign, st)
		return c.clauses(s.Body, st)
	case *ast.SelectStmt:
		return c.clauses(s.Body, st)
	case *ast.LabeledStmt:
		return c.stmt(s.Stmt, st)
	case *ast.BranchStmt, *ast.EmptyStmt:
		return st
	default:
		ast.Inspect(s, func(n ast.Node) bool {
			if e, ok := n.(ast.Expr); ok {
				c.expr(e, st)
				return false
			}
			return true
		})
		return st
	}
}

// clauses interprets a switch/select body: each clause starts from the
// entry state; the fall-through state is the intersection of the
// non-terminating clause exits (plus the entry state when there is no
// default, since the whole switch may not match).
func (c *checker) clauses(body *ast.BlockStmt, st lockState) lockState {
	var outs []lockState
	hasDefault := false
	for _, cl := range body.List {
		var stmts []ast.Stmt
		switch cl := cl.(type) {
		case *ast.CaseClause:
			if cl.List == nil {
				hasDefault = true
			}
			for _, e := range cl.List {
				c.expr(e, st)
			}
			stmts = cl.Body
		case *ast.CommClause:
			if cl.Comm == nil {
				hasDefault = true
			}
			stmts = cl.Body
		}
		out := st.clone()
		terminated := false
		for _, sub := range stmts {
			out = c.stmt(sub, out)
		}
		if n := len(stmts); n > 0 && terminates(stmts[n-1]) {
			terminated = true
		}
		if !terminated {
			outs = append(outs, out)
		}
	}
	if !hasDefault {
		outs = append(outs, st)
	}
	if len(outs) == 0 {
		return st
	}
	return intersect(outs)
}

// expr checks every guarded-field access inside an expression against the
// current lock state. Function literals are interpreted with a snapshot of
// the creation-point state.
func (c *checker) expr(e ast.Expr, st lockState) {
	if e == nil {
		return
	}
	ast.Inspect(e, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			c.stmt(n.Body, st.clone())
			return false
		case *ast.SelectorExpr:
			fld := fieldOf(n, c.pass.TypesInfo)
			if fld == nil {
				return true
			}
			mus, guarded := c.model.guards[fld]
			if !guarded {
				return true
			}
			for _, mu := range mus {
				if st[mu] {
					return true
				}
			}
			if base := rootIdent(n.X); base != nil && c.locals[c.pass.TypesInfo.ObjectOf(base)] {
				return true
			}
			c.pass.Reportf(n.Sel.Pos(), "%s accessed without holding %s",
				c.model.label[fld], c.model.label[mus[0]])
			return true
		}
		return true
	})
}
