package stripelock

import (
	"go/ast"
	"go/types"
	"strings"

	"repro/internal/analyzers/framework"
)

// lockModel is a package's lock-ownership model: which struct fields are
// protected by which mutexes. Two conventions are recognized, matching how
// internal/shard is written:
//
//  1. A struct with a sync.Mutex / sync.RWMutex field guards its sibling
//     fields. A sibling is considered guarded when it is mutated through a
//     selector anywhere in the package outside of constructor functions —
//     immutable configuration set only at construction stays unguarded.
//     Fields of sync/atomic types are never guarded (they are their own
//     synchronization).
//
//  2. A struct reachable only through a mutex-holding owner declares that
//     with a directive in its doc comment:
//
//     //lint:guardedby <OwnerType>.<muField>
//
//     Every field of such a struct is guarded by the owner's mutex, and
//     the struct's own methods are exempt from checking (they are entered
//     with the lock held, like *Locked functions).
type lockModel struct {
	// guards maps a struct field to the mutex fields that may guard it; an
	// access is clean while any one of them is held.
	guards map[*types.Var][]*types.Var
	// exempt holds the externally guarded struct types whose own methods
	// are entered with the lock already held.
	exempt map[*types.Named]bool
	// label maps fields and mutexes to "Type.field" strings for
	// diagnostics.
	label map[*types.Var]string
}

// isMutex reports whether t is sync.Mutex or sync.RWMutex.
func isMutex(t types.Type) bool {
	n, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := n.Obj()
	if obj.Pkg() == nil || obj.Pkg().Path() != "sync" {
		return false
	}
	return obj.Name() == "Mutex" || obj.Name() == "RWMutex"
}

// isAtomic reports whether t is one of sync/atomic's typed values.
func isAtomic(t types.Type) bool {
	n, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := n.Obj()
	return obj.Pkg() != nil && obj.Pkg().Path() == "sync/atomic"
}

// structOf unwraps pointers and names down to a struct type, returning the
// named type alongside (nil when anonymous).
func structOf(t types.Type) (*types.Named, *types.Struct) {
	if p, ok := t.Underlying().(*types.Pointer); ok {
		t = p.Elem()
	}
	n, _ := t.(*types.Named)
	s, _ := t.Underlying().(*types.Struct)
	return n, s
}

// buildModel scans the pass's package and assembles its lock model.
func buildModel(pass *framework.Pass) *lockModel {
	m := &lockModel{
		guards: make(map[*types.Var][]*types.Var),
		exempt: make(map[*types.Named]bool),
		label:  make(map[*types.Var]string),
	}
	files := pass.NonTestFiles()

	// Pass 1: find mutex-bearing structs and //lint:guardedby directives.
	type muStruct struct {
		named  *types.Named
		st     *types.Struct
		mu     *types.Var
		extern *types.Var // directive-named external mutex, nil otherwise
	}
	var muStructs []*muStruct
	resolveExtern := func(spec string) *types.Var {
		owner, muName, ok := strings.Cut(spec, ".")
		if !ok {
			return nil
		}
		obj := pass.Pkg.Scope().Lookup(owner)
		if obj == nil {
			return nil
		}
		_, st := structOf(obj.Type())
		if st == nil {
			return nil
		}
		for i := 0; i < st.NumFields(); i++ {
			if f := st.Field(i); f.Name() == muName && isMutex(f.Type()) {
				m.label[f] = owner + "." + muName
				return f
			}
		}
		return nil
	}
	for _, f := range files {
		for _, decl := range f.Decls {
			gd, ok := decl.(*ast.GenDecl)
			if !ok {
				continue
			}
			for _, spec := range gd.Specs {
				ts, ok := spec.(*ast.TypeSpec)
				if !ok {
					continue
				}
				obj := pass.TypesInfo.Defs[ts.Name]
				if obj == nil {
					continue
				}
				named, st := structOf(obj.Type())
				if st == nil || named == nil {
					continue
				}
				if ext := guardedByDirective(ts, gd); ext != "" {
					if mu := resolveExtern(ext); mu != nil {
						muStructs = append(muStructs, &muStruct{named: named, st: st, extern: mu})
						m.exempt[named] = true
					}
					continue
				}
				for i := 0; i < st.NumFields(); i++ {
					if fld := st.Field(i); isMutex(fld.Type()) {
						muStructs = append(muStructs, &muStruct{named: named, st: st, mu: fld})
						break
					}
				}
			}
		}
	}
	if len(muStructs) == 0 {
		return m
	}

	// Pass 2: which fields are mutated through selectors outside
	// constructors? Only those become lock-guarded in convention 1.
	written := make(map[*types.Var]bool)
	for _, f := range files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			locals := constructorLocals(fd, pass.TypesInfo)
			markWrite := func(e ast.Expr) {
				if fld := writtenField(e, pass.TypesInfo, locals); fld != nil {
					written[fld] = true
				}
			}
			ast.Inspect(fd.Body, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.AssignStmt:
					for _, lhs := range n.Lhs {
						markWrite(lhs)
					}
				case *ast.IncDecStmt:
					markWrite(n.X)
				case *ast.CallExpr:
					// delete(x.f, k) and append-into writes arrive via
					// AssignStmt; builtin delete mutates in place.
					if id, ok := n.Fun.(*ast.Ident); ok && id.Name == "delete" && len(n.Args) > 0 {
						markWrite(n.Args[0])
					}
				}
				return true
			})
		}
	}

	// Assemble the model.
	for _, ms := range muStructs {
		guard := ms.mu
		if ms.extern != nil {
			guard = ms.extern
		}
		for i := 0; i < ms.st.NumFields(); i++ {
			fld := ms.st.Field(i)
			m.label[fld] = ms.named.Obj().Name() + "." + fld.Name()
			if isMutex(fld.Type()) || isAtomic(fld.Type()) {
				continue
			}
			// Externally guarded structs protect every field; mutex-bearing
			// structs protect the fields mutated outside construction.
			if ms.extern != nil || written[fld] {
				m.guards[fld] = append(m.guards[fld], guard)
			}
		}
	}
	return m
}

// guardedByDirective extracts the argument of a //lint:guardedby directive
// from a type's doc comment ("" when absent).
func guardedByDirective(ts *ast.TypeSpec, gd *ast.GenDecl) string {
	for _, doc := range []*ast.CommentGroup{ts.Doc, gd.Doc} {
		if doc == nil {
			continue
		}
		for _, c := range doc.List {
			if rest, ok := strings.CutPrefix(c.Text, "//lint:guardedby"); ok {
				return strings.TrimSpace(rest)
			}
		}
	}
	return ""
}

// writtenField resolves a write target to a guarded-candidate struct field:
// a direct selector store (x.f = v, x.f++), or an element store through a
// field (x.f[k] = v, x.f[i].g = v, delete(x.f, k)). Writes through
// constructor-local bases are ignored.
func writtenField(e ast.Expr, info *types.Info, locals map[types.Object]bool) *types.Var {
	for {
		switch x := e.(type) {
		case *ast.IndexExpr:
			e = x.X
			continue
		case *ast.ParenExpr:
			e = x.X
			continue
		case *ast.StarExpr:
			e = x.X
			continue
		case *ast.SelectorExpr:
			if fld := fieldOf(x, info); fld != nil {
				if base := rootIdent(x.X); base != nil && locals[info.ObjectOf(base)] {
					return nil
				}
				return fld
			}
			e = x.X
			continue
		}
		return nil
	}
}

// fieldOf returns the struct field a selector expression accesses, or nil
// when the selector is not a field access.
func fieldOf(sel *ast.SelectorExpr, info *types.Info) *types.Var {
	if s, ok := info.Selections[sel]; ok && s.Kind() == types.FieldVal {
		if v, ok := s.Obj().(*types.Var); ok {
			return v
		}
	}
	return nil
}

// rootIdent walks to the base identifier of a selector/index chain.
func rootIdent(e ast.Expr) *ast.Ident {
	for {
		switch x := e.(type) {
		case *ast.Ident:
			return x
		case *ast.SelectorExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.ParenExpr:
			e = x.X
		case *ast.StarExpr:
			e = x.X
		case *ast.CallExpr:
			e = x.Fun
		default:
			return nil
		}
	}
}

// constructorLocals collects the function's local variables initialized
// from a composite literal (possibly behind &) — freshly built values that
// cannot race until published, so accesses through them are exempt.
func constructorLocals(fn *ast.FuncDecl, info *types.Info) map[types.Object]bool {
	locals := make(map[types.Object]bool)
	if fn.Body == nil {
		return locals
	}
	isLit := func(e ast.Expr) bool {
		if u, ok := e.(*ast.UnaryExpr); ok {
			e = u.X
		}
		_, ok := e.(*ast.CompositeLit)
		return ok
	}
	ast.Inspect(fn.Body, func(n ast.Node) bool {
		as, ok := n.(*ast.AssignStmt)
		if !ok || len(as.Lhs) != len(as.Rhs) {
			return true
		}
		for i, lhs := range as.Lhs {
			id, ok := lhs.(*ast.Ident)
			if !ok || !isLit(as.Rhs[i]) {
				continue
			}
			if obj := info.ObjectOf(id); obj != nil && obj.Parent() != obj.Pkg().Scope() {
				locals[obj] = true
			}
		}
		return true
	})
	return locals
}

// mutexField resolves a call like x.mu.Lock() / x.mu.Unlock() to the mutex
// field being operated on, with the method name ("Lock", "RUnlock", ...).
// Returns nil for anything else, including locks on local mutex variables.
func mutexField(call *ast.CallExpr, info *types.Info) (*types.Var, string) {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return nil, ""
	}
	name := sel.Sel.Name
	switch name {
	case "Lock", "Unlock", "RLock", "RUnlock", "TryLock", "TryRLock":
	default:
		return nil, ""
	}
	inner, ok := sel.X.(*ast.SelectorExpr)
	if !ok {
		return nil, ""
	}
	fld := fieldOf(inner, info)
	if fld == nil || !isMutex(fld.Type()) {
		return nil, ""
	}
	return fld, name
}

// terminates reports whether the statement unconditionally leaves the
// enclosing straight-line flow: return, branch, panic, or an if whose
// branches both terminate.
func terminates(s ast.Stmt) bool {
	switch s := s.(type) {
	case *ast.ReturnStmt, *ast.BranchStmt:
		return true
	case *ast.ExprStmt:
		call, ok := s.X.(*ast.CallExpr)
		if !ok {
			return false
		}
		switch fun := call.Fun.(type) {
		case *ast.Ident:
			return fun.Name == "panic"
		case *ast.SelectorExpr:
			n := fun.Sel.Name
			return n == "Exit" || n == "Fatal" || n == "Fatalf" || n == "Fatalln" || n == "Goexit"
		}
		return false
	case *ast.BlockStmt:
		for i := len(s.List) - 1; i >= 0; i-- {
			return terminates(s.List[i])
		}
		return false
	case *ast.IfStmt:
		return s.Else != nil && terminates(s.Body) && terminates(s.Else)
	case *ast.LabeledStmt:
		return terminates(s.Stmt)
	}
	return false
}
