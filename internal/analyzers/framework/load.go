package framework

import (
	"bytes"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
)

// A Package is one type-checked package produced by Load.
type Package struct {
	PkgPath  string
	Fset     *token.FileSet
	Files    []*ast.File
	Pkg      *types.Package
	Info     *types.Info
	Standard bool // part of the standard library
	DepOnly  bool // loaded only as a dependency of the requested patterns
	// Errors holds type-checking problems. Analysis still ran on the
	// partial package when possible.
	Errors []error
}

// listPackage is the subset of `go list -json` output the loader consumes.
type listPackage struct {
	ImportPath string
	Name       string
	Dir        string
	GoFiles    []string
	CgoFiles   []string
	Imports    []string
	Standard   bool
	DepOnly    bool
	Error      *struct{ Err string }
}

// Load type-checks the packages matching the go-command patterns (e.g.
// "./...") rooted at dir, along with every dependency, using one shared
// FileSet. It shells out to `go list` for package discovery — the single
// source of truth for build constraints and module resolution — and runs
// go/types itself, so it works offline with no compiled export data.
//
// CGO is disabled for the listing so cgo-dependent packages (net, os/user)
// resolve to their pure-Go fallbacks, which go/types can check from source.
func Load(dir string, patterns ...string) ([]*Package, error) {
	return load(dir, nil, patterns)
}

// LoadGOPATH is Load for a GOPATH-mode tree: patterns are import paths
// resolved under gopath/src, as in analyzer fixtures laid out
// testdata/src/<importpath>.
func LoadGOPATH(gopath string, patterns ...string) ([]*Package, error) {
	return load(gopath, []string{"GO111MODULE=off", "GOPATH=" + gopath, "GOFLAGS="}, patterns)
}

func load(dir string, env, patterns []string) ([]*Package, error) {
	args := append([]string{"list", "-e", "-deps", "-json=ImportPath,Name,Dir,GoFiles,CgoFiles,Imports,Standard,DepOnly,Error"}, patterns...)
	cmd := exec.Command("go", args...)
	cmd.Dir = dir
	cmd.Env = append(append(os.Environ(), "CGO_ENABLED=0"), env...)
	var stdout, stderr bytes.Buffer
	cmd.Stdout = &stdout
	cmd.Stderr = &stderr
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("framework: go list %s: %v\n%s", strings.Join(patterns, " "), err, stderr.String())
	}

	var listed []*listPackage
	dec := json.NewDecoder(&stdout)
	for {
		lp := new(listPackage)
		if err := dec.Decode(lp); err == io.EOF {
			break
		} else if err != nil {
			return nil, fmt.Errorf("framework: decoding go list output: %v", err)
		}
		listed = append(listed, lp)
	}

	fset := token.NewFileSet()
	byPath := make(map[string]*Package, len(listed))
	typesByPath := make(map[string]*types.Package, len(listed))
	var out []*Package

	var check func(lp *listPackage) (*types.Package, error)
	index := make(map[string]*listPackage, len(listed))
	for _, lp := range listed {
		index[lp.ImportPath] = lp
	}
	importer := importerFunc(func(path string) (*types.Package, error) {
		if path == "unsafe" {
			return types.Unsafe, nil
		}
		if tp, ok := typesByPath[path]; ok {
			return tp, nil
		}
		lp, ok := index[path]
		if !ok {
			return nil, fmt.Errorf("package %q not in go list output", path)
		}
		return check(lp)
	})

	check = func(lp *listPackage) (*types.Package, error) {
		if tp, ok := typesByPath[lp.ImportPath]; ok {
			return tp, nil
		}
		p := &Package{
			PkgPath:  lp.ImportPath,
			Fset:     fset,
			Standard: lp.Standard,
			DepOnly:  lp.DepOnly,
		}
		if lp.Error != nil {
			p.Errors = append(p.Errors, fmt.Errorf("%s", lp.Error.Err))
		}
		for _, name := range append(append([]string{}, lp.GoFiles...), lp.CgoFiles...) {
			path := name
			if !filepath.IsAbs(path) {
				path = filepath.Join(lp.Dir, name)
			}
			f, err := parser.ParseFile(fset, path, nil, parser.ParseComments|parser.SkipObjectResolution)
			if err != nil {
				p.Errors = append(p.Errors, err)
				continue
			}
			p.Files = append(p.Files, f)
		}
		info := &types.Info{
			Types:      make(map[ast.Expr]types.TypeAndValue),
			Defs:       make(map[*ast.Ident]types.Object),
			Uses:       make(map[*ast.Ident]types.Object),
			Implicits:  make(map[ast.Node]types.Object),
			Instances:  make(map[*ast.Ident]types.Instance),
			Selections: make(map[*ast.SelectorExpr]*types.Selection),
			Scopes:     make(map[ast.Node]*types.Scope),
		}
		conf := &types.Config{
			Importer: importer,
			Error:    func(err error) { p.Errors = append(p.Errors, err) },
			// Function bodies of dependencies contribute nothing to the
			// analysis of downstream packages; skipping them keeps a
			// whole-module load (which type-checks the stdlib from source)
			// fast.
			IgnoreFuncBodies: lp.DepOnly,
		}
		tp, err := conf.Check(lp.ImportPath, fset, p.Files, info)
		if err != nil && len(p.Errors) == 0 {
			p.Errors = append(p.Errors, err)
		}
		p.Pkg = tp
		p.Info = info
		typesByPath[lp.ImportPath] = tp
		byPath[lp.ImportPath] = p
		out = append(out, p)
		return tp, nil
	}

	// go list -deps emits dependencies before dependents, but resolve
	// through the importer anyway so an out-of-order listing still works.
	for _, lp := range listed {
		if lp.Name == "" && lp.Error != nil {
			return nil, fmt.Errorf("framework: %s: %s", lp.ImportPath, lp.Error.Err)
		}
		if _, err := check(lp); err != nil {
			return nil, err
		}
	}
	return out, nil
}

type importerFunc func(path string) (*types.Package, error)

func (f importerFunc) Import(path string) (*types.Package, error) { return f(path) }
