// Package framework is a self-contained analysis driver in the shape of
// golang.org/x/tools/go/analysis, built only on the standard library so the
// repository carries no external dependencies. It provides the Analyzer /
// Pass / Diagnostic vocabulary, package facts shared between the packages
// of one run, and one in-process driver: Load type-checks packages from
// source and RunPackages runs the analyzers over them.
//
// The suppression directive
//
//	//lint:allow <analyzer>[,<analyzer>...] [reason]
//
// placed on the flagged line or the line directly above it silences a
// diagnostic; deliberate exceptions stay visible and greppable in the source
// instead of in an external baseline file. A directive naming an analyzer
// that is not in the run is itself reported, so deleting an analyzer cannot
// leave dead annotations behind.
package framework

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// An Analyzer describes one analysis: its name, what it checks, and the
// function that runs it on a single package.
type Analyzer struct {
	// Name identifies the analyzer in diagnostics and in //lint:allow
	// directives. It must be a valid identifier.
	Name string
	// Doc is the analyzer's help text; the first line is a summary.
	Doc string
	// FactTypes lists prototypes of the fact types the analyzer exports or
	// imports. Facts cross package boundaries: values exported while
	// analyzing a dependency are importable while analyzing its dependents.
	FactTypes []Fact
	// Run analyzes a package and reports diagnostics through the pass.
	Run func(*Pass) error
}

// A Fact is a package-level observation exported by an analyzer for use when
// analyzing downstream packages. Implementations are pointers to structs;
// importing copies the exported value into the caller's fact.
type Fact interface{ AFact() }

// A Diagnostic is one finding, anchored to a source position.
type Diagnostic struct {
	Pos      token.Pos
	Message  string
	Analyzer string
}

// A Pass carries one analyzer's view of one type-checked package.
type Pass struct {
	Analyzer  *Analyzer
	Fset      *token.FileSet
	Files     []*ast.File
	Pkg       *types.Package
	TypesInfo *types.Info

	report            func(Diagnostic)
	importPackageFact func(path string, f Fact) bool
	exportPackageFact func(f Fact)
}

// Reportf records a diagnostic at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.report(Diagnostic{Pos: pos, Message: fmt.Sprintf(format, args...), Analyzer: p.Analyzer.Name})
}

// ImportPackageFact copies the fact exported for pkg by this analyzer into
// *f, reporting whether one was found. pkg must be a direct or indirect
// import of the package under analysis.
func (p *Pass) ImportPackageFact(pkg *types.Package, f Fact) bool {
	if p.importPackageFact == nil {
		return false
	}
	return p.importPackageFact(pkg.Path(), f)
}

// ExportPackageFact records a fact about the package under analysis for
// consumption by downstream packages.
func (p *Pass) ExportPackageFact(f Fact) {
	if p.exportPackageFact != nil {
		p.exportPackageFact(f)
	}
}

// NonTestFiles returns the pass's files excluding _test.go files. The
// repository's analyzers enforce production invariants; test files poke at
// internals deliberately.
func (p *Pass) NonTestFiles() []*ast.File {
	var out []*ast.File
	for _, f := range p.Files {
		name := p.Fset.Position(f.Package).Filename
		if strings.HasSuffix(name, "_test.go") {
			continue
		}
		out = append(out, f)
	}
	return out
}

// sortDiagnostics orders diagnostics by position for deterministic output.
func sortDiagnostics(fset *token.FileSet, diags []Diagnostic) {
	sort.SliceStable(diags, func(i, j int) bool {
		pi, pj := fset.Position(diags[i].Pos), fset.Position(diags[j].Pos)
		if pi.Filename != pj.Filename {
			return pi.Filename < pj.Filename
		}
		if pi.Line != pj.Line {
			return pi.Line < pj.Line
		}
		if pi.Column != pj.Column {
			return pi.Column < pj.Column
		}
		return diags[i].Analyzer < diags[j].Analyzer
	})
}

// validate checks the analyzer set for driver use: names must be
// non-empty, valid directive tokens, and unique. It returns the set of
// names.
func validate(analyzers []*Analyzer) (map[string]bool, error) {
	names := make(map[string]bool, len(analyzers))
	for _, a := range analyzers {
		if a.Name == "" {
			return nil, fmt.Errorf("framework: analyzer with empty name (doc: %.40q)", a.Doc)
		}
		if strings.ContainsAny(a.Name, " \t,") {
			return nil, fmt.Errorf("framework: analyzer name %q is not a valid directive token", a.Name)
		}
		if names[a.Name] {
			return nil, fmt.Errorf("framework: duplicate analyzer name %q", a.Name)
		}
		names[a.Name] = true
		if a.Run == nil {
			return nil, fmt.Errorf("framework: analyzer %q has no Run function", a.Name)
		}
	}
	return names, nil
}
