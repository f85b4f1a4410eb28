package framework

import (
	"fmt"
	"reflect"
)

// factKey identifies one exported package fact: which analyzer produced it,
// for which package, and the concrete fact type.
type factKey struct {
	analyzer string
	pkgPath  string
	factType reflect.Type
}

// factSet is the in-process fact store shared across packages of one run.
type factSet map[factKey]Fact

// RunPackages runs the analyzers over every loaded package and returns the
// surviving diagnostics (suppression directives applied), sorted by
// position. Dependency-only packages are analyzed just for the facts they
// export and contribute no diagnostics. Standard-library packages are
// skipped entirely: their facts are not interesting to this suite and their
// internals are not ours to lint.
func RunPackages(pkgs []*Package, analyzers []*Analyzer) ([]Diagnostic, error) {
	known, err := validate(analyzers)
	if err != nil {
		return nil, err
	}
	facts := make(factSet)
	var diags []Diagnostic
	for _, p := range pkgs {
		if p.Standard || p.Pkg == nil {
			continue
		}
		if p.DepOnly {
			for _, a := range analyzers {
				if len(a.FactTypes) == 0 {
					continue
				}
				if err := runOne(p, a, facts, nil); err != nil {
					return nil, fmt.Errorf("%s: analyzing facts of %s: %v", a.Name, p.PkgPath, err)
				}
			}
			continue
		}
		var pkgDiags []Diagnostic
		report := func(d Diagnostic) { pkgDiags = append(pkgDiags, d) }
		for _, a := range analyzers {
			if err := runOne(p, a, facts, report); err != nil {
				return nil, fmt.Errorf("%s: analyzing %s: %v", a.Name, p.PkgPath, err)
			}
		}
		diags = append(diags, filterSuppressed(p.Fset, p.Files, pkgDiags, known)...)
	}
	return diags, nil
}

// runOne runs a single analyzer on a single package, wiring fact
// import/export through the shared in-process store. report may be nil for
// facts-only runs.
func runOne(p *Package, a *Analyzer, facts factSet, report func(Diagnostic)) error {
	pass := &Pass{
		Analyzer:  a,
		Fset:      p.Fset,
		Files:     p.Files,
		Pkg:       p.Pkg,
		TypesInfo: p.Info,
		report:    report,
		importPackageFact: func(path string, f Fact) bool {
			got, ok := facts[factKey{a.Name, path, reflect.TypeOf(f)}]
			if ok {
				reflect.ValueOf(f).Elem().Set(reflect.ValueOf(got).Elem())
			}
			return ok
		},
		exportPackageFact: func(f Fact) {
			facts[factKey{a.Name, p.PkgPath, reflect.TypeOf(f)}] = f
		},
	}
	if pass.report == nil {
		pass.report = func(Diagnostic) {}
	}
	return a.Run(pass)
}
