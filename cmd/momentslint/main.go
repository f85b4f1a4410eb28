// Command momentslint runs the repository's invariant analyzers (package
// internal/analyzers):
//
//	momentslint [packages]
//
// loads and type-checks the given package patterns (default ./...)
// in-process, printing file:line:col diagnostics. It exits 1 when any
// diagnostic survives its //lint:allow directive, and 2 when a package
// fails to load or type-check.
package main

import (
	"fmt"
	"io"
	"os"
	"strings"

	"repro/internal/analyzers"
	"repro/internal/analyzers/framework"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stderr))
}

// run lints the patterns relative to the working directory and returns the
// exit code.
func run(patterns []string, stderr io.Writer) int {
	for _, p := range patterns {
		if strings.HasPrefix(p, "-") {
			fmt.Fprintf(stderr, "momentslint: unknown flag %s\nusage: momentslint [packages]\n", p)
			return 2
		}
	}
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	dir, err := os.Getwd()
	if err != nil {
		fmt.Fprintln(stderr, "momentslint:", err)
		return 2
	}
	pkgs, err := framework.Load(dir, patterns...)
	if err != nil {
		fmt.Fprintln(stderr, "momentslint:", err)
		return 2
	}
	code := 0
	for _, p := range pkgs {
		if p.Standard || p.DepOnly {
			continue
		}
		for _, e := range p.Errors {
			fmt.Fprintf(stderr, "momentslint: %s: %v\n", p.PkgPath, e)
			code = 2
		}
	}
	diags, err := framework.RunPackages(pkgs, analyzers.All())
	if err != nil {
		fmt.Fprintln(stderr, "momentslint:", err)
		return 2
	}
	for _, d := range diags {
		fmt.Fprintf(stderr, "%s: %s [%s]\n", pkgs[0].Fset.Position(d.Pos), d.Message, d.Analyzer)
	}
	if code == 0 && len(diags) > 0 {
		code = 1
	}
	return code
}
