// Package antest runs analyzers over fixture packages and checks their
// diagnostics against // want comments, in the style of
// golang.org/x/tools/go/analysis/analysistest but built on the in-repo
// framework.
//
// Fixtures live under <testdata>/src/<importpath>/. Every line that should
// be flagged carries a trailing comment of quoted regular expressions:
//
//	st.count++ // want `count .*without holding`
//
// Each regexp must match at least one diagnostic reported on that line, and
// every diagnostic must be matched by some want — an unexpected diagnostic
// or an unmatched want fails the test. Fixture packages may import one
// another (facts flow between them) and the standard library; framework's
// loader lists <testdata> in GOPATH mode and type-checks everything from
// source.
package antest

import (
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"repro/internal/analyzers/framework"
)

// TestData returns the absolute path of the ./testdata directory relative to
// the calling test's working directory.
func TestData() string {
	dir, err := filepath.Abs("testdata")
	if err != nil {
		panic(err)
	}
	return dir
}

// Run loads each fixture package from <testdata>/src/<pkg>, runs the
// analyzer over it (dependencies contribute facts only), and compares the
// diagnostics against the fixtures' want comments.
func Run(t *testing.T, testdata string, a *framework.Analyzer, pkgpaths ...string) {
	t.Helper()
	pkgs, err := framework.LoadGOPATH(testdata, pkgpaths...)
	if err != nil {
		t.Fatalf("loading fixtures: %v", err)
	}
	for _, p := range pkgs {
		if p.Standard {
			continue
		}
		for _, err := range p.Errors {
			t.Errorf("fixture %s: %v", p.PkgPath, err)
		}
	}
	diags, err := framework.RunPackages(pkgs, []*framework.Analyzer{a})
	if err != nil {
		t.Fatal(err)
	}
	checkWants(t, pkgs, diags)
}

// want is one expectation parsed from a fixture comment.
type want struct {
	file    string
	line    int
	re      *regexp.Regexp
	raw     string
	matched bool
}

func checkWants(t *testing.T, pkgs []*framework.Package, diags []framework.Diagnostic) {
	t.Helper()
	fset := pkgs[0].Fset // Load returns at least one package and shares one FileSet
	var wants []*want
	for _, p := range pkgs {
		if p.Standard || p.DepOnly {
			continue
		}
		for _, f := range p.Files {
			for _, cg := range f.Comments {
				for _, c := range cg.List {
					pos := fset.Position(c.Slash)
					for _, raw := range parseWant(c.Text) {
						re, err := regexp.Compile(raw)
						if err != nil {
							t.Errorf("%s: bad want regexp %q: %v", pos, raw, err)
							continue
						}
						wants = append(wants, &want{file: pos.Filename, line: pos.Line, re: re, raw: raw})
					}
				}
			}
		}
	}

	for _, d := range diags {
		pos := fset.Position(d.Pos)
		found := false
		for _, w := range wants {
			if w.file == pos.Filename && w.line == pos.Line && w.re.MatchString(d.Message) {
				w.matched = true
				found = true
			}
		}
		if !found {
			t.Errorf("%s: unexpected diagnostic: %s [%s]", pos, d.Message, d.Analyzer)
		}
	}
	for _, w := range wants {
		if !w.matched {
			t.Errorf("%s:%d: no diagnostic matching %q", w.file, w.line, w.raw)
		}
	}
}

// parseWant extracts the quoted regexps from a `// want "..." `+"`...`"+`
// comment, returning nil when the comment is not a want.
func parseWant(text string) []string {
	rest, ok := strings.CutPrefix(text, "// want ")
	if !ok {
		rest, ok = strings.CutPrefix(text, "//want ")
	}
	if !ok {
		return nil
	}
	var out []string
	rest = strings.TrimSpace(rest)
	for rest != "" {
		var quote byte
		switch rest[0] {
		case '"', '`':
			quote = rest[0]
		default:
			break
		}
		if quote == 0 {
			break
		}
		end := strings.IndexByte(rest[1:], quote)
		if end < 0 {
			break
		}
		out = append(out, rest[1:1+end])
		rest = strings.TrimSpace(rest[2+end:])
	}
	return out
}
