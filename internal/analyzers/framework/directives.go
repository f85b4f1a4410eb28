package framework

import (
	"fmt"
	"go/ast"
	"go/token"
	"strings"
)

// allowDirective is the comment prefix that suppresses diagnostics.
const allowDirective = "//lint:allow"

// allowSites indexes the //lint:allow directives of a set of files:
// (filename, line) -> set of analyzer names allowed on that line.
type allowSites map[string]map[int]map[string]bool

// collectAllows scans the files' comments for //lint:allow directives. A
// directive suppresses the named analyzers on its own line and on the line
// directly below it (the conventional "directive above the statement"
// placement). Names outside known (other than "all") are returned as
// diagnostics.
func collectAllows(fset *token.FileSet, files []*ast.File, known map[string]bool) (allowSites, []Diagnostic) {
	sites := make(allowSites)
	var unknown []Diagnostic
	for _, f := range files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				names, ok := parseAllow(c.Text)
				if !ok {
					continue
				}
				for _, n := range names {
					if n != "all" && !known[n] {
						unknown = append(unknown, Diagnostic{
							Pos:      c.Slash,
							Message:  fmt.Sprintf("unknown analyzer %q", n),
							Analyzer: "lint:allow",
						})
					}
				}
				pos := fset.Position(c.Slash)
				lines := sites[pos.Filename]
				if lines == nil {
					lines = make(map[int]map[string]bool)
					sites[pos.Filename] = lines
				}
				for _, line := range []int{pos.Line, pos.Line + 1} {
					set := lines[line]
					if set == nil {
						set = make(map[string]bool)
						lines[line] = set
					}
					for _, n := range names {
						set[n] = true
					}
				}
			}
		}
	}
	return sites, unknown
}

// parseAllow extracts the analyzer names from one comment, reporting whether
// it is an allow directive. The form is
//
//	//lint:allow name1[,name2...] optional free-text reason
func parseAllow(text string) ([]string, bool) {
	if !strings.HasPrefix(text, allowDirective) {
		return nil, false
	}
	rest := text[len(allowDirective):]
	if rest == "" {
		return nil, false
	}
	if rest[0] != ' ' && rest[0] != '\t' {
		return nil, false
	}
	fields := strings.Fields(rest)
	if len(fields) == 0 {
		return nil, false
	}
	names := strings.Split(fields[0], ",")
	for i := range names {
		names[i] = strings.TrimSpace(names[i])
	}
	return names, true
}

// suppressed reports whether the diagnostic is covered by an allow
// directive.
func (s allowSites) suppressed(fset *token.FileSet, d Diagnostic) bool {
	if len(s) == 0 || !d.Pos.IsValid() {
		return false
	}
	pos := fset.Position(d.Pos)
	lines, ok := s[pos.Filename]
	if !ok {
		return false
	}
	set, ok := lines[pos.Line]
	if !ok {
		return false
	}
	return set[d.Analyzer] || set["all"]
}

// filterSuppressed drops the diagnostics covered by //lint:allow directives
// in the given files, adds one for every directive name outside known, and
// returns the survivors sorted by position.
func filterSuppressed(fset *token.FileSet, files []*ast.File, diags []Diagnostic, known map[string]bool) []Diagnostic {
	sites, out := collectAllows(fset, files, known)
	for _, d := range diags {
		if !sites.suppressed(fset, d) {
			out = append(out, d)
		}
	}
	sortDiagnostics(fset, out)
	return out
}
