package analyzers_test

import (
	"path/filepath"
	"testing"

	"repro/internal/analyzers"
	"repro/internal/analyzers/framework"
)

// TestRepositoryIsLintClean runs the full momentslint suite over the whole
// module and requires zero diagnostics: every invariant violation is either
// fixed or carries a documented //lint:allow directive. This is the
// dogfood gate — touching a stripe field outside its lock, using a pooled
// workspace after Put, dropping a codec error, or a //lint:allow naming an
// analyzer that is not in the suite makes this test (and the momentslint
// CLI) fail.
func TestRepositoryIsLintClean(t *testing.T) {
	if testing.Short() {
		t.Skip("whole-module type-check is slow; skipped in -short mode")
	}
	root, err := filepath.Abs(filepath.Join("..", ".."))
	if err != nil {
		t.Fatal(err)
	}
	pkgs, err := framework.Load(root, "./...")
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range pkgs {
		if p.Standard || p.DepOnly {
			continue
		}
		for _, e := range p.Errors {
			t.Errorf("load %s: %v", p.PkgPath, e)
		}
	}
	diags, err := framework.RunPackages(pkgs, analyzers.All())
	if err != nil {
		t.Fatal(err)
	}
	if len(diags) == 0 {
		return
	}
	var fset = pkgs[0].Fset
	for _, d := range diags {
		t.Errorf("%s: %s [%s]", fset.Position(d.Pos), d.Message, d.Analyzer)
	}
	t.Errorf("%d diagnostics; fix them or annotate deliberate exceptions with //lint:allow <analyzer> <reason>", len(diags))
}
