package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// writeModule lays out a one-package module in a temp dir and makes it the
// working directory.
func writeModule(t *testing.T, src string) {
	t.Helper()
	dir := t.TempDir()
	files := map[string]string{
		"go.mod": "module lintme\n\ngo 1.24\n",
		"p/p.go": src,
	}
	for name, body := range files {
		path := filepath.Join(dir, name)
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	t.Chdir(dir)
}

func TestRunExitCodes(t *testing.T) {
	for _, tc := range []struct {
		name, src string
		code      int
		stderr    string
	}{
		{"clean", "package p\n\nfunc F() int { return 1 }\n", 0, ""},
		{"type error", "package p\n\nfunc F() int { return \"x\" }\n", 2, "cannot use"},
		{"stale allow", "package p\n\n//lint:allow nosuch reason\nfunc F() int { return 1 }\n", 1, `unknown analyzer "nosuch"`},
	} {
		t.Run(tc.name, func(t *testing.T) {
			writeModule(t, tc.src)
			var stderr strings.Builder
			if code := run(nil, &stderr); code != tc.code {
				t.Errorf("exit %d, want %d; stderr:\n%s", code, tc.code, stderr.String())
			}
			if !strings.Contains(stderr.String(), tc.stderr) {
				t.Errorf("stderr %q does not contain %q", stderr.String(), tc.stderr)
			}
		})
	}
}

func TestRunRefusesFlags(t *testing.T) {
	var stderr strings.Builder
	if code := run([]string{"-V=full"}, &stderr); code != 2 {
		t.Errorf("-V=full: exit %d, want 2", code)
	}
	if !strings.Contains(stderr.String(), "unknown flag -V=full") {
		t.Errorf("stderr %q", stderr.String())
	}
}
