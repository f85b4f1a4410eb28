package main

import (
	"encoding/json"
	"net/http"
	"os"
	"os/exec"
	"regexp"
	"slices"
	"strings"
	"testing"
)

// TestFlagsDocumented: the flags `momentsd -h` prints and the flags in the
// usage synopsis at the top of main.go — the only complete list in the docs
// — are the same set, so deleting or adding a flag cannot leave the synopsis
// behind.
func TestFlagsDocumented(t *testing.T) {
	if testing.Short() {
		t.Skip("forks real processes; skipped under -short")
	}
	out, err := exec.Command(momentsdBin, "-h").CombinedOutput()
	if err != nil {
		t.Fatalf("momentsd -h: %v\n%s", err, out)
	}
	var defined []string
	for _, m := range regexp.MustCompile(`(?m)^  -([a-z][a-z-]*)`).FindAllStringSubmatch(string(out), -1) {
		defined = append(defined, m[1])
	}

	src, err := os.ReadFile("main.go")
	if err != nil {
		t.Fatal(err)
	}
	_, synopsis, ok := strings.Cut(string(src), "// Usage:\n//\n")
	if !ok {
		t.Fatal("main.go: no usage synopsis")
	}
	synopsis, _, _ = strings.Cut(synopsis, "\n//\n") // the tab-indented block
	var documented []string
	for _, m := range regexp.MustCompile(`[\s\[]-([a-z][a-z-]*)`).FindAllStringSubmatch(synopsis, -1) {
		documented = append(documented, m[1])
	}

	slices.Sort(defined)
	slices.Sort(documented)
	documented = slices.Compact(documented) // both modes list the shared flags
	if !slices.Equal(defined, documented) {
		t.Errorf("momentsd -h defines %d flags:\n  %v\nthe usage synopsis in main.go documents %d:\n  %v",
			len(defined), defined, len(documented), documented)
	}
}

// TestBackendSpecSetsMomentsOrder: -backend moments:K is the one way to pick
// the sketch order.
func TestBackendSpecSetsMomentsOrder(t *testing.T) {
	if testing.Short() {
		t.Skip("forks real processes; skipped under -short")
	}
	n := startNode(t, "-backend", "moments:12")
	resp, err := http.Get(n.base + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var stats struct {
		Order   int    `json:"order"`
		Backend string `json:"backend"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&stats); err != nil {
		t.Fatal(err)
	}
	if stats.Order != 12 || !strings.Contains(stats.Backend, "12") {
		t.Errorf("stats report order %d, backend %q; want order 12", stats.Order, stats.Backend)
	}
}
