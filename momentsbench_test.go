package repro

import (
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// TestBenchmarkModule vets and tests cmd/momentsbench. It is a nested
// module, so the root `go test ./...` does not reach it by itself; run from
// here, a change to a signature the benchmark compiles against fails tier-1
// instead of the next benchmark run, and its TestSmoke replays every
// workload against this checkout.
func TestBenchmarkModule(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and tests a second module; skipped under -short")
	}
	for _, args := range [][]string{{"vet", "."}, {"test", "."}} {
		cmd := exec.Command("go", args...)
		cmd.Dir = filepath.Join("cmd", "momentsbench")
		if out, err := cmd.CombinedOutput(); err != nil {
			t.Fatalf("go %s in %s: %v\n%s", strings.Join(args, " "), cmd.Dir, err, out)
		}
	}
}
