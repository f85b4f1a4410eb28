// Crash-fault battery: a real momentsd child process is SIGKILLed at
// randomized points while ingest is in flight, restarted against the same
// snapshot and write-ahead log, and audited against an exact in-memory
// oracle. The durability contract under test: every acknowledged
// observation survives the crash, and an unacknowledged in-flight batch
// is recovered all-or-nothing — never half-applied.
//
// The oracle is bit-exact, not approximate: every key always carries the
// same small power-of-two value, so a key's moments sketch is a pure
// function of its observation count (power sums of exact integers, log
// sums built by repeated addition of one constant — both independent of
// apply order). Comparing the full marshaled statistics therefore
// detects a single lost, duplicated or misattributed observation.
package main

import (
	"bytes"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/shard"
	"repro/internal/sketch"
)

// momentsdBin is the momentsd binary under test, built once in TestMain.
var momentsdBin string

func TestMain(m *testing.M) {
	dir, err := os.MkdirTemp("", "momentsd-bin")
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	momentsdBin = filepath.Join(dir, "momentsd")
	out, err := exec.Command("go", "build", "-o", momentsdBin, ".").CombinedOutput()
	if err != nil {
		fmt.Fprintf(os.Stderr, "building momentsd: %v\n%s", err, out)
		os.RemoveAll(dir)
		os.Exit(1)
	}
	code := m.Run()
	os.RemoveAll(dir)
	os.Exit(code)
}

// node is one running momentsd child.
type node struct {
	cmd      *exec.Cmd
	base     string // http://host:port
	logs     *lockedBuf
	killOnce sync.Once
}

type lockedBuf struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *lockedBuf) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *lockedBuf) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

var listenRE = regexp.MustCompile(`listening on ([^ ]+) `)

// startNode launches momentsd on a kernel-assigned port and waits for the
// listen announcement.
func startNode(t *testing.T, args ...string) *node {
	t.Helper()
	cmd := exec.Command(momentsdBin, append([]string{"-addr", "127.0.0.1:0"}, args...)...)
	logs := &lockedBuf{}
	cmd.Stdout = logs
	stderr, err := cmd.StderrPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	addrc := make(chan string, 1)
	go func() {
		// Tee stderr into the log buffer while watching for the bound
		// address; keep draining so the child never blocks on a full pipe.
		buf := make([]byte, 4096)
		var pending []byte
		announced := false
		for {
			n, err := stderr.Read(buf)
			if n > 0 {
				logs.Write(buf[:n])
				if !announced {
					pending = append(pending, buf[:n]...)
					if m := listenRE.FindSubmatch(pending); m != nil {
						addrc <- string(m[1])
						announced = true
						pending = nil
					}
				}
			}
			if err != nil {
				close(addrc)
				return
			}
		}
	}()
	select {
	case addr, ok := <-addrc:
		if !ok {
			cmd.Wait()
			t.Fatalf("momentsd exited before announcing its address:\n%s", logs.String())
		}
		n := &node{cmd: cmd, base: "http://" + addr, logs: logs}
		// A failing assertion mid-round must not orphan the child past the
		// test binary's lifetime, and its logs are the evidence.
		t.Cleanup(func() {
			n.kill()
			if t.Failed() {
				t.Logf("momentsd logs (%s):\n%s", n.base, n.logs.String())
			}
		})
		return n
	case <-time.After(30 * time.Second):
		cmd.Process.Kill()
		cmd.Wait()
		t.Fatalf("momentsd did not announce an address in 30s:\n%s", logs.String())
	}
	panic("unreachable")
}

// kill SIGKILLs the child — no shutdown path, no final snapshot. This is
// the crash under test. Idempotent: the test-cleanup kill of an
// already-crashed node is a no-op.
func (n *node) kill() {
	n.killOnce.Do(func() {
		n.cmd.Process.Signal(syscall.SIGKILL)
		n.cmd.Wait()
	})
}

// stop SIGTERMs the child and waits for the graceful shutdown — the
// checkpoint-and-truncate path a crash never takes. Shares killOnce with
// kill so the test-cleanup kill of a stopped node is a no-op.
func (n *node) stop(t *testing.T) {
	t.Helper()
	n.killOnce.Do(func() {
		n.cmd.Process.Signal(syscall.SIGTERM)
		if err := n.cmd.Wait(); err != nil {
			t.Fatalf("momentsd did not exit cleanly on SIGTERM: %v\n%s", err, n.logs.String())
		}
	})
}

// crashWorker drives sequential ingest batches over its own key space and
// tracks exactly which observations were acknowledged. At most one batch
// — the one in flight when the server dies — is ambiguous.
type crashWorker struct {
	id   int
	keys []string
	vals map[string]float64

	acked    map[string]int // per-key counts of acknowledged observations
	inflight map[string]int // the un-acknowledged batch, nil after an ack
}

func newCrashWorkers(n, keysEach int) []*crashWorker {
	// Values are small powers of two: every power sum up to k=10 is an
	// exact integer well under 2^53, and the log power sums accumulate a
	// single constant per key, so the oracle reconstruction below is
	// bit-identical no matter what order replay applies batches in.
	pows := []float64{1, 2, 4}
	ws := make([]*crashWorker, n)
	for i := range ws {
		w := &crashWorker{id: i, acked: make(map[string]int), vals: make(map[string]float64)}
		for k := 0; k < keysEach; k++ {
			key := fmt.Sprintf("w%d.key%d", i, k)
			w.keys = append(w.keys, key)
			w.vals[key] = pows[k%len(pows)]
		}
		ws[i] = w
	}
	return ws
}

// run fires ingest batches until the server dies under it. rng is owned
// by this worker (workers get independent seeds).
func (w *crashWorker) run(base string, client *http.Client, rng *rand.Rand) {
	for batches := 0; batches < 100000; batches++ {
		counts := make(map[string]int)
		var body bytes.Buffer
		n := 1 + rng.Intn(48)
		for i := 0; i < n; i++ {
			key := w.keys[rng.Intn(len(w.keys))]
			counts[key]++
			fmt.Fprintf(&body, "{\"key\":%q,\"value\":%g}\n", key, w.vals[key])
		}
		w.inflight = counts
		resp, err := client.Post(base+"/ingest", "application/x-ndjson", &body)
		if err != nil {
			return // crashed mid-request: the batch stays ambiguous
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			return
		}
		for k, c := range counts {
			w.acked[k] += c
		}
		w.inflight = nil
	}
}

// audit compares the recovered store against the oracle and folds the
// ambiguous in-flight batch into the acknowledged state according to what
// the store proves happened.
func (w *crashWorker) audit(t *testing.T, recovered *shard.Store, order int) {
	t.Helper()
	// Resolve the in-flight batch all-or-nothing: whatever the recovered
	// count of its first key says, every other key of the batch must agree
	// — a half-applied batch fails here.
	delta := 0
	if len(w.inflight) > 0 {
		var k0 string
		for k := range w.inflight {
			k0 = k
			break
		}
		switch got := int(recovered.Count(k0)); got {
		case w.acked[k0]:
			delta = 0
		case w.acked[k0] + w.inflight[k0]:
			delta = 1
		default:
			t.Fatalf("worker %d key %s: recovered count %d, want %d (batch lost) or %d (batch applied)",
				w.id, k0, got, w.acked[k0], w.acked[k0]+w.inflight[k0])
		}
		if delta == 1 {
			for k, c := range w.inflight {
				w.acked[k] += c
			}
		}
		w.inflight = nil
	}
	for _, key := range w.keys {
		want := w.acked[key]
		sk, ok := recovered.Sketch(key)
		if !ok {
			if want != 0 {
				t.Fatalf("worker %d key %s: %d acknowledged observations lost entirely", w.id, key, want)
			}
			continue
		}
		expect := core.New(order)
		for i := 0; i < want; i++ {
			expect.Add(w.vals[key])
		}
		if sk.Count != expect.Count || sk.Min != expect.Min || sk.Max != expect.Max ||
			sk.LogCount != expect.LogCount {
			t.Fatalf("worker %d key %s: recovered count=%g min=%g max=%g, want count=%g min=%g max=%g",
				w.id, key, sk.Count, sk.Min, sk.Max, expect.Count, expect.Min, expect.Max)
		}
		for i := range expect.Pow {
			if sk.Pow[i] != expect.Pow[i] || sk.LogPow[i] != expect.LogPow[i] {
				t.Fatalf("worker %d key %s: power sum %d diverged: pow %g vs %g, logpow %g vs %g",
					w.id, key, i+1, sk.Pow[i], expect.Pow[i], sk.LogPow[i], expect.LogPow[i])
			}
		}
	}
}

// fetchStore downloads /snapshot from a live node and restores it into a
// fresh in-process store — the same bytes a backup or a peer would see.
func fetchStore(t *testing.T, base string, order int) *shard.Store {
	t.Helper()
	resp, err := http.Get(base + "/snapshot")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /snapshot: %s", resp.Status)
	}
	st := shard.New(shard.WithBackend(sketch.MomentsBackend(order)))
	if err := st.Restore(resp.Body); err != nil {
		t.Fatalf("restoring fetched snapshot: %v", err)
	}
	return st
}

// crashLineage runs one snapshot+WAL directory through `rounds`
// crash/recover cycles with ingest in flight at every kill.
func crashLineage(t *testing.T, rounds int, seed int64, extraArgs []string, tornTail bool) {
	const order = 10
	dir := t.TempDir()
	args := append([]string{
		"-snapshot", filepath.Join(dir, "snap"),
		"-wal-dir", filepath.Join(dir, "wal"),
	}, extraArgs...)
	rng := rand.New(rand.NewSource(seed))
	t.Logf("lineage seed %d, args %v", seed, args)
	workers := newCrashWorkers(3, 6)
	client := &http.Client{Timeout: 10 * time.Second}
	for round := 0; round < rounds; round++ {
		n := startNode(t, args...)
		// Audit the state recovered from the previous round's crash before
		// adding new load; the first round audits the empty store.
		recovered := fetchStore(t, n.base, order)
		for _, w := range workers {
			w.audit(t, recovered, order)
		}
		var wg sync.WaitGroup
		for _, w := range workers {
			wg.Add(1)
			go func(w *crashWorker, seed int64) {
				defer wg.Done()
				w.run(n.base, client, rand.New(rand.NewSource(seed)))
			}(w, rng.Int63())
		}
		// The randomized kill point: long enough for group commits, short
		// enough that requests are usually mid-flight.
		time.Sleep(time.Duration(5+rng.Intn(60)) * time.Millisecond)
		n.kill()
		wg.Wait()
		if tornTail {
			appendGarbageTails(t, filepath.Join(dir, "wal"), rng)
		}
	}
	// One final recovery pass so the last crash is audited too.
	n := startNode(t, args...)
	recovered := fetchStore(t, n.base, order)
	for _, w := range workers {
		w.audit(t, recovered, order)
	}
	n.kill()
	// The audits are only meaningful if the kills landed on real load: a
	// lineage that somehow never got an ingest acknowledged would pass
	// every check vacuously.
	total := 0
	for _, w := range workers {
		for _, c := range w.acked {
			total += c
		}
	}
	t.Logf("lineage survived %d crashes with %d acknowledged observations recovered", rounds, total)
	if total < 100*rounds {
		t.Fatalf("only %d observations acknowledged across %d rounds — the battery is not exercising ingest", total, rounds)
	}
}

// appendGarbageTails simulates a torn final write: random junk lands
// after the last fsynced record of every active segment. Replay must
// stop at the tear and still deliver every acknowledged record, which
// all precede it.
func appendGarbageTails(t *testing.T, walDir string, rng *rand.Rand) {
	t.Helper()
	ents, err := os.ReadDir(walDir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range ents {
		if e.IsDir() || !strings.HasSuffix(e.Name(), ".wal") {
			continue
		}
		junk := make([]byte, 1+rng.Intn(64))
		rng.Read(junk)
		f, err := os.OpenFile(filepath.Join(walDir, e.Name()), os.O_WRONLY|os.O_APPEND, 0)
		if err != nil {
			t.Fatal(err)
		}
		f.Write(junk)
		f.Close()
	}
}

// TestCrashRecovery is the battery: ≥20 randomized SIGKILL points across
// three server shapes. Each round kills a real momentsd with requests in
// flight and proves the restart recovered exactly the acknowledged state.
func TestCrashRecovery(t *testing.T) {
	if testing.Short() {
		t.Skip("crash battery forks real processes; skipped under -short")
	}
	seed := time.Now().UnixNano()
	t.Run("plain", func(t *testing.T) {
		crashLineage(t, 12, seed+1, nil, false)
	})
	t.Run("checkpointing", func(t *testing.T) {
		// Mid-run checkpoints truncate sealed segments while tiny segments
		// force constant rotation — recovery must stitch snapshot + the
		// surviving WAL suffix.
		crashLineage(t, 4, seed+3, []string{
			"-snapshot-interval", "75ms",
			"-wal-segment-size", "32768",
		}, false)
	})
	t.Run("torn-tail", func(t *testing.T) {
		crashLineage(t, 4, seed+4, nil, true)
	})
}

// mustIngest posts count observations of one key/value and requires the
// acknowledgment — every observation it sends is in the durability
// contract.
func mustIngest(t *testing.T, base, key string, val float64, count int) {
	t.Helper()
	var body bytes.Buffer
	for i := 0; i < count; i++ {
		fmt.Fprintf(&body, "{\"key\":%q,\"value\":%g}\n", key, val)
	}
	resp, err := http.Post(base+"/ingest", "application/x-ndjson", &body)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("ingest: %s", resp.Status)
	}
}

// TestCleanShutdownThenCrash pins the lineage the randomized battery
// cannot reach: a graceful SIGTERM checkpoint truncates every WAL
// segment (the directory ends up empty), and the next boot must number
// fresh segments above the snapshot watermark's cuts. Without that
// floor, post-restart sequences collide with the persisted watermark and
// a later crash recovery silently skips acknowledged records as already
// snapshot-covered.
func TestCleanShutdownThenCrash(t *testing.T) {
	if testing.Short() {
		t.Skip("forks real processes; skipped under -short")
	}
	const order = 10
	const key = "clean.key"
	dir := t.TempDir()
	walDir := filepath.Join(dir, "wal")
	args := []string{
		"-snapshot", filepath.Join(dir, "snap"),
		"-wal-dir", walDir,
	}
	count := func(t *testing.T, base string) int {
		t.Helper()
		return int(fetchStore(t, base, order).Count(key))
	}

	// Round 1: acknowledged load, then a crash — recovery comes from the
	// WAL alone.
	n1 := startNode(t, args...)
	mustIngest(t, n1.base, key, 2, 100)
	n1.kill()

	// Round 2: recover, then shut down cleanly. The shutdown checkpoint
	// covers every record, so truncation must leave the WAL empty.
	n2 := startNode(t, args...)
	if got := count(t, n2.base); got != 100 {
		t.Fatalf("recovered %d observations after crash, want 100", got)
	}
	n2.stop(t)
	ents, err := os.ReadDir(walDir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range ents {
		if strings.HasSuffix(e.Name(), ".wal") {
			t.Fatalf("segment %s survived a covering shutdown checkpoint", e.Name())
		}
	}

	// Round 3: boot from snapshot + empty WAL, add more acknowledged
	// load, crash again — and tear the tails for good measure.
	n3 := startNode(t, args...)
	if got := count(t, n3.base); got != 100 {
		t.Fatalf("restored %d observations from snapshot, want 100", got)
	}
	mustIngest(t, n3.base, key, 2, 100)
	n3.kill()
	appendGarbageTails(t, walDir, rand.New(rand.NewSource(1)))

	// Round 4: both halves must be there — the snapshot's 100 and the
	// post-shutdown WAL's 100.
	n4 := startNode(t, args...)
	if got := count(t, n4.base); got != 200 {
		t.Fatalf("recovered %d observations, want 200 — post-shutdown WAL records lost", got)
	}
	n4.kill()
}

// TestWALFlagValidation execs the real binary against invalid WAL flag
// combinations: each must refuse to start with a pointed message rather
// than serve with silently-misconfigured durability.
func TestWALFlagValidation(t *testing.T) {
	if testing.Short() {
		t.Skip("forks real processes; skipped under -short")
	}
	dir := t.TempDir()
	snap := filepath.Join(dir, "snap")
	plainFile := filepath.Join(dir, "plain")
	if err := os.WriteFile(plainFile, []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name string
		args []string
		want string
	}{
		{"wal-dir-requires-snapshot",
			[]string{"-wal-dir", filepath.Join(dir, "w1")},
			"-wal-dir requires -snapshot"},
		{"wal-opts-require-wal-dir",
			[]string{"-wal-segment-size", "1048576"},
			"-wal-segment-size requires -wal-dir"},
		{"wal-opts-at-default-require-wal-dir",
			[]string{"-wal-segment-size", "67108864"},
			"-wal-segment-size requires -wal-dir"},
		{"non-positive-segment-size",
			[]string{"-snapshot", snap, "-wal-dir", filepath.Join(dir, "w3"), "-wal-segment-size", "-1"},
			"-wal-segment-size must be positive"},
		{"coordinator-excludes-wal",
			[]string{"-coordinator", "-nodes", "127.0.0.1:1", "-wal-dir", filepath.Join(dir, "w5")},
			"a coordinator has none"},
		{"wal-dir-is-a-file",
			[]string{"-snapshot", snap, "-wal-dir", plainFile},
			"write-ahead log"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) { wantRefusal(t, tc.args, tc.want) })
	}
}

// wantRefusal execs the real binary with args and requires it to exit
// non-zero with want in its output.
func wantRefusal(t *testing.T, args []string, want string) {
	t.Helper()
	out, err := exec.Command(momentsdBin, append([]string{"-addr", "127.0.0.1:0"}, args...)...).CombinedOutput()
	if err == nil {
		t.Fatalf("momentsd started despite %v:\n%s", args, out)
	}
	if !strings.Contains(string(out), want) {
		t.Fatalf("momentsd %v: output missing %q:\n%s", args, want, out)
	}
}

// TestRemovedFlagsRejected: the mode flags deleted with their code paths
// must stop the daemon at flag parsing, not be silently accepted by a
// deployment script that still passes them.
func TestRemovedFlagsRejected(t *testing.T) {
	if testing.Short() {
		t.Skip("forks real processes; skipped under -short")
	}
	for _, args := range [][]string{
		{"-ingest-buffer"},
		{"-ingest-flush-size", "64"},
		{"-ingest-flush-interval", "1s"},
		{"-ingest-stale"},
		{"-locked-reads"},
		{"-k", "12"},               // say -backend moments:12
		{"-hedge-quantile", "0.9"}, // a constant of internal/cluster now
		{"-wal-on-error", "drop"},  // an ack always means fsynced
		{"-wal-sync-interval", "1ms"},
	} {
		t.Run(strings.TrimPrefix(args[0], "-"), func(t *testing.T) {
			wantRefusal(t, args, "flag provided but not defined")
		})
	}
}
