package main

import (
	"bufio"
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// repoRoot finds the checkout root from the benchmark's own directory: the
// benchmark is run with its directory as the working directory (go run -C)
// or from the root itself.
func repoRoot() (string, error) {
	wd, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for _, dir := range []string{wd, filepath.Join(wd, "..", "..")} {
		data, err := os.ReadFile(filepath.Join(dir, "go.mod"))
		if err == nil && bytes.HasPrefix(data, []byte("module repro\n")) {
			return filepath.Abs(dir)
		}
	}
	return "", errors.New("momentsbench: no repro module at . or ../..; run from the repository")
}

// buildDaemon compiles cmd/momentsd into the checkout's .bench_build and
// returns the binary's path and how long the build took.
func buildDaemon(root string) (string, time.Duration, error) {
	bin := filepath.Join(root, ".bench_build", "momentsd")
	if err := os.MkdirAll(filepath.Dir(bin), 0o755); err != nil {
		return "", 0, err
	}
	start := time.Now()
	cmd := exec.Command("go", "build", "-o", bin, "./cmd/momentsd")
	cmd.Dir = root
	if out, err := cmd.CombinedOutput(); err != nil {
		return "", 0, fmt.Errorf("building momentsd: %v\n%s", err, out)
	}
	return bin, time.Since(start), nil
}

// procs owns every child of one benchmark run, so that any exit path —
// error, gate failure, timeout — can stop them all and wait for them.
type procs struct {
	bin string
	dir string // the run's temp dir, removed by close

	mu       sync.Mutex
	children []*daemon
}

func newProcs(root, bin string) (*procs, error) {
	base := filepath.Join(root, ".bench_build")
	dir, err := os.MkdirTemp(base, "run-")
	if err != nil {
		return nil, err
	}
	return &procs{bin: bin, dir: dir}, nil
}

// close kills and reaps every child, then removes the run's temp dir.
func (p *procs) close() {
	p.killAll()
	os.RemoveAll(p.dir)
}

func (p *procs) killAll() {
	p.mu.Lock()
	children := p.children
	p.children = nil
	p.mu.Unlock()
	for _, d := range children {
		d.kill()
	}
}

// daemon is one running momentsd child.
type daemon struct {
	cmd       *exec.Cmd
	base      string // http://host:port
	args      []string
	bootMS    float64
	logs      *tailBuffer
	startedAt time.Time
	waited    chan struct{}

	hwmKB int64 // VmHWM read just before the process ended
}

// tailBuffer keeps the last few KiB of a child's stderr for error reports.
type tailBuffer struct {
	mu  sync.Mutex
	buf []byte
}

func (b *tailBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.buf = append(b.buf, p...)
	if len(b.buf) > 8192 {
		b.buf = b.buf[len(b.buf)-8192:]
	}
	return len(p), nil
}

func (b *tailBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return string(b.buf)
}

var listenRE = regexp.MustCompile(`listening on ([^ ]+) `)

// start launches a store-mode momentsd on a kernel-assigned port and waits
// for its "listening on" line, as cmd/momentsd/crash_test.go does.
func (p *procs) start(args ...string) (*daemon, error) {
	return p.launch(append([]string{"-addr", "127.0.0.1:0"}, args...), true)
}

// restart launches a store-mode daemon again with the flags it had.
func (p *procs) restart(d *daemon) (*daemon, error) { return p.launch(d.args, true) }

// startCoordinator launches momentsd -coordinator. Coordinator mode logs
// the configured address, not the bound one, so the port is reserved by
// binding and releasing it first; a lost race shows as a failed boot.
func (p *procs) startCoordinator(nodes []*daemon) (*daemon, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	addr := ln.Addr().String()
	ln.Close()
	var urls []string
	for _, n := range nodes {
		urls = append(urls, strings.TrimPrefix(n.base, "http://"))
	}
	d, err := p.launch([]string{"-coordinator", "-addr", addr, "-nodes", strings.Join(urls, ",")}, false)
	if err != nil {
		return nil, err
	}
	d.base = "http://" + addr
	if err := d.waitHealthy(10 * time.Second); err != nil {
		return nil, err
	}
	d.bootMS = float64(time.Since(d.startedAt)) / float64(time.Millisecond)
	return d, nil
}

func (p *procs) launch(args []string, parseAddr bool) (*daemon, error) {
	cmd := exec.Command(p.bin, args...)
	// Default GOMAXPROCS for the daemon, whatever the caller's shell says.
	cmd.Env = envWithout(os.Environ(), "GOMAXPROCS")
	stderr, err := cmd.StderrPipe()
	if err != nil {
		return nil, err
	}
	d := &daemon{cmd: cmd, args: args, logs: &tailBuffer{}, waited: make(chan struct{})}
	began := time.Now()
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	p.mu.Lock()
	p.children = append(p.children, d)
	p.mu.Unlock()

	addrc := make(chan string, 1)
	go func() {
		// Keep draining so the child never blocks on a full pipe.
		r := bufio.NewReader(stderr)
		announced := false
		for {
			line, err := r.ReadString('\n')
			d.logs.Write([]byte(line))
			if !announced {
				if m := listenRE.FindStringSubmatch(line); m != nil {
					addrc <- m[1]
					announced = true
				}
			}
			if err != nil {
				break
			}
		}
		close(addrc)
		cmd.Wait()
		close(d.waited)
	}()
	d.startedAt = began
	if !parseAddr {
		return d, nil
	}
	select {
	case addr, ok := <-addrc:
		if !ok {
			return nil, fmt.Errorf("momentsd %v exited before announcing its address:\n%s", args, d.logs)
		}
		d.base = "http://" + addr
		d.bootMS = float64(time.Since(began)) / float64(time.Millisecond)
		return d, nil
	case <-time.After(30 * time.Second):
		d.kill()
		return nil, fmt.Errorf("momentsd %v did not announce an address in 30s:\n%s", args, d.logs)
	}
}

func envWithout(env []string, name string) []string {
	out := env[:0:0]
	for _, e := range env {
		if !strings.HasPrefix(e, name+"=") {
			out = append(out, e)
		}
	}
	return out
}

// kill SIGKILLs the child and waits for it; idempotent.
func (d *daemon) kill() {
	select {
	case <-d.waited:
		return
	default:
	}
	if kb, err := d.statusKB("VmHWM"); err == nil {
		d.hwmKB = kb
	}
	d.cmd.Process.Kill()
	<-d.waited
}

// waitHealthy polls /healthz until it answers 200.
func (d *daemon) waitHealthy(limit time.Duration) error {
	deadline := time.Now().Add(limit)
	for {
		resp, err := http.Get(d.base + "/healthz")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		select {
		case <-d.waited:
			return fmt.Errorf("momentsd %v exited during boot:\n%s", d.args, d.logs)
		default:
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("momentsd %v not healthy after %s:\n%s", d.args, limit, d.logs)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// statusKB reads one "kB" field of /proc/<pid>/status.
func (d *daemon) statusKB(field string) (int64, error) {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", d.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, field+":"); ok {
			f := strings.Fields(rest)
			if len(f) >= 1 {
				return strconv.ParseInt(f[0], 10, 64)
			}
		}
	}
	return 0, fmt.Errorf("no %s in /proc status", field)
}

// peakRSSMB is the process's resident high-water mark.
func (d *daemon) peakRSSMB() float64 {
	if kb, err := d.statusKB("VmHWM"); err == nil {
		return float64(kb) / 1024
	}
	return float64(d.hwmKB) / 1024
}

// cpuSeconds reads utime+stime of a live process from /proc/<pid>/stat.
func cpuSeconds(pid int) (float64, error) {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, err
	}
	// Fields after the parenthesised command name; utime and stime are the
	// 14th and 15th of the line.
	i := bytes.LastIndexByte(data, ')')
	f := strings.Fields(string(data[i+1:]))
	if i < 0 || len(f) < 13 {
		return 0, errors.New("short /proc stat line")
	}
	ut, err1 := strconv.ParseFloat(f[11], 64)
	st, err2 := strconv.ParseFloat(f[12], 64)
	if err1 != nil || err2 != nil {
		return 0, errors.New("unparsable /proc stat times")
	}
	return (ut + st) / clockTicks, nil
}

// clockTicks is USER_HZ, 100 on every Linux port Go supports.
const clockTicks = 100

func (d *daemon) cpuSeconds() float64 {
	s, _ := cpuSeconds(d.cmd.Process.Pid)
	return s
}

// guarded runs fn, and kills every child if it outlives limit or the
// benchmark is interrupted; fn then fails on its dead children and returns.
func guarded(p *procs, limit time.Duration, fn func() error) error {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	ctx, cancel := context.WithTimeout(ctx, limit)
	defer cancel()
	done := make(chan error, 1)
	go func() { done <- fn() }()
	select {
	case err := <-done:
		return err
	case <-ctx.Done():
		p.killAll()
		<-done
		if errors.Is(ctx.Err(), context.DeadlineExceeded) {
			return fmt.Errorf("run exceeded -timeout %s", limit)
		}
		return errors.New("interrupted")
	}
}
