// Command momentsbench is the repository's benchmark: it builds momentsd,
// boots real child processes, drives four seeded workloads against them,
// checks the answers and prints every metric by name. See README.md.
//
//	go run -C cmd/momentsbench . --workload W --seed N --seconds S --trace 0|1
//	    one run of one workload; the last stdout line is the JSON result
//	go run -C cmd/momentsbench . -seed 17 -out DIR [-repeat N] [-trace 1]
//	    all four workloads, N times each; writes DIR/results.json
//	go run -C cmd/momentsbench . -compare A.json B.json
//	go run -C cmd/momentsbench . -seed 17 -dump-inputs DIR
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"time"
)

// runRecord is one run of one workload, as written to results.json and
// printed as the driver's result line.
type runRecord struct {
	Workload  string           `json:"workload,omitempty"`
	Seed      uint64           `json:"seed,omitempty"`
	Seconds   int              `json:"seconds,omitempty"`
	Trace     int              `json:"trace,omitempty"`
	Correct   bool             `json:"correct"`
	Attempted int              `json:"attempted"`
	Failed    int              `json:"failed"`
	Metrics   map[string]value `json:"metrics"`
	// Notes carry gate failures and validity warnings; never on the
	// driver's line.
	Notes []string `json:"notes,omitempty"`
}

type config struct {
	root, bin string
	seed      uint64
	seconds   int
	trace     bool
	timeout   time.Duration
	outDir    string
}

func main() {
	var (
		workloadName = flag.String("workload", "", "run one workload and print one JSON result line last; empty runs all four")
		seed         = flag.Uint64("seed", 17, "the only source of randomness: same seed, same inputs")
		seconds      = flag.Int("seconds", 0, "length of each timed phase (default: run_seconds of BENCHMARK.json)")
		trace        = flag.Int("trace", 0, "1 = after the live run, replay in-process with spans and report the per-layer metrics; 0 = report the end-to-end metrics")
		out          = flag.String("out", "", "directory for results.json and trace.json (default .bench_build/out)")
		repeat       = flag.Int("repeat", 1, "run every workload this many times and print median and quartiles per metric")
		compare      = flag.Bool("compare", false, "compare two results.json files given as arguments, against the bounds of BENCHMARK.json")
		dump         = flag.String("dump-inputs", "", "write every workload's request bodies and send schedule under this directory and exit")
		timeout      = flag.Duration("timeout", 170*time.Second, "kill every child and fail when one run of one workload takes longer")
	)
	flag.Parse()

	root, err := repoRoot()
	if err != nil {
		fatal(err)
	}
	spec, err := loadSpec(root)
	if err != nil {
		fatal(err)
	}
	if *seconds == 0 {
		*seconds = spec.RunSeconds
	}
	switch {
	case *compare:
		if flag.NArg() != 2 {
			fatal(errors.New("-compare needs two results.json files"))
		}
		if err := compareFiles(os.Stdout, spec, flag.Arg(0), flag.Arg(1)); err != nil {
			fatal(err)
		}
		return
	case *dump != "":
		for _, w := range workloads {
			in := w.inputs(*seed, *seconds, 1)
			if in.stamped {
				stamp(in.ks, in.bodies, time.Unix(0, 0), in.bodyDue)
			}
			sched := map[string][]time.Duration{"ingest": in.bodyDue, "query": in.queryDue}
			if err := dumpInputs(*dump, w.name, append(in.preload, in.bodies...), append(in.queries, in.probes...), sched); err != nil {
				fatal(err)
			}
		}
		return
	}

	cfg := config{root: root, seed: *seed, seconds: *seconds, trace: *trace != 0, timeout: *timeout, outDir: *out}
	if cfg.outDir == "" {
		cfg.outDir = filepath.Join(root, ".bench_build", "out")
	}
	if err := os.MkdirAll(cfg.outDir, 0o755); err != nil {
		fatal(err)
	}
	var buildTime time.Duration
	if cfg.bin, buildTime, err = buildDaemon(root); err != nil {
		fatal(err)
	}
	fmt.Printf("momentsd built in %.2f s\n", buildTime.Seconds())

	if *workloadName != "" {
		w := workloadByName(*workloadName)
		if w == nil {
			fatal(fmt.Errorf("unknown workload %q", *workloadName))
		}
		rec, err := runOnce(cfg, w)
		if err != nil {
			fatal(err)
		}
		printRecord(os.Stdout, rec)
		// The driver's line: exactly these four keys, last on stdout. A
		// failed gate reads "correct": false; the exit code stays 0 so the
		// line is read.
		line, _ := json.Marshal(map[string]any{
			"correct": rec.Correct, "attempted": rec.Attempted, "failed": rec.Failed, "metrics": rec.Metrics,
		})
		fmt.Println(string(line))
		return
	}

	var all []runRecord
	ok := true
	for rep := 0; rep < *repeat; rep++ {
		for _, w := range workloads {
			rec, err := runOnce(cfg, w)
			if err != nil {
				fatal(err)
			}
			printRecord(os.Stdout, rec)
			ok = ok && rec.Correct
			all = append(all, *rec)
		}
	}
	data, _ := json.MarshalIndent(all, "", " ")
	path := filepath.Join(cfg.outDir, "results.json")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		fatal(err)
	}
	if *repeat > 1 {
		printSummary(os.Stdout, all)
	}
	fmt.Println("wrote", path)
	if !ok {
		fatal(errors.New("a correctness gate failed"))
	}
}

// runOnce runs one workload once: live, and when tracing also replayed
// in-process. Children never outlive it.
func runOnce(cfg config, w *workload) (*runRecord, error) {
	p, err := newProcs(cfg.root, cfg.bin)
	if err != nil {
		return nil, err
	}
	defer p.close()
	rec := &runRecord{Workload: w.name, Seed: cfg.seed, Seconds: cfg.seconds}
	err = guarded(p, cfg.timeout, func() error {
		// Set-up is repeated for a steadier setup_s; a traced run reports
		// no setup_s and sets up once.
		setups := setupRepeats
		if cfg.trace {
			setups = 1
		}
		run, err := runLive(p, w, cfg.seed, cfg.seconds, setups)
		if err != nil {
			return err
		}
		rec.Attempted, rec.Failed = run.attempts()
		rec.Notes = append(run.gateFailures, run.validity()...)
		rec.Correct = len(run.gateFailures) == 0
		if !cfg.trace {
			rec.Metrics = run.endToEndValues()
			return nil
		}
		rec.Trace = 1
		p.killAll() // the replay is in-process; free the cores
		tr, err := replay(w, run.in, 1, cfg.outDir)
		if err != nil {
			return err
		}
		rec.Metrics = perLayerValues(run, tr)
		rec.Notes = append(rec.Notes, tr.gateFailures...)
		rec.Correct = rec.Correct && len(tr.gateFailures) == 0
		tr.printTables(os.Stdout)
		return tr.writeJSON(filepath.Join(cfg.outDir, "trace.json"))
	})
	if err != nil {
		return nil, err
	}
	return rec, nil
}

// setupRepeats is how many times a run sets up, reporting the median.
const setupRepeats = 3

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "momentsbench:", err)
	os.Exit(1)
}
