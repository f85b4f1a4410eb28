// Command momentsd is a long-running HTTP aggregation server backed by a
// sharded store of per-key moments sketches. It ingests (key, value)
// observations and answers quantile, rollup and threshold queries over any
// key or key prefix — the paper's high-cardinality aggregation workload as
// a service.
//
// Usage:
//
//	momentsd [-addr :7607] [-backend moments[:K]] [-shards N] [-sep .]
//	         [-workers N] [-solve-cache N] [-pane-width DUR] [-panes N]
//	         [-snapshot FILE] [-snapshot-interval DUR]
//	         [-wal-dir DIR] [-wal-segment-size N] [-pprof-addr ADDR]
//	momentsd -coordinator -nodes host1:7607,host2:7607[,...]
//	         [-addr :7607] [-backend moments[:K]] [-node-timeout DUR]
//	         [-hedge-after DUR] [-pprof-addr ADDR]
//
// -coordinator switches momentsd into scatter-gather mode: the same HTTP
// edge (internal/server) over a cluster coordinator instead of a local
// store. It serves /ingest and /v1/query by routing keys to the
// -nodes shard list via rendezvous hashing, fanning selections out
// concurrently over the internal POST /v1/partials endpoint, and merging
// the nodes' partial aggregates — O(k) backend-codec vectors — before
// solving at the coordinator. Fan-out is deadline-aware (each node gets
// the smaller of -node-timeout and ~90% of the request's remaining
// deadline; answers missing nodes carry the typed partial_result envelope
// naming them) and hedges slow shards with one duplicate-suppressed retry
// after -hedge-after (0 = adaptively after the 90th percentile of recent
// node latencies). -backend must match the shard nodes' configuration;
// scatter-gather counters appear under "coordinator" on /v1/stats. See
// ARCHITECTURE.md "Scatter-gather serving".
//
// -backend selects the serving summary backend: the default "moments"
// sketch (order 10), or one of the paper's §6.1 baselines — "merge12",
// "tdigest", "sampling" — optionally parameterized as name:param (e.g.
// moments:12 for sketch order 12, tdigest:200).
// Non-moments backends answer quantile and threshold aggregations from
// their own estimators; aggregations needing moment structure (cdf,
// rank_bounds, histogram, stats) and the /v1/windows cascade scan return
// the typed backend_unsupported error. Snapshots are tagged with the
// backend and refuse to restore across backends.
//
// -solve-cache bounds the engine's cross-request solve cache (resolved
// selections with their solved max-ent densities, invalidated by mutation
// version; capacity in cached rollups, default 1024, 0 disables) —
// hit/miss/eviction counters appear on /v1/stats. -pprof-addr serves
// net/http/pprof on a separate listener for live profiling (off by default;
// see ARCHITECTURE.md "Profiling a live daemon").
//
// With -pane-width, the store gains a time dimension: every key keeps a
// ring of -panes fixed-width time panes alongside its all-time sketch,
// enabling window selections on /v1/query and the POST /v1/windows alert
// scan (sliding-window threshold queries per §7.2.2 of the paper, slid by
// turnstile pane subtraction instead of re-merging):
//
//	momentsd -pane-width 1m -panes 240   # 4h of 1-minute panes
//	curl -XPOST localhost:7607/v1/query -d '{"queries":[
//	  {"id":"p99-last-hour","select":{"key":"us.web","window":{"last":60}},
//	   "aggregations":[{"op":"quantiles","phis":[0.99]}]}]}'
//	curl -XPOST localhost:7607/v1/windows \
//	  -d '{"prefix":"us.","width":60,"t":100,"phi":0.99}'
//
// With -snapshot, the store is restored from FILE at startup (when the file
// exists) and saved back on shutdown; -snapshot-interval additionally saves
// periodically. Snapshots are written to a temp file and renamed, so a
// crash mid-save never corrupts the previous snapshot. Windowed stores
// write the versioned pane-carrying snapshot format; the pane
// configuration must match when restoring.
//
// -wal-dir adds crash durability between snapshots: every ingest batch is
// appended to a per-stripe write-ahead log and group-commit fsynced before
// the request is acknowledged, so a SIGKILL or power loss never loses an
// acknowledged observation. At startup the log is replayed on top of the
// restored snapshot (tolerating a torn tail from the crash itself), and
// each successful snapshot doubles as a checkpoint that truncates the
// covered segments. -wal-segment-size bounds segment files before
// rotation. A log write or fsync failure wedges the log: every later
// ingest answers a typed 503 until restart, so an acknowledgement always
// means fsynced. Log health appears under "wal" on /v1/stats. Requires
// -snapshot. See ARCHITECTURE.md "Durability & crash recovery".
//
// The query surface is the batched typed endpoint POST /v1/query (see
// internal/query): one request carries any number of subqueries —
// exact keys, prefix rollups, group-bys — each with its own aggregation
// list, executed by a parallel planner/executor (-workers bounds how many
// rollups one request resolves or evaluates at once):
//
//	curl -XPOST localhost:7607/ingest -d '{"observations":[{"key":"us.web","value":12.5}]}'
//	curl -XPOST localhost:7607/v1/query -d '{"queries":[
//	  {"id":"per-service","select":{"prefix":"us.","group_by":1},
//	   "aggregations":[{"op":"quantiles","phis":[0.5,0.99]},{"op":"stats"}]},
//	  {"id":"slo","select":{"prefix":"us."},
//	   "aggregations":[{"op":"threshold","t":100,"phi":0.99}]}]}'
//	curl 'localhost:7607/v1/stats'
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	_ "net/http/pprof" // registered on DefaultServeMux, served only via -pprof-addr
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"syscall"
	"time"

	"repro/internal/cluster"
	"repro/internal/query"
	"repro/internal/server"
	"repro/internal/shard"
	"repro/internal/sketch"
	"repro/internal/wal"
)

func main() {
	var (
		addr         = flag.String("addr", ":7607", "listen address")
		backendSpec  = flag.String("backend", "moments", "serving summary backend: moments, merge12, tdigest or sampling, optionally with a size parameter as name:param (e.g. moments:12 for sketch order 12, tdigest:200)")
		shards       = flag.Int("shards", 0, "lock stripes (0 = 8×GOMAXPROCS, rounded to a power of two)")
		sep          = flag.String("sep", ".", "key segment separator for group-by selections")
		workers      = flag.Int("workers", 0, "rollups one query request resolves or evaluates at once (0 = GOMAXPROCS)")
		solveCache   = flag.Int("solve-cache", query.DefaultSolveCacheSize, "cross-request solve cache capacity in cached rollups (group-by selections charge one per group; 0 disables)")
		paneWidth    = flag.Duration("pane-width", 0, "time pane width; > 0 enables windowed queries (/v1/query window selections, /v1/windows)")
		panes        = flag.Int("panes", 240, "time panes retained per key when -pane-width is set")
		snapshotPath = flag.String("snapshot", "", "snapshot file: restored at startup, saved on shutdown")
		snapInterval = flag.Duration("snapshot-interval", 0, "additionally save the snapshot this often (0 = only on shutdown)")
		walDir       = flag.String("wal-dir", "", "write-ahead log directory: every acknowledged observation is fsynced here before the ack and replayed after a crash (requires -snapshot)")
		walSegSize   = flag.Int64("wal-segment-size", wal.DefaultSegmentSize, "bytes per log segment before rotating to a new one (with -wal-dir)")
		pprofAddr    = flag.String("pprof-addr", "", "serve net/http/pprof on this address (e.g. localhost:6060; empty = off)")

		coordinator = flag.Bool("coordinator", false, "scatter-gather mode: route to the -nodes shard list instead of serving a local store")
		nodesSpec   = flag.String("nodes", "", "comma-separated shard node base URLs (coordinator mode; bare host:port gets the http scheme)")
		nodeTimeout = flag.Duration("node-timeout", 2*time.Second, "per-node budget for one fan-out attempt (coordinator mode)")
		hedgeAfter  = flag.Duration("hedge-after", 0, "fixed delay before hedging a slow shard with a duplicate request (0 = adaptive: the 90th percentile of recent node latencies; coordinator mode)")
	)
	flag.Parse()

	backend, err := sketch.ParseBackend(*backendSpec)
	if err != nil {
		log.Fatalf("momentsd: -backend: %v", err)
	}

	if *coordinator {
		// No local store, no snapshots — just routing, fan-out, merge and
		// solve over the shard nodes, behind the same HTTP edge.
		if *nodesSpec == "" {
			log.Fatalf("momentsd: -coordinator requires -nodes")
		}
		if *snapshotPath != "" || *paneWidth != 0 || *walDir != "" {
			log.Fatalf("momentsd: -snapshot, -pane-width and -wal-dir configure a local store; a coordinator has none")
		}
		coord, err := cluster.New(cluster.Config{
			Nodes:       strings.Split(*nodesSpec, ","),
			Backend:     backend,
			NodeTimeout: *nodeTimeout,
			HedgeAfter:  *hedgeAfter,
		})
		if err != nil {
			log.Fatalf("momentsd: %v", err)
		}
		ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
		defer stop()
		startPprof(*pprofAddr)
		serve(ctx, *addr, server.NewCoordinator(coord), func(bound net.Addr) {
			log.Printf("momentsd: coordinating %d nodes on %s (backend %s)",
				len(coord.Nodes()), bound, backend.Fingerprint())
		})
		return
	}
	if *nodesSpec != "" {
		log.Fatalf("momentsd: -nodes requires -coordinator")
	}

	opts := []shard.Option{shard.WithBackend(backend), shard.WithShards(*shards)}
	if *paneWidth < 0 {
		log.Fatalf("momentsd: -pane-width must be positive")
	}
	if *paneWidth > 0 {
		if *panes < 2 || *panes > shard.MaxRetention {
			log.Fatalf("momentsd: -panes %d outside [2,%d]", *panes, shard.MaxRetention)
		}
		opts = append(opts, shard.WithWindow(*paneWidth, *panes))
	}
	if *walDir == "" {
		flag.Visit(func(f *flag.Flag) {
			if f.Name == "wal-segment-size" {
				log.Fatalf("momentsd: -wal-segment-size requires -wal-dir")
			}
		})
	} else {
		if *snapshotPath == "" {
			// The log is truncated against snapshots; without one it would
			// grow forever and replay from the beginning of time.
			log.Fatalf("momentsd: -wal-dir requires -snapshot")
		}
		if *walSegSize <= 0 {
			log.Fatalf("momentsd: -wal-segment-size must be positive")
		}
	}

	store := shard.New(opts...)
	var cuts []uint64
	if *snapshotPath != "" {
		var err error
		if cuts, err = loadSnapshot(store, *snapshotPath); err != nil {
			log.Fatalf("momentsd: restoring snapshot: %v", err)
		}
	}

	// Replay the write-ahead log before serving: every record past the
	// snapshot's watermark re-applies through a batch (whole records only
	// — replay never half-applies), then the log is opened for fresh
	// segments and attached as the store's journal.
	var walLog *wal.Log
	if *walDir != "" {
		// At GOMAXPROCS=1 an fsync syscall holds the runtime's only P until
		// sysmon retakes it, so ingest compute and the group-commit fsync
		// strictly alternate instead of overlapping. A second P costs
		// nothing when idle and lets the CPU encode the next pile while the
		// device commits the last one. Respect an explicit operator choice.
		if os.Getenv("GOMAXPROCS") == "" && runtime.GOMAXPROCS(0) == 1 {
			runtime.GOMAXPROCS(2)
			log.Printf("momentsd: raised GOMAXPROCS to 2 so ingest overlaps write-ahead log fsyncs")
		}
		fp := store.Backend().Fingerprint()
		replayBatch := store.NewBatch()
		rs, err := wal.Replay(*walDir, fp, cuts, func(obs []shard.Observation) error {
			for _, o := range obs {
				replayBatch.AddAt(o.Key, o.Value, o.At)
			}
			replayBatch.Flush()
			return nil
		}, log.Printf)
		if err != nil {
			log.Fatalf("momentsd: replaying write-ahead log: %v", err)
		}
		if rs.Records > 0 || rs.TornSegments > 0 {
			log.Printf("momentsd: replayed %d observations (%d records, %d segments, %d torn) from %s",
				rs.Observations, rs.Records, rs.Segments, rs.TornSegments, *walDir)
		}
		walLog, err = wal.Open(wal.Options{
			Dir:         *walDir,
			SegmentSize: *walSegSize,
			Fingerprint: fp,
			SeqFloor:    cuts,
			Logf:        log.Printf,
		})
		if err != nil {
			log.Fatalf("momentsd: opening write-ahead log: %v", err)
		}
		walLog.NoteReplay(rs)
		store.SetJournal(walLog)
	}

	serverOpts := []server.ServerOption{
		server.WithKeySeparator(*sep),
		server.WithQueryWorkers(*workers),
		server.WithSolveCache(*solveCache),
	}

	// snapMu serializes snapshot saves so an in-flight periodic save cannot
	// finish after — and thereby clobber — the final shutdown snapshot.
	// With a write-ahead log attached, every save is a checkpoint: appends
	// pause while the log seals its segments and the snapshot (stamped with
	// the log's cut watermark) is written, then the covered segments are
	// deleted.
	var snapMu sync.Mutex
	save := func() error {
		snapMu.Lock()
		defer snapMu.Unlock()
		if walLog != nil {
			return walLog.Checkpoint(func(cuts []uint64) error {
				return saveSnapshot(store, *snapshotPath, cuts)
			})
		}
		return saveSnapshot(store, *snapshotPath, nil)
	}
	if walLog != nil {
		serverOpts = append(serverOpts, server.WithWAL(walLog, save))
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	startPprof(*pprofAddr)
	if *snapshotPath != "" && *snapInterval > 0 {
		go func() {
			t := time.NewTicker(*snapInterval)
			defer t.Stop()
			for {
				select {
				case <-ctx.Done():
					return
				case <-t.C:
					if err := save(); err != nil {
						log.Printf("momentsd: periodic snapshot: %v", err)
					}
				}
			}
		}()
	}

	serve(ctx, *addr, server.New(store, serverOpts...), func(bound net.Addr) {
		windowed := ""
		if w, n, ok := store.WindowConfig(); ok {
			windowed = fmt.Sprintf(", %d×%s panes", n, w)
		}
		durable := ""
		if walLog != nil {
			durable = fmt.Sprintf(", wal %s", *walDir)
		}
		log.Printf("momentsd: listening on %s (backend %s, %d shards%s%s)",
			bound, store.Backend().Fingerprint(), store.NumShards(), windowed, durable)
	})
	if *snapshotPath != "" {
		if err := save(); err != nil {
			log.Fatalf("momentsd: final snapshot: %v", err)
		}
		log.Printf("momentsd: snapshot saved to %s", *snapshotPath)
	}
	if walLog != nil {
		if err := walLog.Close(); err != nil {
			log.Printf("momentsd: closing write-ahead log: %v", err)
		}
	}
}

// serve is the serving loop of both modes: it listens on addr, announces
// the bound address (listening before announcing, so with -addr :0 — tests,
// the crash harness — the logged port is the kernel-assigned one callers
// need), serves handler until ctx is cancelled by SIGINT/SIGTERM, then
// drains in-flight requests for up to ten seconds.
func serve(ctx context.Context, addr string, handler http.Handler, announce func(bound net.Addr)) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		log.Fatalf("momentsd: %v", err)
	}
	srv := &http.Server{Handler: handler, ReadHeaderTimeout: 10 * time.Second}
	announce(ln.Addr())
	errc := make(chan error, 1)
	go func() { errc <- srv.Serve(ln) }()

	select {
	case err := <-errc:
		log.Fatalf("momentsd: %v", err)
	case <-ctx.Done():
	}

	log.Printf("momentsd: shutting down")
	shutdownCtx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := srv.Shutdown(shutdownCtx); err != nil {
		log.Printf("momentsd: shutdown: %v", err)
	}
}

// startPprof serves net/http/pprof on its own listener (and the default
// mux), so the profiling endpoints are never reachable through the serving
// address. See ARCHITECTURE.md "Profiling a live daemon". Empty addr = off.
func startPprof(addr string) {
	if addr == "" {
		return
	}
	go func() {
		log.Printf("momentsd: pprof listening on %s", addr)
		pp := &http.Server{Addr: addr, Handler: http.DefaultServeMux, ReadHeaderTimeout: 10 * time.Second}
		if err := pp.ListenAndServe(); err != nil && !errors.Is(err, http.ErrServerClosed) {
			log.Printf("momentsd: pprof server: %v", err)
		}
	}()
}

// loadSnapshot restores the store from path; a missing file is not an
// error (first boot). It returns the WAL watermark embedded in the
// snapshot footer, if any: the per-stripe segment sequence numbers whose
// observations the snapshot already covers. A snapshot without a
// watermark (pre-WAL format, or WAL disabled when it was written)
// returns nil cuts, which makes replay conservatively re-apply every
// segment — merges are idempotent only at the segment granularity the
// watermark provides, so nil is the safe direction.
func loadSnapshot(store *shard.Store, path string) ([]uint64, error) {
	f, err := os.Open(path)
	if errors.Is(err, os.ErrNotExist) {
		return nil, nil
	}
	if err != nil {
		return nil, err
	}
	defer f.Close()
	if err := store.Restore(f); err != nil {
		return nil, err
	}
	cuts, err := wal.ReadWatermark(path)
	if err != nil {
		return nil, err
	}
	log.Printf("momentsd: restored %d keys (%.0f observations) from %s",
		store.Len(), store.TotalCount(), path)
	return cuts, nil
}

// saveSnapshot writes atomically: temp file in the same directory, fsync,
// rename, directory fsync. The final fsync makes the rename itself
// durable — without it a crash can roll the directory entry back to the
// old snapshot even though the new bytes hit disk. When cuts is non-nil
// the WAL watermark footer is appended after the store payload so the
// next boot knows which segments the snapshot already covers.
func saveSnapshot(store *shard.Store, path string, cuts []uint64) error {
	dir := filepath.Dir(path)
	f, err := os.CreateTemp(dir, ".momentsd-snapshot-*")
	if err != nil {
		return err
	}
	tmp := f.Name()
	defer os.Remove(tmp)
	if err := store.Snapshot(f); err != nil {
		f.Close()
		return err
	}
	if cuts != nil {
		if err := wal.AppendWatermark(f, cuts); err != nil {
			f.Close()
			return err
		}
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	if err := os.Rename(tmp, path); err != nil {
		return fmt.Errorf("renaming snapshot into place: %w", err)
	}
	return wal.SyncDir(dir)
}
