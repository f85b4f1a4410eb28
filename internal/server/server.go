package server

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"strings"
	"sync"
	"time"

	"repro/internal/cascade"
	"repro/internal/core"
	"repro/internal/query"
	"repro/internal/shard"
	"repro/internal/sketch"
	"repro/internal/wal"
)

// DefaultMaxBodyBytes caps ingest and /v1/query request bodies (32 MiB).
const DefaultMaxBodyBytes = 32 << 20

// restoreBodyFactor scales the ingest body cap up for /restore: snapshots
// are ~200 bytes per key, so the default 32 MiB × 32 = 1 GiB admits stores
// of ~5M keys while still bounding the staging memory a single request can
// pin.
const restoreBodyFactor = 32

// executor answers a batched /v1/query request: *query.Engine against the
// local store on a shard node, *cluster.Coordinator against the shard nodes
// in coordinator mode.
type executor interface {
	Execute(ctx context.Context, req *query.Request) (*query.Response, *query.Error)
}

// sink receives the validated observations of one /ingest request, in body
// order, then applies them all or none: a shard.Batch on a shard node, the
// per-owner routed batches on a coordinator.
type sink interface {
	// add takes one observation; ts is the client's optional unix-seconds
	// stamp, nil meaning "now".
	add(key string, value float64, ts *float64)
	// commit applies everything added and reports how many observations
	// were ingested. On a partial_result error the count covers the nodes
	// that did take their slice.
	commit(ctx context.Context) (int, *query.Error)
	// discard drops whatever was added and not committed, leaving the sink
	// clean for the next request.
	discard()
}

// Server is the HTTP edge of momentsd in both of its modes. Over a
// shard.Store (New) it ingests into the store and answers queries from one
// internal/query Engine; over a cluster.Coordinator (NewCoordinator) the
// same /ingest and /v1/query handlers route writes to their owning shard
// nodes and scatter-gather reads. It implements http.Handler.
type Server struct {
	exec    executor
	sinks   sync.Pool // of sink
	mux     *http.ServeMux
	maxBody int64
	start   time.Time
	// maxAbs bounds |value| at /ingest: the serving backend's numeric
	// domain (see ingestDomain).
	maxAbs float64

	// Shard-node state; nil and zero on a coordinator.
	store      *shard.Store
	engine     *query.Engine
	solveCache int

	// Write-ahead log (see WithWAL): walLog is nil when durability is
	// off. afterRestore runs after a successful /restore so the caller
	// can checkpoint — without it, stale log records would replay over
	// the restored contents on the next boot.
	walLog       *wal.Log
	afterRestore func() error
}

// ServerOption configures a shard-node Server at construction.
type ServerOption func(*Server)

// WithSolveCache bounds the engine's cross-request solve cache to n solved
// rollups (default query.DefaultSolveCacheSize; n <= 0 disables it).
// Hit/miss/eviction counters are surfaced on /v1/stats.
func WithSolveCache(n int) ServerOption {
	return func(s *Server) {
		if n < 0 {
			n = 0
		}
		s.solveCache = n
	}
}

// WithWAL surfaces an attached write-ahead log on the server: ingest
// errors from the journal map to 503 with the typed unavailable envelope,
// /v1/stats gains a "wal" section, and afterRestore (may be nil) runs
// after every successful /restore — momentsd passes its checkpoint-save,
// so a restore immediately re-snapshots and truncates the log instead of
// leaving stale records to replay over the restored state. The caller
// must also attach the log to the store (shard.Store.SetJournal); this
// option only wires the HTTP surfaces.
func WithWAL(l *wal.Log, afterRestore func() error) ServerOption {
	return func(s *Server) {
		s.walLog = l
		s.afterRestore = afterRestore
	}
}

// newServer registers the routes both modes serve from the same handlers;
// the caller sets exec and sinks.New.
func newServer() *Server {
	s := &Server{
		mux:     http.NewServeMux(),
		maxBody: DefaultMaxBodyBytes,
		start:   time.Now(),
		maxAbs:  math.MaxFloat64,
	}
	s.mux.HandleFunc("POST /ingest", s.handleIngest)
	s.mux.HandleFunc("POST /v1/query", s.handleQueryV1)
	return s
}

// New wires a shard-node Server around store.
func New(store *shard.Store, opts ...ServerOption) *Server {
	s := newServer()
	s.store = store
	s.maxAbs = ingestDomain(store.Backend())
	s.solveCache = query.DefaultSolveCacheSize
	for _, o := range opts {
		o(s)
	}
	s.engine = query.NewEngine(store, query.Config{SolveCache: s.solveCache})
	s.exec = s.engine
	s.sinks.New = func() any { return &storeSink{batch: store.NewBatch()} }

	s.mux.HandleFunc("POST /v1/partials", s.handlePartialsV1)
	s.mux.HandleFunc("POST /v1/windows", s.handleWindowsV1)
	s.mux.HandleFunc("GET /keys", s.handleKeys)
	s.mux.HandleFunc("GET /v1/stats", s.handleStats)
	s.mux.HandleFunc("GET /healthz", s.handleHealthz)
	s.mux.HandleFunc("GET /snapshot", s.handleSnapshot)
	s.mux.HandleFunc("POST /restore", s.handleRestore)
	return s
}

// Engine exposes a shard-node server's query engine, e.g. for embedding
// callers that want to bypass HTTP; a coordinator has none (nil).
func (s *Server) Engine() *query.Engine { return s.engine }

// ServeHTTP implements http.Handler.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	s.mux.ServeHTTP(w, r)
}

// writeJSON encodes v before committing to a status, so a value that cannot
// be encoded (a non-finite float in an aggregate) answers the typed 500
// internal envelope instead of a 2xx with an empty body.
func writeJSON(w http.ResponseWriter, code int, v any) {
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetEscapeHTML(false)
	if err := enc.Encode(v); err != nil {
		code = http.StatusInternalServerError
		// A failed Encode writes nothing, and the envelope always encodes.
		_ = enc.Encode(map[string]any{
			"error": &query.Error{Code: query.CodeInternal, Message: fmt.Sprintf("encoding response: %v", err)},
		})
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	_, _ = w.Write(buf.Bytes())
}

// writeError emits the structured {code, message} error envelope shared by
// every endpoint.
func writeError(w http.ResponseWriter, status int, code, format string, args ...any) {
	writeJSON(w, status, map[string]any{
		"error": &query.Error{Code: code, Message: fmt.Sprintf(format, args...)},
	})
}

// writeQueryError maps a query error onto its HTTP status (not_found →
// 404, not_converged → 422, deadline_exceeded → 504, ...).
func writeQueryError(w http.ResponseWriter, err *query.Error) {
	writeJSON(w, err.HTTPStatus(), map[string]any{"error": err})
}

// decodeRequest runs decode over the request body under the server's body
// cap and answers the two failures every POST route shares: a body past the
// cap is 413 too_large, any other decode error 400 invalid_request. It
// reports whether the handler should go on.
func (s *Server) decodeRequest(w http.ResponseWriter, r *http.Request, decode func(body io.Reader) error) bool {
	err := decode(http.MaxBytesReader(w, r.Body, s.maxBody))
	if err == nil {
		return true
	}
	var maxErr *http.MaxBytesError
	if errors.As(err, &maxErr) {
		writeError(w, http.StatusRequestEntityTooLarge, query.CodeTooLarge,
			"body exceeds %d bytes", maxErr.Limit)
	} else {
		writeError(w, http.StatusBadRequest, query.CodeInvalid, "%v", err)
	}
	return false
}

// strictJSON is the decode step of the typed JSON routes: one value, unknown
// fields rejected.
func strictJSON(v any) func(io.Reader) error {
	return func(body io.Reader) error {
		dec := json.NewDecoder(body)
		dec.DisallowUnknownFields()
		if err := dec.Decode(v); err != nil {
			return fmt.Errorf("decoding request: %w", err)
		}
		return nil
	}
}

// wireObservation is the ingest wire shape. Value is a pointer so a
// missing or misspelled "value" field is an error rather than a silently
// ingested zero. TS is the optional observation instant in (possibly
// fractional) unix seconds; absent means "now". On windowed stores it
// selects the time pane the value lands in; timeless stores ignore it.
type wireObservation struct {
	Key   string   `json:"key"`
	Value *float64 `json:"value"`
	TS    *float64 `json:"ts,omitempty"`
}

// ingestDomain is the largest |value| /ingest accepts for a backend: on
// moments, core.MaxAbs of the order, so no moment vector or rollup of up
// to core.MaxCount observations overflows; on the other families every
// finite value.
func ingestDomain(b sketch.Backend) float64 {
	if k := b.Order(); k > 0 {
		return core.MaxAbs(k)
	}
	return math.MaxFloat64
}

// check validates one observation; maxAbs bounds |value| (ingestDomain).
func (o wireObservation) check(maxAbs float64) error {
	if o.Key == "" {
		return errors.New("missing key")
	}
	if len(o.Key) > shard.MaxKeyLen {
		return fmt.Errorf("key exceeds %d bytes", shard.MaxKeyLen)
	}
	if o.Value == nil {
		return errors.New("missing value")
	}
	if math.IsNaN(*o.Value) || math.IsInf(*o.Value, 0) {
		return errors.New("value must be finite")
	}
	if math.Abs(*o.Value) > maxAbs {
		return fmt.Errorf("value %g outside the ingest domain |value| <= %g", *o.Value, maxAbs)
	}
	if o.TS != nil && !(*o.TS >= 0 && *o.TS <= maxIngestTS) {
		return errors.New("ts must be a unix timestamp in seconds (is it in milliseconds?)")
	}
	return nil
}

// maxIngestTS bounds the accepted observation timestamp (9e9 s ≈ year
// 2255, safely under math.MaxInt64 nanoseconds ≈ 9.22e9 s). A
// millisecond- or microsecond-unit timestamp — the classic client bug —
// lands far above it and is rejected with a hint, rather than overflowing
// the nanosecond conversion in storeSink.add into a negative instant that
// every pane silently drops. The comparison form also rejects NaN.
const maxIngestTS = 9e9

// ingestRequest is the enveloped JSON body shape; a bare array of
// observations is accepted too.
type ingestRequest struct {
	Observations []wireObservation `json:"observations"`
}

// storeSink is a shard node's sink: a pooled shard.Batch.
type storeSink struct {
	batch *shard.Batch
}

// add buffers the observation; the zero time means "stamp at flush".
func (k *storeSink) add(key string, value float64, ts *float64) {
	var at time.Time
	if ts != nil {
		at = time.Unix(0, int64(*ts*float64(time.Second)))
	}
	k.batch.AddAt(key, value, at)
}

// commit is Flush plus write-ahead logging when the store has a journal:
// the batch is durable before it is applied or acknowledged.
func (k *storeSink) commit(context.Context) (int, *query.Error) {
	n, err := k.batch.Commit()
	if err != nil {
		return 0, query.Errorf(query.CodeUnavailable, "observation log unavailable: %v", err)
	}
	return n, nil
}

func (k *storeSink) discard() { k.batch.Discard() }

// handleIngest decodes the body — NDJSON by Content-Type, else a bare array
// or an {"observations":…} envelope — into a pooled sink and commits it.
func (s *Server) handleIngest(w http.ResponseWriter, r *http.Request) {
	to := s.sinks.Get().(sink)
	defer func() {
		// A rejected request must not mutate anything: drop whatever was
		// added before the error. After a successful commit this is a
		// no-op, and either way the pooled sink goes back clean.
		to.discard()
		s.sinks.Put(to)
	}()

	ct := r.Header.Get("Content-Type")
	ndjson := strings.HasPrefix(ct, "application/x-ndjson") || strings.HasPrefix(ct, "text/plain")
	if !s.decodeRequest(w, r, func(body io.Reader) error { return decodeIngest(body, ndjson, s.maxAbs, to) }) {
		return
	}
	n, qerr := to.commit(r.Context())
	switch {
	case qerr == nil:
		writeJSON(w, http.StatusOK, map[string]any{"ingested": n})
	case qerr.Code == query.CodePartialResult:
		// Delivery is all-or-nothing per owning node: the count the
		// reachable nodes ingested travels alongside the envelope naming
		// the others.
		writeJSON(w, qerr.HTTPStatus(), map[string]any{"ingested": n, "error": qerr})
	default:
		writeQueryError(w, qerr)
	}
}

// lineBufPool recycles the NDJSON scanner's initial line buffers across
// requests, so steady-state ingest pays no per-request buffer allocation.
// The scanner grows past 64 KiB only for oversized lines (huge keys); the
// pooled original stays reusable either way.
var lineBufPool = sync.Pool{
	New: func() any {
		b := make([]byte, 64*1024)
		return &b
	},
}

// maxLineBytes caps one NDJSON line: a MaxKeyLen key with every byte
// escaped as \u00XX — the longest JSON form of a key check accepts, which
// a coordinator forwards for a key it took in a JSON framing — plus
// headroom for the rest of the object.
const maxLineBytes = 6*shard.MaxKeyLen + 64*1024

// decodeIngest is the one ingest body decoder, on a shard node and a
// coordinator alike. It reads one of three framings — NDJSON (one
// {"key":...,"value":...} object per line) when ndjson is set, else a bare
// [...] array or an {"observations":[...]} envelope — validates every
// observation with check against maxAbs, and hands each to the sink in
// body order. On error the sink may hold a prefix of the body; the caller
// discards it.
//
// The NDJSON loop is the ingest hot path and decodes each line in one of
// two tiers. parseLine takes the canonical shape {"key":"…","value":N
// [,"ts":N]} — plain-ASCII key, JSON numbers, fields in any order — straight
// from the scanner's byte view, allocating only the key string the sink
// retains and, when present, a fresh ts (sinks may keep the pointer). Any
// line it refuses goes to json.Unmarshal into a zero wireObservation, so
// the accepted and rejected lines and the error text are encoding/json's:
// FuzzNDJSONLineMatchesJSON holds the two tiers to the same result bit for
// bit. The line buffer admits maxLineBytes, so a key is judged by the same
// key-length check as in the JSON framings, not by an opaque scanner error.
func decodeIngest(r io.Reader, ndjson bool, maxAbs float64, to sink) error {
	if ndjson {
		sc := bufio.NewScanner(r)
		bufp := lineBufPool.Get().(*[]byte)
		defer lineBufPool.Put(bufp)
		sc.Buffer(*bufp, maxLineBytes)
		line := 0
		var (
			o   wireObservation
			val float64
		)
		for sc.Scan() {
			if sc.Err() != nil {
				// The read failed (body cap, dropped connection) and the
				// scanner is draining what it had buffered: report the
				// read error, not the line it tore.
				break
			}
			line++
			text := bytes.TrimSpace(sc.Bytes())
			if len(text) == 0 {
				continue
			}
			if key, v, ts, hasTS, ok := parseLine(text); ok {
				val = v
				o = wireObservation{Key: string(key), Value: &val}
				if hasTS {
					o.TS = new(float64)
					*o.TS = ts
				}
			} else {
				o = wireObservation{}
				if err := json.Unmarshal(text, &o); err != nil {
					return fmt.Errorf("line %d: %w", line, err)
				}
			}
			if err := o.check(maxAbs); err != nil {
				return fmt.Errorf("line %d: %w", line, err)
			}
			to.add(o.Key, *o.Value, o.TS)
		}
		return sc.Err()
	}

	br := bufio.NewReader(r)
	first, err := firstNonSpace(br)
	if err != nil {
		return errors.New("empty body")
	}
	dec := json.NewDecoder(br)
	var obs []wireObservation
	if first == '[' {
		if err := dec.Decode(&obs); err != nil {
			return fmt.Errorf("decoding observation array: %w", err)
		}
	} else {
		var req ingestRequest
		if err := dec.Decode(&req); err != nil {
			return fmt.Errorf("decoding ingest request: %w", err)
		}
		obs = req.Observations
	}
	for i, o := range obs {
		if err := o.check(maxAbs); err != nil {
			return fmt.Errorf("observation %d: %w", i, err)
		}
		to.add(o.Key, *o.Value, o.TS)
	}
	return nil
}

func firstNonSpace(br *bufio.Reader) (byte, error) {
	for {
		c, err := br.ReadByte()
		if err != nil {
			return 0, err
		}
		switch c {
		case ' ', '\t', '\r', '\n':
			continue
		}
		if err := br.UnreadByte(); err != nil {
			return 0, err
		}
		return c, nil
	}
}

func (s *Server) handleKeys(w http.ResponseWriter, r *http.Request) {
	keys := s.store.Keys(r.URL.Query().Get("prefix"))
	if keys == nil {
		keys = []string{}
	}
	writeJSON(w, http.StatusOK, map[string]any{"count": len(keys), "keys": keys})
}

// handleStats serves GET /v1/stats.
func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	cs := s.engine.CascadeStats()
	resolved := map[string]int{}
	for stage := cascade.Stage(0); stage < cascade.NumStages; stage++ {
		resolved[stage.String()] = cs.Resolved[stage]
	}
	b := s.store.Backend()
	walSection := any(map[string]any{"enabled": false})
	if s.walLog != nil {
		walSection = struct {
			Enabled bool `json:"enabled"`
			wal.Stats
		}{true, s.walLog.Stats()}
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"keys":           s.store.Len(),
		"observations":   s.store.TotalCount(),
		"shards":         s.store.NumShards(),
		"order":          s.store.Order(),
		"backend":        b.Fingerprint(),
		"uptime_seconds": time.Since(s.start).Seconds(),
		"cascade": map[string]any{
			"queries":       cs.Queries,
			"resolved":      resolved,
			"solves":        cs.Solves,
			"shared_solves": cs.SharedSolves,
			"newton_iters":  cs.NewtonIters,
		},
		"solve_cache": s.engine.CacheStats(),
		"read_path":   s.store.ReadStats(),
		"wal":         walSection,
	})
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
}

func (s *Server) handleSnapshot(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "application/octet-stream")
	w.Header().Set("Content-Disposition", "attachment; filename=momentsd.snapshot")
	if err := s.store.Snapshot(w); err != nil {
		// Headers are gone; the client sees a truncated stream and the
		// Restore side will reject it.
		return
	}
}

func (s *Server) handleRestore(w http.ResponseWriter, r *http.Request) {
	// Restore validates the whole stream — including its trailer — into a
	// staging area before touching the store, so the body cap (scaled well
	// above the ingest limit, since snapshots run ~200 bytes per key) also
	// bounds the memory one request can pin.
	body := http.MaxBytesReader(w, r.Body, s.maxBody*restoreBodyFactor)
	if err := s.store.Restore(body); err != nil {
		writeError(w, http.StatusBadRequest, query.CodeInvalid, "%v", err)
		return
	}
	if s.afterRestore != nil {
		// Checkpoint the write-ahead log against the restored contents;
		// stale pre-restore records must not replay over them next boot.
		if err := s.afterRestore(); err != nil {
			writeError(w, http.StatusInternalServerError, query.CodeInternal,
				"store restored, but checkpointing the observation log failed (restored data is not yet crash-durable): %v", err)
			return
		}
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"keys":         s.store.Len(),
		"observations": s.store.TotalCount(),
	})
}
