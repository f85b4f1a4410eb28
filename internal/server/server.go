package server

import (
	"bufio"
	"bytes"
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
	"repro/internal/maxent"
	"repro/internal/query"
	"repro/internal/shard"
	"repro/internal/wal"
)

// DefaultMaxBodyBytes caps ingest and /v1/query request bodies (32 MiB).
const DefaultMaxBodyBytes = 32 << 20

// restoreBodyFactor scales the ingest body cap up for /restore: snapshots
// are ~200 bytes per key, so the default 32 MiB × 32 = 1 GiB admits stores
// of ~5M keys while still bounding the staging memory a single request can
// pin.
const restoreBodyFactor = 32

// Server is the HTTP front end of a shard.Store. Queries run on one
// internal/query Engine, exposed by POST /v1/query. It implements
// http.Handler; construct with New.
type Server struct {
	store      *shard.Store
	engine     *query.Engine
	mux        *http.ServeMux
	sep        string
	maxBody    int64
	solver     maxent.Options
	workers    int
	solveCache int
	start      time.Time

	batches sync.Pool

	// Write-ahead log (see WithWAL): walLog is nil when durability is
	// off. afterRestore runs after a successful /restore so the caller
	// can checkpoint — without it, stale log records would replay over
	// the restored contents on the next boot.
	walLog       *wal.Log
	afterRestore func() error
}

// ServerOption configures a Server at construction.
type ServerOption func(*Server)

// WithKeySeparator sets the segment separator used by group-by selections
// (default ".").
func WithKeySeparator(sep string) ServerOption {
	return func(s *Server) { s.sep = sep }
}

// WithMaxBodyBytes caps the accepted request body size.
func WithMaxBodyBytes(n int64) ServerOption {
	return func(s *Server) { s.maxBody = n }
}

// WithSolverOptions sets the maximum-entropy solver options used for
// estimates.
func WithSolverOptions(o maxent.Options) ServerOption {
	return func(s *Server) { s.solver = o }
}

// WithQueryWorkers bounds the query engine's executor concurrency
// (default GOMAXPROCS).
func WithQueryWorkers(n int) ServerOption {
	return func(s *Server) { s.workers = n }
}

// WithSolveCache bounds the engine's cross-request solve cache to n
// resolved selections (default query.DefaultSolveCacheSize; n <= 0
// disables it). Hit/miss/eviction counters are surfaced on /v1/stats.
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

// New wires a Server around store.
func New(store *shard.Store, opts ...ServerOption) *Server {
	s := &Server{
		store:      store,
		mux:        http.NewServeMux(),
		sep:        ".",
		maxBody:    DefaultMaxBodyBytes,
		solveCache: query.DefaultSolveCacheSize,
		start:      time.Now(),
	}
	for _, o := range opts {
		o(s)
	}
	s.engine = query.NewEngine(store, query.Config{
		Separator:  s.sep,
		Solver:     s.solver,
		Workers:    s.workers,
		SolveCache: s.solveCache,
	})
	s.batches.New = func() any { return store.NewBatch() }

	s.mux.HandleFunc("POST /ingest", s.handleIngest)
	s.mux.HandleFunc("POST /v1/query", s.handleQueryV1)
	s.mux.HandleFunc("POST /v1/partials", s.handlePartialsV1)
	s.mux.HandleFunc("POST /v1/windows", s.handleWindowsV1)
	s.mux.HandleFunc("GET /keys", s.handleKeys)
	s.mux.HandleFunc("GET /v1/stats", s.handleStats)
	s.mux.HandleFunc("GET /healthz", s.handleHealthz)
	s.mux.HandleFunc("GET /snapshot", s.handleSnapshot)
	s.mux.HandleFunc("POST /restore", s.handleRestore)
	return s
}

// Engine exposes the server's query engine, e.g. for embedding callers
// that want to bypass HTTP.
func (s *Server) Engine() *query.Engine { return s.engine }

// ServeHTTP implements http.Handler.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	s.mux.ServeHTTP(w, r)
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetEscapeHTML(false)
	_ = enc.Encode(v)
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

func (o wireObservation) check() error {
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
	if o.TS != nil && !(*o.TS >= 0 && *o.TS <= maxIngestTS) {
		return errors.New("ts must be a unix timestamp in seconds (is it in milliseconds?)")
	}
	return nil
}

// maxIngestTS bounds the accepted observation timestamp (9e9 s ≈ year
// 2255, safely under math.MaxInt64 nanoseconds ≈ 9.22e9 s). A
// millisecond- or microsecond-unit timestamp — the classic client bug —
// lands far above it and is rejected with a hint, rather than overflowing
// the nanosecond conversion in at() into a negative instant that every
// pane silently drops. The comparison form also rejects NaN.
const maxIngestTS = 9e9

// at converts the optional wire timestamp; the zero time means "stamp at
// flush".
func (o wireObservation) at() time.Time {
	if o.TS == nil {
		return time.Time{}
	}
	return time.Unix(0, int64(*o.TS*float64(time.Second)))
}

// ingestRequest is the enveloped JSON body shape; a bare array of
// observations is accepted too.
type ingestRequest struct {
	Observations []wireObservation `json:"observations"`
}

func (s *Server) handleIngest(w http.ResponseWriter, r *http.Request) {
	body := http.MaxBytesReader(w, r.Body, s.maxBody)
	batch := s.batches.Get().(*shard.Batch)
	defer func() {
		// A rejected request must not mutate the store: drop whatever was
		// buffered before the error. After a successful Flush this is a
		// no-op, and either way the pooled batch goes back clean.
		batch.Discard()
		s.batches.Put(batch)
	}()

	ct := r.Header.Get("Content-Type")
	var err error
	if strings.HasPrefix(ct, "application/x-ndjson") || strings.HasPrefix(ct, "text/plain") {
		err = decodeNDJSON(body, batch)
	} else {
		err = decodeJSONBody(body, batch)
	}
	if err != nil {
		var maxErr *http.MaxBytesError
		if errors.As(err, &maxErr) {
			writeError(w, http.StatusRequestEntityTooLarge, query.CodeTooLarge,
				"body exceeds %d bytes", maxErr.Limit)
			return
		}
		writeError(w, http.StatusBadRequest, query.CodeInvalid, "%v", err)
		return
	}
	// Commit is Flush plus write-ahead logging when the store has a journal:
	// the batch is durable before it is applied or acknowledged.
	n, err := batch.Commit()
	if err != nil {
		writeError(w, http.StatusServiceUnavailable, query.CodeUnavailable,
			"observation log unavailable: %v", err)
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{"ingested": n})
}

// decodeJSONBody accepts {"observations":[...]} or a bare [...] array.
func decodeJSONBody(r io.Reader, batch *shard.Batch) error {
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
		if err := o.check(); err != nil {
			return fmt.Errorf("observation %d: %w", i, err)
		}
		batch.AddAt(o.Key, *o.Value, o.at())
	}
	return nil
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

// decodeNDJSON accepts one {"key":...,"value":...} object per line. The
// line buffer leaves headroom above MaxKeyLen so a maximum-length key is
// rejected by the same key-length check as the JSON-array path, not by an
// opaque scanner error.
//
// This is the ingest hot path, tuned to avoid per-observation allocations:
// lines are decoded straight from the scanner's byte view (no intermediate
// string), and the value field decodes into one reused float via a NaN
// sentinel — JSON cannot express NaN, so a sentinel still in place after
// decoding means the field was absent, which reports the same "missing
// value" error as the enveloped path. Only the key string (retained by the
// batch) and an explicit ts allocate per observation.
func decodeNDJSON(r io.Reader, batch *shard.Batch) error {
	sc := bufio.NewScanner(r)
	bufp := lineBufPool.Get().(*[]byte)
	defer lineBufPool.Put(bufp)
	sc.Buffer(*bufp, shard.MaxKeyLen+64*1024)
	line := 0
	var (
		o   wireObservation
		val float64
	)
	for sc.Scan() {
		line++
		text := bytes.TrimSpace(sc.Bytes())
		if len(text) == 0 {
			continue
		}
		val = math.NaN()
		o = wireObservation{Value: &val} // resets Key and TS; reuses val
		if err := json.Unmarshal(text, &o); err != nil {
			return fmt.Errorf("line %d: %w", line, err)
		}
		if o.Value != nil && math.IsNaN(*o.Value) {
			o.Value = nil // sentinel untouched: the value field was absent
		}
		if err := o.check(); err != nil {
			return fmt.Errorf("line %d: %w", line, err)
		}
		batch.AddAt(o.Key, *o.Value, o.at())
	}
	return sc.Err()
}

// decodeWireObservations decodes an ingest body into wire observations
// without a backing store batch — the coordinator path, which re-marshals
// each observation for its owning node. It dispatches on Content-Type
// exactly like the single-node /ingest: NDJSON (or text/plain) decodes one
// object per line, anything else as a bare array or an {"observations":…}
// envelope. Every observation is validated; a rejected body yields nil.
func decodeWireObservations(r io.Reader, contentType string) ([]wireObservation, error) {
	if strings.HasPrefix(contentType, "application/x-ndjson") || strings.HasPrefix(contentType, "text/plain") {
		sc := bufio.NewScanner(r)
		bufp := lineBufPool.Get().(*[]byte)
		defer lineBufPool.Put(bufp)
		sc.Buffer(*bufp, shard.MaxKeyLen+64*1024)
		var obs []wireObservation
		line := 0
		for sc.Scan() {
			line++
			text := bytes.TrimSpace(sc.Bytes())
			if len(text) == 0 {
				continue
			}
			var o wireObservation
			if err := json.Unmarshal(text, &o); err != nil {
				return nil, fmt.Errorf("line %d: %w", line, err)
			}
			if err := o.check(); err != nil {
				return nil, fmt.Errorf("line %d: %w", line, err)
			}
			obs = append(obs, o)
		}
		if err := sc.Err(); err != nil {
			return nil, err
		}
		return obs, nil
	}
	br := bufio.NewReader(r)
	first, err := firstNonSpace(br)
	if err != nil {
		return nil, errors.New("empty body")
	}
	dec := json.NewDecoder(br)
	var obs []wireObservation
	if first == '[' {
		if err := dec.Decode(&obs); err != nil {
			return nil, fmt.Errorf("decoding observation array: %w", err)
		}
	} else {
		var req ingestRequest
		if err := dec.Decode(&req); err != nil {
			return nil, fmt.Errorf("decoding ingest request: %w", err)
		}
		obs = req.Observations
	}
	for i := range obs {
		if err := obs[i].check(); err != nil {
			return nil, fmt.Errorf("observation %d: %w", i, err)
		}
	}
	return obs, nil
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
		"backend_caps":   b.Caps,
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
