package server

import (
	"encoding/json"
	"errors"
	"net/http"
	"time"

	"repro/internal/cluster"
	"repro/internal/query"
)

// CoordinatorServer is the HTTP face of scatter-gather serving: the same
// public endpoints as a shard node (/ingest, /v1/query, /v1/stats,
// /healthz), answered by routing to the cluster instead of a local store.
// Reads fan selections out to every relevant shard and merge the partial
// aggregates; writes forward each observation to its rendezvous owner.
type CoordinatorServer struct {
	coord   *cluster.Coordinator
	mux     *http.ServeMux
	maxBody int64
	start   time.Time
}

// CoordinatorOption customizes a CoordinatorServer.
type CoordinatorOption func(*CoordinatorServer)

// WithCoordinatorMaxBodyBytes caps the accepted request body size.
func WithCoordinatorMaxBodyBytes(n int64) CoordinatorOption {
	return func(s *CoordinatorServer) { s.maxBody = n }
}

// NewCoordinator wires the coordinator-mode HTTP server around coord.
func NewCoordinator(coord *cluster.Coordinator, opts ...CoordinatorOption) *CoordinatorServer {
	s := &CoordinatorServer{
		coord:   coord,
		mux:     http.NewServeMux(),
		maxBody: DefaultMaxBodyBytes,
		start:   time.Now(),
	}
	for _, opt := range opts {
		opt(s)
	}
	s.mux.HandleFunc("POST /ingest", s.handleIngest)
	s.mux.HandleFunc("POST /v1/query", s.handleQueryV1)
	s.mux.HandleFunc("GET /v1/stats", s.handleStats)
	s.mux.HandleFunc("GET /healthz", s.handleHealthz)
	return s
}

// ServeHTTP implements http.Handler.
func (s *CoordinatorServer) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	s.mux.ServeHTTP(w, r)
}

// handleQueryV1 runs the batched typed query across the cluster: identical
// request and response shapes to a shard node's /v1/query, with the
// additional partial_result envelope when shards were unreachable.
func (s *CoordinatorServer) handleQueryV1(w http.ResponseWriter, r *http.Request) {
	body := http.MaxBytesReader(w, r.Body, s.maxBody)
	dec := json.NewDecoder(body)
	dec.DisallowUnknownFields()
	var req query.Request
	if err := dec.Decode(&req); err != nil {
		var maxErr *http.MaxBytesError
		if errors.As(err, &maxErr) {
			writeError(w, http.StatusRequestEntityTooLarge, query.CodeTooLarge,
				"body exceeds %d bytes", maxErr.Limit)
			return
		}
		writeError(w, http.StatusBadRequest, query.CodeInvalid, "decoding request: %v", err)
		return
	}
	resp, qerr := s.coord.Execute(r.Context(), &req)
	if qerr != nil {
		writeQueryError(w, qerr)
		return
	}
	writeJSON(w, http.StatusOK, resp)
}

// handleIngest decodes the standard ingest body — enveloped or bare-array
// JSON, or NDJSON by Content-Type, exactly like a shard node's /ingest —
// and forwards each observation to its owning shard. Delivery is
// all-or-nothing per owning node; nodes whose batch could not be delivered
// are reported in a partial_result envelope alongside the count the others
// ingested.
func (s *CoordinatorServer) handleIngest(w http.ResponseWriter, r *http.Request) {
	body := http.MaxBytesReader(w, r.Body, s.maxBody)
	obs, err := decodeWireObservations(body, r.Header.Get("Content-Type"))
	if err != nil {
		var maxErr *http.MaxBytesError
		if errors.As(err, &maxErr) {
			writeError(w, http.StatusRequestEntityTooLarge, query.CodeTooLarge,
				"body exceeds %d bytes", maxErr.Limit)
			return
		}
		writeError(w, http.StatusBadRequest, query.CodeInvalid, "decoding request: %v", err)
		return
	}
	routed := make([]cluster.Observation, len(obs))
	for i, o := range obs {
		routed[i] = cluster.Observation{Key: o.Key, Value: o.Value, TS: o.TS}
	}

	ingested, failed, err := s.coord.Ingest(r.Context(), routed)
	if len(failed) > 0 {
		qerr := &query.Error{
			Code:    query.CodePartialResult,
			Message: "ingest not delivered to every owning node: " + err.Error(),
			Nodes:   failed,
		}
		writeJSON(w, qerr.HTTPStatus(), map[string]any{"ingested": ingested, "error": qerr})
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{"ingested": ingested})
}

// handleStats serves the coordinator's counters on /v1/stats:
// mode and backend mirror a shard node's fields, and the coordinator
// section carries the scatter-gather counters (fan-outs, hedges, partial
// results, per-node request/failure totals).
func (s *CoordinatorServer) handleStats(w http.ResponseWriter, r *http.Request) {
	b := s.coord.Backend()
	writeJSON(w, http.StatusOK, map[string]any{
		"mode":           "coordinator",
		"backend":        b.Fingerprint(),
		"backend_caps":   b.Caps,
		"uptime_seconds": time.Since(s.start).Seconds(),
		"coordinator":    s.coord.Stats(),
	})
}

func (s *CoordinatorServer) handleHealthz(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, map[string]string{"status": "ok", "mode": "coordinator"})
}
