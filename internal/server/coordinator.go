package server

import (
	"context"
	"net/http"
	"time"

	"repro/internal/cluster"
	"repro/internal/query"
)

// routedSink is a coordinator's sink: the request's observations, with the
// client's ts forwarded bit-for-bit, delivered to their rendezvous owners
// on commit.
type routedSink struct {
	coord *cluster.Coordinator
	obs   []cluster.Observation
}

func (k *routedSink) add(key string, value float64, ts *float64) {
	k.obs = append(k.obs, cluster.Observation{Key: key, Value: &value, TS: ts})
}

// commit forwards each observation to its owning shard. Delivery is
// all-or-nothing per owning node; nodes whose batch could not be delivered
// are named in a partial_result envelope.
func (k *routedSink) commit(ctx context.Context) (int, *query.Error) {
	ingested, failed, err := k.coord.Ingest(ctx, k.obs)
	if len(failed) > 0 {
		return ingested, &query.Error{
			Code:    query.CodePartialResult,
			Message: "ingest not delivered to every owning node: " + err.Error(),
			Nodes:   failed,
		}
	}
	return ingested, nil
}

func (k *routedSink) discard() {
	clear(k.obs)
	k.obs = k.obs[:0]
}

// NewCoordinator wires the coordinator-mode Server: the public endpoints
// of a shard node (/ingest, /v1/query, /v1/stats, /healthz) on the same
// handlers, answered by routing to the cluster instead of a local store.
// Reads fan selections out to every relevant shard and merge the partial
// aggregates; writes forward each observation to its rendezvous owner.
func NewCoordinator(coord *cluster.Coordinator) *Server {
	s := newServer()
	s.exec = coord
	s.maxAbs = ingestDomain(coord.Backend())
	s.sinks.New = func() any { return &routedSink{coord: coord} }

	// mode and backend mirror a shard node's fields; the coordinator section
	// carries the scatter-gather counters (fan-outs, hedges, partial results,
	// per-node request/failure totals).
	s.mux.HandleFunc("GET /v1/stats", func(w http.ResponseWriter, r *http.Request) {
		b := coord.Backend()
		writeJSON(w, http.StatusOK, map[string]any{
			"mode":           "coordinator",
			"backend":        b.Fingerprint(),
			"uptime_seconds": time.Since(s.start).Seconds(),
			"coordinator":    coord.Stats(),
		})
	})
	s.mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, map[string]string{"status": "ok", "mode": "coordinator"})
	})
	return s
}
