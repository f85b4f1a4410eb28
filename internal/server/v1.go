package server

import (
	"net/http"

	"repro/internal/query"
)

// handleQueryV1 is the batched typed query endpoint: one POST carrying any
// mix of key / prefix / group-by subqueries, each with its own aggregation
// list, planned by query.Plan and run by the server's executor — the local
// parallel engine, or the scatter-gather coordinator, whose answers carry
// the additional partial_result envelope when shards were unreachable —
// with per-subquery error isolation.
func (s *Server) handleQueryV1(w http.ResponseWriter, r *http.Request) {
	var req query.Request
	if !s.decodeRequest(w, r, strictJSON(&req)) {
		return
	}
	resp, qerr := s.exec.Execute(r.Context(), &req)
	if qerr != nil {
		writeQueryError(w, qerr)
		return
	}
	writeJSON(w, http.StatusOK, resp)
}
