package server

import (
	"net/http"

	"repro/internal/encoding"
	"repro/internal/query"
)

// handlePartialsV1 is the internal shard side of scatter-gather serving:
// it resolves each selection against the local store and answers with the
// merged partial aggregates in the serving backend's codec, framed by the
// binary partials layout — per selection an O(k) vector, not raw data.
// Selection failures are isolated inside the frame (a not_found here may be
// a hit on another shard); only a malformed request fails the HTTP call.
func (s *Server) handlePartialsV1(w http.ResponseWriter, r *http.Request) {
	var req query.PartialsRequest
	if !s.decodeRequest(w, r, strictJSON(&req)) {
		return
	}
	if len(req.Selections) == 0 {
		writeError(w, http.StatusBadRequest, query.CodeInvalid, "request needs at least one selection")
		return
	}
	if len(req.Selections) > query.MaxSubqueries {
		writeError(w, http.StatusRequestEntityTooLarge, query.CodeTooLarge,
			"too many selections (%d > %d)", len(req.Selections), query.MaxSubqueries)
		return
	}

	sets := s.engine.ResolvePartials(r.Context(), req.Selections)
	wire := make([]encoding.PartialSet, len(sets))
	for i, set := range sets {
		if set.Err != nil {
			wire[i] = encoding.PartialSet{Code: set.Err.Code, Message: set.Err.Message}
		} else {
			wire[i].Groups = set.Groups
		}
	}
	data := encoding.MarshalPartials(s.engine.Backend().Fingerprint(), wire)
	w.Header().Set("Content-Type", "application/octet-stream")
	_, _ = w.Write(data)
}
