package server

import (
	"errors"
	"math"
	"net/http"
	"time"

	"repro/internal/cascade"
	"repro/internal/maxent"
	"repro/internal/query"
	"repro/internal/shard"
	"repro/internal/window"
)

// windowsRequest is the body of POST /v1/windows: an alert scan that slides
// a width-pane window across the retained pane ring of one key (or one
// prefix rollup) and reports every position whose φ-quantile exceeds t.
// Exactly one of Key and Prefix must be set; Prefix is a pointer so the
// empty prefix (scan everything) stays expressible.
type windowsRequest struct {
	Key    string   `json:"key,omitempty"`
	Prefix *string  `json:"prefix,omitempty"`
	Width  int      `json:"width"`
	T      *float64 `json:"t"`
	Phi    *float64 `json:"phi,omitempty"`
}

func (wr *windowsRequest) validate(retention int) *query.Error {
	hasKey := wr.Key != ""
	hasPrefix := wr.Prefix != nil
	switch {
	case hasKey && hasPrefix:
		return query.Errorf(query.CodeInvalid, "key and prefix are mutually exclusive")
	case !hasKey && !hasPrefix:
		return query.Errorf(query.CodeInvalid, "need key or prefix")
	}
	if wr.Width < 1 || wr.Width > retention {
		return query.Errorf(query.CodeInvalid, "width must be in [1, %d] panes", retention)
	}
	// Same expansion bound as /v1/query window selections: a scan is one
	// cascade resolution per position, so cap the position count.
	if positions := retention - wr.Width + 1; positions > query.MaxWindows {
		return query.Errorf(query.CodeTooLarge,
			"scan expands to %d window positions (> %d); use a wider window, or a /v1/query window selection with a range and step",
			positions, query.MaxWindows)
	}
	if wr.T == nil || math.IsNaN(*wr.T) || math.IsInf(*wr.T, 0) {
		return query.Errorf(query.CodeInvalid, "need a finite threshold t")
	}
	if wr.Phi != nil && (math.IsNaN(*wr.Phi) || *wr.Phi < 0 || *wr.Phi > 1) {
		return query.Errorf(query.CodeInvalid, "phi %v outside [0,1]", *wr.Phi)
	}
	return nil
}

// hotWindow is one breaching window position of a /v1/windows scan.
type hotWindow struct {
	// Index is the window's starting pane position within the scan (0 =
	// oldest retained pane).
	Index int `json:"index"`
	// StartUnix/EndUnix bound the window, [StartUnix, EndUnix), in unix
	// seconds.
	StartUnix float64 `json:"start_unix"`
	EndUnix   float64 `json:"end_unix"`
}

// windowsResponse is the result of one alert scan.
type windowsResponse struct {
	PaneWidthSeconds float64     `json:"pane_width_seconds"`
	Panes            int         `json:"panes"`
	Width            int         `json:"width"`
	Windows          int         `json:"windows"`
	Keys             int         `json:"keys"`
	T                float64     `json:"t"`
	Phi              float64     `json:"phi"`
	Hot              []hotWindow `json:"hot"`
	MergeNS          int64       `json:"merge_ns"`
	EstNS            int64       `json:"est_ns"`
	Cascade          struct {
		Queries  int            `json:"queries"`
		Resolved map[string]int `json:"resolved"`
	} `json:"cascade"`
}

// handleWindowsV1 is the sliding-window alert-scan adapter (§7.2.2): it
// fetches the retained pane series from the shard store and drives
// window.ScanMoments over it — turnstile Sub/Merge per slide, thresholds
// resolved through the moment-bound cascade — in one request.
func (s *Server) handleWindowsV1(w http.ResponseWriter, r *http.Request) {
	_, retention, enabled := s.store.WindowConfig()
	if !enabled {
		writeQueryError(w, query.Errorf(query.CodeInvalid,
			"store has no time panes; start the server with a pane width to enable window scans"))
		return
	}
	if !s.store.Backend().HasMoments() {
		// The scan's cascade reads moment bounds only the moments backend
		// carries; sliding-window thresholds on other backends go through
		// /v1/query window selections instead.
		writeQueryError(w, query.Errorf(query.CodeBackendUnsupported,
			"/v1/windows requires the moments backend (serving %q); use a /v1/query window selection with a threshold aggregation",
			s.store.Backend().Name))
		return
	}
	var req windowsRequest
	if !s.decodeRequest(w, r, strictJSON(&req)) {
		return
	}
	if qerr := req.validate(retention); qerr != nil {
		writeQueryError(w, qerr)
		return
	}

	var ps *shard.PaneSeries
	var err error
	if req.Key != "" {
		ps, err = s.store.Panes(req.Key)
	} else {
		ps, err = s.store.PanesPrefix(r.Context(), *req.Prefix)
	}
	if err != nil {
		switch {
		case errors.Is(err, shard.ErrNoKey) && req.Key != "":
			writeQueryError(w, query.Errorf(query.CodeNotFound, "no such key: %q", req.Key))
		case errors.Is(err, shard.ErrNoKey):
			writeQueryError(w, query.Errorf(query.CodeNotFound, "no keys with prefix %q", *req.Prefix))
		case r.Context().Err() != nil:
			writeQueryError(w, query.Errorf(query.CodeDeadline, "request deadline exceeded"))
		default:
			writeQueryError(w, query.Errorf(query.CodeInternal, "%v", err))
		}
		return
	}

	phi := query.DefaultThresholdPhi
	if req.Phi != nil {
		phi = *req.Phi
	}
	raws, _ := ps.MomentsPanes() // a moments store's panes are moments
	cfg := cascade.Full()
	res, err := window.ScanMomentsContext(r.Context(), raws, req.Width, *req.T, phi, cfg, maxent.Options{})
	if err != nil {
		if r.Context().Err() != nil {
			writeQueryError(w, query.Errorf(query.CodeDeadline, "request deadline exceeded"))
			return
		}
		writeQueryError(w, query.Errorf(query.CodeInternal, "scanning windows: %v", err))
		return
	}

	out := windowsResponse{
		PaneWidthSeconds: ps.Width.Seconds(),
		Panes:            len(ps.Panes),
		Width:            req.Width,
		Windows:          len(ps.Panes) - req.Width + 1,
		Keys:             ps.Keys,
		T:                *req.T,
		Phi:              phi,
		Hot:              make([]hotWindow, 0, len(res.Hot)),
		MergeNS:          res.MergeTime.Nanoseconds(),
		EstNS:            res.EstTime.Nanoseconds(),
	}
	for _, idx := range res.Hot {
		out.Hot = append(out.Hot, hotWindow{
			Index:     idx,
			StartUnix: unixSeconds(ps.PaneStart(idx)),
			EndUnix:   unixSeconds(ps.PaneStart(idx + req.Width)),
		})
	}
	out.Cascade.Queries = res.Stats.Queries
	out.Cascade.Resolved = map[string]int{}
	for stage := cascade.Stage(0); stage < cascade.NumStages; stage++ {
		out.Cascade.Resolved[stage.String()] = res.Stats.Resolved[stage]
	}
	writeJSON(w, http.StatusOK, out)
}

func unixSeconds(t time.Time) float64 {
	return float64(t.UnixNano()) / float64(time.Second)
}
