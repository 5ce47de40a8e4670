package server

import (
	"encoding/json"
	"net/http"

	"lemp"
)

// The /v1/update endpoint applies a batch of probe mutations atomically:
//
//	POST /v1/update
//	{"updates": [
//	    {"op": "add", "vector": [...]},            // assigned id returned
//	    {"op": "add", "id": 7, "vector": [...]},   // explicit id
//	    {"op": "remove", "id": 3},
//	    {"op": "update", "id": 2, "vector": [...]}
//	]}
//
// The whole batch validates before anything is applied: an unknown or
// duplicate id, a dimension mismatch, a non-finite coordinate, an unknown
// op, an empty batch or an oversized one (Config.MaxUpdateOps) returns
// 400 and leaves the probe set and the epoch exactly as they were. On
// success the response reports the new epoch, the live probe count, and the
// per-op ids (assigned ids for adds without one).
//
// Consistency model: every applied batch advances the epoch by one.
// Queries are pinned to the epoch snapshot taken at admission — responses
// never mix pre- and post-update vectors, and requests coalesce only with
// others admitted at the same epoch.

// updateRequest is the body of POST /v1/update.
type updateRequest struct {
	Updates []updateOp `json:"updates"`
}

// updateOp is one mutation. ID is a pointer so an absent id (auto-assign
// on add) is distinguishable from id 0.
type updateOp struct {
	Op     string    `json:"op"`
	ID     *int32    `json:"id"`
	Vector []float64 `json:"vector"`
}

// updateResponse is the body of a successful update.
type updateResponse struct {
	Epoch      uint64  `json:"epoch"`
	LiveProbes int     `json:"live_probes"`
	IDs        []int32 `json:"ids"`
}

func (s *Server) handleUpdate(w http.ResponseWriter, r *http.Request) {
	cb := getCodecBuf()
	defer putCodecBuf(cb)
	if !s.readBody(w, r, cb) {
		return
	}
	// json.Unmarshal refuses anything after the object, as the retrieval
	// decoder does.
	var req updateRequest
	if err := json.Unmarshal(cb.body.Bytes(), &req); err != nil {
		httpError(w, http.StatusBadRequest, "decoding request: %v", err)
		return
	}
	if len(req.Updates) == 0 {
		httpError(w, http.StatusBadRequest, "no updates in batch")
		return
	}
	if s.cfg.MaxUpdateOps > 0 && len(req.Updates) > s.cfg.MaxUpdateOps {
		httpError(w, http.StatusBadRequest, "update batch holds %d ops, limit is %d", len(req.Updates), s.cfg.MaxUpdateOps)
		return
	}
	ups := make([]lemp.ProbeUpdate, len(req.Updates))
	for i, op := range req.Updates {
		var kind lemp.UpdateOp
		switch op.Op {
		case "add":
			kind = lemp.OpAdd
		case "remove":
			kind = lemp.OpRemove
		case "update":
			kind = lemp.OpUpdate
		default:
			httpError(w, http.StatusBadRequest, "update %d: unknown op %q (want add, remove or update)", i, op.Op)
			return
		}
		id := lemp.AutoID
		if op.ID != nil {
			id = *op.ID
			if id < 0 {
				httpError(w, http.StatusBadRequest, "update %d: invalid probe id %d", i, id)
				return
			}
		} else if kind != lemp.OpAdd {
			httpError(w, http.StatusBadRequest, "update %d: op %q needs an id", i, op.Op)
			return
		}
		if kind == lemp.OpRemove && op.Vector != nil {
			httpError(w, http.StatusBadRequest, "update %d: remove takes no vector", i)
			return
		}
		ups[i] = lemp.ProbeUpdate{Op: kind, ID: id, Vec: op.Vector}
	}
	if info := requestInfo(r.Context()); info != nil {
		info.rows = len(ups)
	}
	res, err := s.sharded.Update(ups, s.cfg.CompactFraction)
	if err != nil {
		// Every Update failure is a rejected batch (bad id, bad vector):
		// client data, not server state.
		httpError(w, http.StatusBadRequest, "%v", err)
		return
	}
	s.updates.Add(1)
	writeJSON(w, http.StatusOK, updateResponse{Epoch: res.Epoch, LiveProbes: res.LiveN, IDs: res.IDs})
}
