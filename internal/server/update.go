package server

import (
	"errors"
	"fmt"
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
// The whole batch validates before anything is applied. validate refuses
// what the wire form alone decides (an empty or oversized batch, past
// Config.MaxUpdateOps; an unknown op; a missing or negative id; a remove
// with a vector), and Sharded.Update the rest, by the library's rules
// (core.PlanUpdates: an id already or not live, an id past MaxProbeID, a
// dimension mismatch, a non-finite coordinate). Either returns 400 and
// leaves the probe set and the epoch exactly as they were. On success the
// response reports the new epoch, the live probe count, and the per-op ids
// (assigned ids for adds without one).
//
// Consistency model: every applied batch advances the epoch by one, even
// one whose net effect leaves every shard as it was.
// Queries are pinned to the epoch snapshot taken at admission — responses
// never mix pre- and post-update vectors, and requests coalesce only with
// others admitted at the same epoch.

// updateRequest is the body of POST /v1/update as encoding/json decodes it,
// for the bodies outside the codec's fast grammar (codec.go).
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

// updateResponse is the body of a successful update, written by
// appendUpdateResponse exactly as json.Marshal would.
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
	// Anything after the object is refused, as for the retrieval bodies.
	u := &cb.upd
	if err := u.decode(cb.body.Bytes()); err != nil {
		httpError(w, http.StatusBadRequest, "decoding request: %v", err)
		return
	}
	ups, err := u.validate(s.cfg.MaxUpdateOps)
	if err != nil {
		httpError(w, http.StatusBadRequest, "%v", err)
		return
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
	cb.out = appendUpdateResponse(cb.out[:0], updateResponse{Epoch: res.Epoch, LiveProbes: res.LiveN, IDs: res.IDs})
	w.Header().Set("Content-Type", "application/json")
	w.Write(cb.out)
}

// validate turns the decoded ops into the batch Sharded.Update takes, kept
// in u.ups: an empty or oversized batch (past maxOps, when positive), an
// unknown op, a negative or missing id and a remove with a vector are
// refused, the error the 400's message.
func (u *updateBatch) validate(maxOps int) ([]lemp.ProbeUpdate, error) {
	if len(u.ops) == 0 {
		return nil, errors.New("no updates in batch")
	}
	if maxOps > 0 && len(u.ops) > maxOps {
		return nil, fmt.Errorf("update batch holds %d ops, limit is %d", len(u.ops), maxOps)
	}
	ups := u.ups[:0]
	for i, op := range u.ops {
		var kind lemp.UpdateOp
		switch op.op {
		case "add":
			kind = lemp.OpAdd
		case "remove":
			kind = lemp.OpRemove
		case "update":
			kind = lemp.OpUpdate
		default:
			return nil, fmt.Errorf("update %d: unknown op %q (want add, remove or update)", i, op.op)
		}
		id := lemp.AutoID
		if op.hasID {
			if id = op.id; id < 0 {
				return nil, fmt.Errorf("update %d: invalid probe id %d", i, id)
			}
		} else if kind != lemp.OpAdd {
			return nil, fmt.Errorf("update %d: op %q needs an id", i, op.op)
		}
		if kind == lemp.OpRemove && op.vec != nil {
			return nil, fmt.Errorf("update %d: remove takes no vector", i)
		}
		ups = append(ups, lemp.ProbeUpdate{Op: kind, ID: id, Vec: op.vec})
	}
	u.ups = ups
	return ups, nil
}
