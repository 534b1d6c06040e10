package serve

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"

	"dbp/internal/item"
	"dbp/internal/packing"
)

// ArriveRequest is the POST /v1/arrive body. Time is optional: absent
// means "now" on the service clock; explicit times must be non-
// decreasing per shard (422 on regression).
type ArriveRequest struct {
	ID    item.ID   `json:"id"`
	Size  float64   `json:"size"`
	Sizes []float64 `json:"sizes,omitempty"`
	Time  *float64  `json:"time,omitempty"`
}

// DepartRequest is the POST /v1/depart body.
type DepartRequest struct {
	ID   item.ID  `json:"id"`
	Time *float64 `json:"time,omitempty"`
}

// BatchRequest is the POST /v1/batch body: an ordered list of ops
// applied via the dispatcher's batch path (grouped by shard, one
// envelope per shard), each answered individually in BatchResponse.
type BatchRequest struct {
	Ops []BatchOpRequest `json:"ops"`
}

// BatchOpRequest is one op in a BatchRequest. Op selects the kind
// ("arrive" or "depart"); the remaining fields mirror ArriveRequest /
// DepartRequest.
type BatchOpRequest struct {
	Op    string    `json:"op"`
	ID    item.ID   `json:"id"`
	Size  float64   `json:"size,omitempty"`
	Sizes []float64 `json:"sizes,omitempty"`
	Time  *float64  `json:"time,omitempty"`
}

// BatchOpResult is one op's outcome in a BatchResponse: the HTTP
// status and stable code the single-op endpoint would have answered
// with, plus the placement/departure fields on success.
type BatchOpResult struct {
	Status int    `json:"status"`
	Code   string `json:"code,omitempty"`
	Error  string `json:"error,omitempty"`

	ID     item.ID `json:"id"`
	Shard  int     `json:"shard"`
	Server int     `json:"server,omitempty"`
	Opened bool    `json:"opened,omitempty"`
	Closed bool    `json:"closed,omitempty"`
	Time   float64 `json:"time,omitempty"`
}

// BatchResponse answers POST /v1/batch: results[i] answers ops[i].
type BatchResponse struct {
	Results []BatchOpResult `json:"results"`
}

// MaxHTTPBatchOps caps the ops of one /v1/batch request; larger
// batches gain nothing (the wire transport exists for that regime)
// and would let one request monopolize the shards.
const MaxHTTPBatchOps = 4096

// ErrorResponse is the JSON body of every non-2xx API response.
type ErrorResponse struct {
	// Code is a stable machine-readable class; Error is the diagnostic.
	Code  string `json:"code"`
	Error string `json:"error"`
}

// maxBodyBytes bounds request bodies; arrive/depart payloads are tiny,
// so anything larger is malformed or hostile.
const maxBodyBytes = 1 << 20

// StatusOf maps a dispatcher error onto its HTTP status and stable
// machine-readable error code. Unknown errors are internal (500). It
// is exported so out-of-process callers of the Go API — the load
// driver in internal/load above all — classify rejections by the same
// codes the HTTP layer puts on the wire.
func StatusOf(err error) (int, string) {
	switch {
	case errors.Is(err, packing.ErrDuplicateJob):
		return http.StatusConflict, "duplicate_job" // 409
	case errors.Is(err, packing.ErrUnknownJob):
		return http.StatusNotFound, "unknown_job" // 404
	case errors.Is(err, packing.ErrBadDemand):
		return http.StatusUnprocessableEntity, "bad_demand" // 422
	case errors.Is(err, packing.ErrTimeRegression):
		return http.StatusUnprocessableEntity, "time_regression" // 422
	case errors.Is(err, packing.ErrPolicyMisplace):
		return http.StatusInternalServerError, "policy_misplace" // 500
	case errors.Is(err, ErrClosed):
		return http.StatusServiceUnavailable, "shutting_down" // 503
	case errors.Is(err, ErrDurability):
		return http.StatusServiceUnavailable, "durability_failed" // 503
	default:
		return http.StatusInternalServerError, "internal"
	}
}

// NewHandler mounts the allocation-service API onto a fresh mux:
//
//	POST /v1/arrive  — place a job; body ArriveRequest, reply Placement
//	POST /v1/depart  — report a departure; body DepartRequest, reply Departure
//	POST /v1/batch   — apply an ordered op batch; body BatchRequest,
//	                   reply BatchResponse with one per-op status each
//	GET  /v1/stats   — service-wide Stats
//	GET  /v1/snapshot?shard=N — shard N's full stream snapshot
//	                   (packing.Snapshot), served by the shard owner
//	GET  /v1/journal?shard=N  — shard N's applied-event journal
//	                   (ShardEvents: the records its WAL still holds;
//	                   [] without durability, 500 if the log is unreadable)
//	GET  /healthz    — liveness ("ok", or 503 once draining)
//
// Responses are JSON; failures carry an ErrorResponse with a stable
// code (409 duplicate_job, 404 unknown_job, 422 bad_demand /
// time_regression, 503 shutting_down, 400 bad_request, 413
// request_too_large).
func NewHandler(d *Dispatcher) http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/arrive", func(w http.ResponseWriter, r *http.Request) {
		var req ArriveRequest
		if !decode(w, r, &req) {
			return
		}
		p, err := d.Arrive(req.ID, req.Size, req.Sizes, req.Time)
		if err != nil {
			writeError(w, err)
			return
		}
		writeJSON(w, http.StatusOK, p)
	})
	mux.HandleFunc("POST /v1/depart", func(w http.ResponseWriter, r *http.Request) {
		var req DepartRequest
		if !decode(w, r, &req) {
			return
		}
		dep, err := d.Depart(req.ID, req.Time)
		if err != nil {
			writeError(w, err)
			return
		}
		writeJSON(w, http.StatusOK, dep)
	})
	mux.HandleFunc("POST /v1/batch", func(w http.ResponseWriter, r *http.Request) {
		var req BatchRequest
		if !decode(w, r, &req) {
			return
		}
		if len(req.Ops) == 0 {
			writeJSON(w, http.StatusBadRequest, ErrorResponse{Code: "bad_request", Error: "batch has no ops"})
			return
		}
		if len(req.Ops) > MaxHTTPBatchOps {
			writeJSON(w, http.StatusBadRequest, ErrorResponse{
				Code: "bad_request", Error: fmt.Sprintf("batch has %d ops, limit %d", len(req.Ops), MaxHTTPBatchOps)})
			return
		}
		// Ops with an unknown kind are answered per-op (400) without
		// aborting the batch; the valid ops still apply, in order.
		ops := make([]BatchOp, 0, len(req.Ops))
		opIdx := make([]int, 0, len(req.Ops)) // batch index -> request index
		resp := BatchResponse{Results: make([]BatchOpResult, len(req.Ops))}
		for i, o := range req.Ops {
			resp.Results[i].ID = o.ID
			resp.Results[i].Shard = d.ShardFor(o.ID)
			switch o.Op {
			case "arrive", "depart":
				// A departure's size fields are ignored by the dispatcher.
				op := BatchOp{Depart: o.Op == "depart", ID: o.ID, Size: o.Size, Sizes: o.Sizes}
				if o.Time != nil {
					op.HasTime, op.Time = true, *o.Time
				}
				ops = append(ops, op)
				opIdx = append(opIdx, i)
			default:
				resp.Results[i].Status = http.StatusBadRequest
				resp.Results[i].Code = "bad_request"
				resp.Results[i].Error = fmt.Sprintf("unknown op %q (want arrive or depart)", o.Op)
			}
		}
		results := make([]BatchResult, len(ops))
		d.ApplyBatch(ops, results)
		for bi, ri := range opIdx {
			out := &resp.Results[ri]
			res := results[bi]
			if res.Err != nil {
				out.Status, out.Code = StatusOf(res.Err)
				out.Error = res.Err.Error()
				continue
			}
			out.Status = http.StatusOK
			out.Server = res.Server
			out.Time = res.Time
			if ops[bi].Depart {
				out.Closed = res.Flag
			} else {
				out.Opened = res.Flag
			}
		}
		writeJSON(w, http.StatusOK, resp)
	})
	mux.HandleFunc("GET /v1/stats", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, d.Stats())
	})
	mux.HandleFunc("GET /v1/snapshot", func(w http.ResponseWriter, r *http.Request) {
		i, ok := shardParam(w, r, d)
		if !ok {
			return
		}
		writeJSON(w, http.StatusOK, d.Snapshot(i))
	})
	mux.HandleFunc("GET /v1/journal", func(w http.ResponseWriter, r *http.Request) {
		i, ok := shardParam(w, r, d)
		if !ok {
			return
		}
		evs, err := d.ShardEvents(i)
		if err != nil {
			writeError(w, err)
			return
		}
		if evs == nil {
			evs = []Event{} // an empty journal is [], not null
		}
		writeJSON(w, http.StatusOK, evs)
	})
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		if d.Draining() {
			writeJSON(w, http.StatusServiceUnavailable, ErrorResponse{Code: "shutting_down", Error: ErrClosed.Error()})
			return
		}
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		io.WriteString(w, "ok\n")
	})
	return mux
}

// shardParam parses and bounds-checks the required ?shard=N query
// parameter, writing the 400 itself on failure.
func shardParam(w http.ResponseWriter, r *http.Request, d *Dispatcher) (int, bool) {
	q := r.URL.Query().Get("shard")
	if q == "" {
		writeJSON(w, http.StatusBadRequest, ErrorResponse{Code: "bad_request", Error: "missing shard query parameter"})
		return 0, false
	}
	i, err := strconv.Atoi(q)
	if err != nil || i < 0 || i >= d.NumShards() {
		writeJSON(w, http.StatusBadRequest, ErrorResponse{
			Code: "bad_request", Error: fmt.Sprintf("shard %q out of range [0, %d)", q, d.NumShards())})
		return 0, false
	}
	return i, true
}

// decode parses a JSON request body strictly (unknown fields and
// trailing garbage are 400s, an oversized body is a 413) and writes
// the error response itself on failure.
func decode(w http.ResponseWriter, r *http.Request, into any) bool {
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxBodyBytes))
	dec.DisallowUnknownFields()
	if err := dec.Decode(into); err != nil {
		var mbe *http.MaxBytesError
		if errors.As(err, &mbe) {
			writeJSON(w, http.StatusRequestEntityTooLarge,
				ErrorResponse{Code: "request_too_large", Error: fmt.Sprintf("request body exceeds %d bytes", mbe.Limit)})
			return false
		}
		writeJSON(w, http.StatusBadRequest, ErrorResponse{Code: "bad_request", Error: "bad JSON body: " + err.Error()})
		return false
	}
	if dec.More() {
		writeJSON(w, http.StatusBadRequest, ErrorResponse{Code: "bad_request", Error: "trailing data after JSON body"})
		return false
	}
	return true
}

func writeError(w http.ResponseWriter, err error) {
	status, code := StatusOf(err)
	writeJSON(w, status, ErrorResponse{Code: code, Error: err.Error()})
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(v)
}
