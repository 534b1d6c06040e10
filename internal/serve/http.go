package serve

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"

	"dbp/internal/item"
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

// batchRequest is the POST /v1/batch body: an ordered list of ops
// applied via the dispatcher's batch path (grouped by shard, one
// envelope per shard), each answered individually in batchResponse.
type batchRequest struct {
	Ops []batchOpRequest `json:"ops"`
}

// batchOpRequest is one op in a batchRequest. Op selects the kind
// ("arrive" or "depart"); the remaining fields mirror ArriveRequest /
// DepartRequest.
type batchOpRequest struct {
	Op    string    `json:"op"`
	ID    item.ID   `json:"id"`
	Size  float64   `json:"size,omitempty"`
	Sizes []float64 `json:"sizes,omitempty"`
	Time  *float64  `json:"time,omitempty"`
}

// batchOpResult is one op's outcome in a batchResponse: the HTTP
// status and stable code the single-op endpoint would have answered
// with, plus the placement/departure fields on success.
type batchOpResult struct {
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

// batchResponse answers POST /v1/batch: results[i] answers ops[i].
type batchResponse struct {
	Results []batchOpResult `json:"results"`
}

// maxHTTPBatchOps caps the ops of one /v1/batch request; larger
// batches gain nothing (the wire transport exists for that regime)
// and would let one request monopolize the shards.
const maxHTTPBatchOps = 4096

// ErrorResponse is the JSON body of every non-2xx API response.
type ErrorResponse struct {
	// Code is a stable machine-readable class; Error is the diagnostic.
	Code  string `json:"code"`
	Error string `json:"error"`
}

// maxBodyBytes bounds request bodies; arrive/depart payloads are tiny,
// so anything larger is malformed or hostile.
const maxBodyBytes = 1 << 20

// NewHandler mounts the allocation-service API onto a fresh mux:
//
//	POST /v1/arrive  — place a job; body ArriveRequest, reply Placement
//	POST /v1/depart  — report a departure; body DepartRequest, reply Departure
//	POST /v1/batch   — apply an ordered op batch; body batchRequest,
//	                   reply batchResponse with one per-op status each
//	GET  /v1/stats   — service-wide Stats
//	GET  /v1/snapshot?shard=N — shard N's full stream snapshot
//	                   (packing.Snapshot), served by the shard owner
//	GET  /v1/journal?shard=N  — shard N's applied-event journal
//	                   (ShardEvents: the records its WAL still holds;
//	                   [] without durability, 500 if the log is unreadable)
//	GET  /healthz    — liveness ("ok", or 503 once draining)
//
// Responses are JSON; failures carry an ErrorResponse with a stable
// code: a dispatcher rejection answers with its Class (409
// duplicate_job, 404 unknown_job, 422 bad_demand / time_regression,
// 500 policy_misplace / internal, 503 shutting_down /
// durability_failed), a request the API cannot parse with 400
// bad_request or 413 request_too_large.
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
		var req batchRequest
		if !decode(w, r, &req) {
			return
		}
		if len(req.Ops) == 0 {
			writeJSON(w, http.StatusBadRequest, ErrorResponse{Code: "bad_request", Error: "batch has no ops"})
			return
		}
		if len(req.Ops) > maxHTTPBatchOps {
			writeJSON(w, http.StatusBadRequest, ErrorResponse{
				Code: "bad_request", Error: fmt.Sprintf("batch has %d ops, limit %d", len(req.Ops), maxHTTPBatchOps)})
			return
		}
		// Ops with an unknown kind are answered per-op (400) without
		// aborting the batch; the valid ops still apply, in order.
		ops := make([]BatchOp, 0, len(req.Ops))
		opIdx := make([]int, 0, len(req.Ops)) // batch index -> request index
		resp := batchResponse{Results: make([]batchOpResult, len(req.Ops))}
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
				c := ClassOf(res.Err)
				out.Status, out.Code = c.HTTPStatus(), c.Code()
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
			writeError(w, ErrClosed)
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

// writeError answers a dispatcher error with its class's status and code.
func writeError(w http.ResponseWriter, err error) {
	c := ClassOf(err)
	writeJSON(w, c.HTTPStatus(), ErrorResponse{Code: c.Code(), Error: err.Error()})
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(v)
}
