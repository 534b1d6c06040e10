package serve

import (
	"encoding/json"
	"fmt"
	"net/http"
	"strings"
	"testing"
)

// postBatch posts a raw /v1/batch body and decodes the batchResponse
// (when the HTTP status is 200).
func postBatch(t *testing.T, url, body string) (*http.Response, batchResponse) {
	t.Helper()
	resp, err := http.Post(url+"/v1/batch", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var br batchResponse
	if resp.StatusCode == http.StatusOK {
		if err := json.NewDecoder(resp.Body).Decode(&br); err != nil {
			t.Fatalf("bad batch response JSON: %v", err)
		}
	}
	return resp, br
}

// TestHTTPBatchGolden is the golden suite for POST /v1/batch: a mixed
// batch where successes, a 409 duplicate, a 404 unknown-job, a 422
// oversized demand, and a per-op 400 unknown kind all ride in one
// request, each answered positionally with the exact status and code
// the single-op endpoints would have used — without aborting the
// valid ops around them.
func TestHTTPBatchGolden(t *testing.T) {
	_, ts := newTestServer(t)

	resp, br := postBatch(t, ts.URL, `{"ops":[
		{"op":"arrive","id":1,"size":0.6,"time":0},
		{"op":"arrive","id":2,"size":0.6,"time":0},
		{"op":"arrive","id":1,"size":0.2,"time":1},
		{"op":"depart","id":42,"time":1},
		{"op":"arrive","id":3,"size":1.5,"time":1},
		{"op":"resize","id":3},
		{"op":"arrive","id":4,"size":0.3,"time":2},
		{"op":"depart","id":2,"time":3}
	]}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("batch = %d, want 200", resp.StatusCode)
	}
	if len(br.Results) != 8 {
		t.Fatalf("got %d results, want 8", len(br.Results))
	}

	type golden struct {
		status int
		code   string
		server int
		opened bool
		closed bool
	}
	want := []golden{
		{status: 200, server: 0, opened: true},  // arrive 1 opens server 0
		{status: 200, server: 1, opened: true},  // arrive 2 opens server 1
		{status: 409, code: "duplicate_job"},    // arrive 1 again
		{status: 404, code: "unknown_job"},      // depart 42
		{status: 422, code: "bad_demand"},       // size 1.5
		{status: 400, code: "bad_request"},      // op "resize"
		{status: 200, server: 0, opened: false}, // arrive 4 first-fits onto 0
		{status: 200, server: 1, closed: true},  // depart 2 empties server 1
	}
	for i, w := range want {
		g := br.Results[i]
		if g.Status != w.status || g.Code != w.code {
			t.Errorf("result %d = %d %q, want %d %q (error: %s)", i, g.Status, g.Code, w.status, w.code, g.Error)
		}
		if w.status == 200 && (g.Server != w.server || g.Opened != w.opened || g.Closed != w.closed) {
			t.Errorf("result %d placement = %+v, want server %d opened %v closed %v", i, g, w.server, w.opened, w.closed)
		}
		if w.status != 200 && g.Error == "" {
			t.Errorf("result %d: failed op carries no diagnostic", i)
		}
	}
}

// TestHTTPBatchOrderWithinJob: an arrive and its depart in the same
// batch keep their order (same shard ⇒ sequential application).
func TestHTTPBatchOrderWithinJob(t *testing.T) {
	_, ts := newTestServer(t)
	resp, br := postBatch(t, ts.URL, `{"ops":[
		{"op":"arrive","id":10,"size":0.4,"time":0},
		{"op":"depart","id":10,"time":1}
	]}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("batch = %d", resp.StatusCode)
	}
	if br.Results[0].Status != 200 || br.Results[1].Status != 200 {
		t.Fatalf("same-job pair = %+v", br.Results)
	}
	if !br.Results[0].Opened || !br.Results[1].Closed {
		t.Fatalf("open/close flags = %+v", br.Results)
	}
}

// TestHTTPBatchRejectsDegenerate: empty and oversized batches are
// request-level 400s, not empty 200s.
func TestHTTPBatchRejectsDegenerate(t *testing.T) {
	_, ts := newTestServer(t)

	resp, _ := postBatch(t, ts.URL, `{"ops":[]}`)
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("empty batch = %d, want 400", resp.StatusCode)
	}

	var sb strings.Builder
	sb.WriteString(`{"ops":[`)
	for i := 0; i <= maxHTTPBatchOps; i++ {
		if i > 0 {
			sb.WriteByte(',')
		}
		fmt.Fprintf(&sb, `{"op":"depart","id":%d}`, i+1)
	}
	sb.WriteString(`]}`)
	resp, _ = postBatch(t, ts.URL, sb.String())
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("oversized batch = %d, want 400", resp.StatusCode)
	}
}

// TestHTTPBatchMatchesStats: batch traffic lands in the same counters
// as single-op traffic, plus the batch-shape counters.
func TestHTTPBatchMatchesStats(t *testing.T) {
	d, ts := newTestServer(t)
	resp, _ := postBatch(t, ts.URL, `{"ops":[
		{"op":"arrive","id":1,"size":0.1,"time":0},
		{"op":"arrive","id":2,"size":0.1,"time":0},
		{"op":"depart","id":1,"time":1}
	]}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("batch = %d", resp.StatusCode)
	}
	st := d.Stats()
	if st.Arrivals != 2 || st.Departures != 1 || st.Batches != 1 || st.BatchOps != 3 {
		t.Fatalf("stats after batch: %+v", st)
	}
}
