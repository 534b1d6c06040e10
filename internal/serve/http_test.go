package serve

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
)

// newTestServer builds a single-shard service (so server indices are
// deterministic) with a frozen service clock; requests carry explicit
// times, making every response golden-comparable.
func newTestServer(t *testing.T) (*Dispatcher, *httptest.Server) {
	t.Helper()
	d, err := New(Config{
		Algorithm: "firstfit",
		Shards:    1,
		Clock:     func() float64 { return 0 },
	})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(NewHandler(d))
	t.Cleanup(ts.Close)
	return d, ts
}

func post(t *testing.T, ts *httptest.Server, path, body string) (*http.Response, map[string]any) {
	t.Helper()
	resp, err := http.Post(ts.URL+path, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	return resp, decodeBody(t, resp)
}

func get(t *testing.T, ts *httptest.Server, path string) (*http.Response, map[string]any) {
	t.Helper()
	resp, err := http.Get(ts.URL + path)
	if err != nil {
		t.Fatal(err)
	}
	return resp, decodeBody(t, resp)
}

func decodeBody(t *testing.T, resp *http.Response) map[string]any {
	t.Helper()
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "application/json") {
		return nil // healthz is text
	}
	var m map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&m); err != nil {
		t.Fatalf("bad JSON response: %v", err)
	}
	return m
}

// want asserts a golden subset of a decoded JSON object (numbers are
// float64 after decoding).
func want(t *testing.T, got map[string]any, golden map[string]any) {
	t.Helper()
	for k, v := range golden {
		if got[k] != v {
			t.Errorf("field %q = %v (%T), want %v", k, got[k], got[k], v)
		}
	}
}

func TestHTTPGolden(t *testing.T) {
	d, ts := newTestServer(t)

	// Liveness first.
	resp, _ := get(t, ts, "/healthz")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz = %d", resp.StatusCode)
	}

	// Two arrivals that cannot share a server: indices 0 and 1.
	resp, body := post(t, ts, "/v1/arrive", `{"id":1,"size":0.6,"time":0}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("arrive 1 = %d (%v)", resp.StatusCode, body)
	}
	want(t, body, map[string]any{"id": 1.0, "shard": 0.0, "server": 0.0, "opened": true, "time": 0.0})

	resp, body = post(t, ts, "/v1/arrive", `{"id":2,"size":0.6,"time":1}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("arrive 2 = %d", resp.StatusCode)
	}
	want(t, body, map[string]any{"id": 2.0, "server": 1.0, "opened": true, "time": 1.0})

	// A third small job first-fits onto server 0, opening nothing.
	resp, body = post(t, ts, "/v1/arrive", `{"id":3,"size":0.3,"time":1}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("arrive 3 = %d", resp.StatusCode)
	}
	want(t, body, map[string]any{"server": 0.0, "opened": false})

	// Each failure class maps to its status and stable code. The
	// oversized body is valid JSON padded past the 1 MiB request cap:
	// it must be refused as 413 request_too_large, not a generic 400
	// (the decoder distinguishes *http.MaxBytesError from bad syntax).
	oversized := `{"id":9,"size":0.2,"time":2,"pad":"` + strings.Repeat("x", 1<<20) + `"}`
	for _, tc := range []struct {
		name, path, body string
		status           int
		code             string
	}{
		{"duplicate arrive", "/v1/arrive", `{"id":1,"size":0.2,"time":2}`, http.StatusConflict, "duplicate_job"},
		{"unknown depart", "/v1/depart", `{"id":42,"time":2}`, http.StatusNotFound, "unknown_job"},
		{"oversized demand", "/v1/arrive", `{"id":9,"size":1.5,"time":2}`, http.StatusUnprocessableEntity, "bad_demand"},
		{"time regression", "/v1/arrive", `{"id":9,"size":0.2,"time":0.5}`, http.StatusUnprocessableEntity, "time_regression"},
		{"malformed JSON", "/v1/arrive", `{"id":`, http.StatusBadRequest, "bad_request"},
		{"unknown field", "/v1/arrive", `{"id":9,"sz":0.5}`, http.StatusBadRequest, "bad_request"},
		{"oversized body", "/v1/arrive", oversized, http.StatusRequestEntityTooLarge, "request_too_large"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			resp, body := post(t, ts, tc.path, tc.body)
			if resp.StatusCode != tc.status {
				t.Fatalf("status = %d, want %d (%v)", resp.StatusCode, tc.status, body)
			}
			want(t, body, map[string]any{"code": tc.code})
			if body["error"] == "" {
				t.Error("missing error diagnostic")
			}
		})
	}

	// Wrong method on an API route.
	resp, err := http.Get(ts.URL + "/v1/arrive")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("GET /v1/arrive = %d, want 405", resp.StatusCode)
	}

	// Departures: job 1 leaves at t=3 (server 0 stays up for job 3),
	// then 3 and 2 leave, closing both servers.
	resp, body = post(t, ts, "/v1/depart", `{"id":1,"time":3}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("depart 1 = %d", resp.StatusCode)
	}
	want(t, body, map[string]any{"server": 0.0, "closed": false, "time": 3.0})

	resp, body = post(t, ts, "/v1/depart", `{"id":3,"time":3}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatal("depart 3 failed")
	}
	want(t, body, map[string]any{"server": 0.0, "closed": true})

	resp, body = post(t, ts, "/v1/depart", `{"id":2,"time":4}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatal("depart 2 failed")
	}
	want(t, body, map[string]any{"server": 1.0, "closed": true})

	// Stats reflect the traffic: 3 arrivals, 3 departures, usage time
	// = server 0 open [0,3) plus server 1 open [1,4) = 6.
	resp, body = get(t, ts, "/v1/stats")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("stats = %d", resp.StatusCode)
	}
	want(t, body, map[string]any{
		"arrivals":     3.0,
		"departures":   3.0,
		"open_servers": 0.0,
		"servers_used": 2.0,
		"peak_servers": 2.0,
		"usage_time":   6.0,
		"shards":       1.0,
		"algorithm":    "firstfit",
	})
	rejected, ok := body["rejected"].(map[string]any)
	if !ok {
		t.Fatalf("rejected = %v", body["rejected"])
	}
	for _, code := range []string{"duplicate_job", "unknown_job", "bad_demand", "time_regression"} {
		if rejected[code] != 1.0 {
			t.Errorf("rejected[%s] = %v, want 1", code, rejected[code])
		}
	}

	// Graceful drain: health flips to 503, mutating requests are
	// refused with shutting_down, stats stay served, and the final
	// totals match the pre-drain state.
	final := d.Close()
	if final.UsageTime != 6 || final.PeakServers != 2 || final.OpenServers != 0 {
		t.Fatalf("final totals = %+v", final)
	}

	resp, _ = get(t, ts, "/healthz")
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("healthz after drain = %d, want 503", resp.StatusCode)
	}
	resp, body = post(t, ts, "/v1/arrive", `{"id":7,"size":0.1,"time":9}`)
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("arrive after drain = %d, want 503", resp.StatusCode)
	}
	want(t, body, map[string]any{"code": "shutting_down"})

	resp, body = get(t, ts, "/v1/stats")
	if resp.StatusCode != http.StatusOK {
		t.Errorf("stats after drain = %d", resp.StatusCode)
	}
	want(t, body, map[string]any{"usage_time": 6.0, "arrivals": 3.0})
}

// TestHTTPServerClock exercises the "time omitted" path: the service
// stamps events with its own clock and the stamped time is returned to
// the caller, non-decreasing per shard.
func TestHTTPServerClock(t *testing.T) {
	now := 10.0
	d, err := New(Config{Shards: 1, Clock: func() float64 { return now }})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(NewHandler(d))
	defer ts.Close()

	_, body := post(t, ts, "/v1/arrive", `{"id":1,"size":0.5}`)
	want(t, body, map[string]any{"time": 10.0, "server": 0.0})

	// The clock source regresses (wall-clock step); the shard guard
	// clamps the event forward instead of failing.
	now = 5
	resp, body := post(t, ts, "/v1/depart", `{"id":1}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("depart with regressed clock = %d (%v)", resp.StatusCode, body)
	}
	want(t, body, map[string]any{"time": 10.0, "closed": true})
}
