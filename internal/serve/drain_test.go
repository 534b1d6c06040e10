package serve_test

import (
	"bytes"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"dbp/internal/item"
	"dbp/internal/serve"
)

// TestDrainUnderLoad races arrivals against Dispatcher.Close and
// proves the drain path's accounting: every attempted op gets exactly
// one outcome (accepted or rejected, never both, never lost), the
// accepted count agrees between client-side observation, the metrics
// core, and the per-shard journals — i.e. nothing is double-counted —
// and once Close has run, /v1/arrive answers 503 immediately instead
// of hanging. Run under -race via `make check`.
func TestDrainUnderLoad(t *testing.T) {
	d, err := serve.New(serve.Config{Shards: 4, DataDir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}

	const clients = 8
	const perClient = 400
	const closeAfter = 500 // accepted ops before Close fires, mid-barrage
	var accepted, rejectedClosed, rejectedOther atomic.Uint64
	var closeOnce sync.Once
	var final serve.Stats
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := 0; i < perClient; i++ {
				id := item.ID(c*perClient + i + 1)
				_, err := d.Arrive(id, 0.3, nil, nil)
				switch {
				case err == nil:
					accepted.Add(1)
				case errors.Is(err, serve.ErrClosed):
					rejectedClosed.Add(1)
				default:
					rejectedOther.Add(1)
				}
				// Once enough ops landed, one client triggers Close
				// concurrently with everyone else's remaining arrivals;
				// its remaining ops (and most of the others') then race
				// the flipped shards.
				if accepted.Load() >= closeAfter {
					closeOnce.Do(func() { final = d.Close() })
				}
			}
		}(c)
	}
	wg.Wait()
	closeOnce.Do(func() { final = d.Close() }) // all accepted before threshold

	total := accepted.Load() + rejectedClosed.Load() + rejectedOther.Load()
	if total != clients*perClient {
		t.Fatalf("outcomes %d != attempts %d (an op was lost or double-resolved)", total, clients*perClient)
	}
	if rejectedOther.Load() != 0 {
		t.Fatalf("%d unexpected non-drain rejections", rejectedOther.Load())
	}
	if rejectedClosed.Load() == 0 {
		t.Fatal("no arrival raced the drain; the close trigger is broken")
	}

	// No double counting: the client-observed accept count, the
	// metrics counter, and the journal row count must agree exactly.
	stats := d.Stats()
	if stats.Arrivals != accepted.Load() {
		t.Errorf("metrics arrivals %d != client-accepted %d", stats.Arrivals, accepted.Load())
	}
	if stats.Rejected["shutting_down"] != rejectedClosed.Load() {
		t.Errorf("metrics shutting_down %d != client-rejected %d", stats.Rejected["shutting_down"], rejectedClosed.Load())
	}
	var journaled uint64
	for i := 0; i < d.NumShards(); i++ {
		for _, ev := range journal(t, d, i) {
			if ev.Kind == "arrive" {
				journaled++
			}
		}
	}
	if journaled != accepted.Load() {
		t.Errorf("journaled arrivals %d != client-accepted %d", journaled, accepted.Load())
	}
	// Close flips every shard before computing its final snapshot, and
	// accepted ops bump the counter while still holding their shard —
	// so the Close-time count already equals the all-time count; any
	// difference means an op was counted outside its critical section.
	if final.Arrivals != stats.Arrivals {
		t.Errorf("Close-time arrivals %d != final %d", final.Arrivals, stats.Arrivals)
	}

	// After shutdown the HTTP surface answers — promptly — with 503,
	// not a hung connection.
	h := serve.NewHandler(d)
	body, _ := json.Marshal(serve.ArriveRequest{ID: 999999, Size: 0.5})
	req := httptest.NewRequest("POST", "/v1/arrive", bytes.NewReader(body))
	rec := httptest.NewRecorder()
	done := make(chan struct{})
	go func() {
		h.ServeHTTP(rec, req)
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("/v1/arrive hung after shutdown")
	}
	if rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("arrive after shutdown = %d, want 503", rec.Code)
	}
	var er serve.ErrorResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &er); err != nil || er.Code != "shutting_down" {
		t.Fatalf("arrive after shutdown body = %q (err %v)", rec.Body.String(), err)
	}
}
