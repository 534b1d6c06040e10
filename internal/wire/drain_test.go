package wire

import (
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"dbp/internal/item"
	"dbp/internal/serve"
)

// journal reads shard i's journal as GET /v1/journal serves it, failing
// the test if the log cannot be read.
func journal(t *testing.T, d *serve.Dispatcher, i int) []serve.Event {
	t.Helper()
	rec := httptest.NewRecorder()
	serve.NewHandler(d).ServeHTTP(rec, httptest.NewRequest("GET", fmt.Sprintf("/v1/journal?shard=%d", i), nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("GET /v1/journal?shard=%d: %d %s", i, rec.Code, rec.Body)
	}
	var evs []serve.Event
	if err := json.Unmarshal(rec.Body.Bytes(), &evs); err != nil {
		t.Fatal(err)
	}
	return evs
}

// TestWireDrainUnderLoad is the wire-transport mirror of the serve
// package's TestDrainUnderLoad: concurrent batched arrivals race
// Server.Close, and the drain must (a) resolve every attempted op
// exactly once — accepted, refused by the service, or failed by the
// announced goaway — with no hang, (b) deliver the goaway to in-flight
// work rather than silently dropping the connection, and (c) keep the
// triple-entry books balanced: client-observed accepts == metrics
// arrivals == journal rows. Ops the server applied are always answered
// before the goaway (the handler finishes and flushes the batch it
// holds), so "accepted" is well defined even mid-drain. Run under
// -race via `make check`.
func TestWireDrainUnderLoad(t *testing.T) {
	d, err := serve.New(serve.Config{Shards: 4, DataDir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	_, s, addr := startWireServer(t, d)

	c, err := Dial(addr, Options{Conns: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	const clients = 8
	const perClient = 600
	const closeAfter = 500 // accepted ops before Close fires, mid-barrage
	var accepted, rejectedDrain, rejectedOther atomic.Uint64
	var sampleOther atomic.Pointer[error]
	var closeOnce sync.Once
	var wg sync.WaitGroup
	for g := 0; g < clients; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < perClient; i++ {
				id := item.ID(g*perClient + i + 1)
				_, err := c.Arrive(id, 0.01, nil, nil)
				switch {
				case err == nil:
					accepted.Add(1)
				case errors.Is(err, ErrGoAway),
					errors.Is(err, ErrClientClosed),
					errors.Is(err, errorOf(serve.ClassOf(serve.ErrClosed))):
					rejectedDrain.Add(1)
				default:
					rejectedOther.Add(1)
					sampleOther.CompareAndSwap(nil, &err)
				}
				// Once enough ops landed, one client starts the wire
				// drain concurrently with everyone else's remaining
				// arrivals; their queued and future ops race the goaway.
				if accepted.Load() >= closeAfter {
					closeOnce.Do(func() { s.Close() })
				}
			}
		}(g)
	}
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(60 * time.Second):
		t.Fatal("drain hung: some op never resolved")
	}
	closeOnce.Do(func() { s.Close() })

	total := accepted.Load() + rejectedDrain.Load() + rejectedOther.Load()
	if total != clients*perClient {
		t.Fatalf("outcomes %d != attempts %d (an op was lost or double-resolved)", total, clients*perClient)
	}
	if rejectedOther.Load() != 0 {
		t.Fatalf("%d rejections outside the drain vocabulary, e.g. %v", rejectedOther.Load(), *sampleOther.Load())
	}
	if rejectedDrain.Load() == 0 {
		t.Fatal("no op raced the drain; the close trigger is broken")
	}

	// Server.Close left the dispatcher open (the HTTP front end drains
	// separately); close it now and check the books.
	final := d.Close()
	if final.Arrivals != accepted.Load() {
		t.Errorf("metrics arrivals %d != client-accepted %d", final.Arrivals, accepted.Load())
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

	// The drained listener refuses new wire sessions promptly.
	if _, err := Dial(addr, Options{Conns: 1}); err == nil {
		t.Fatal("dial succeeded after Server.Close")
	}
}

// startWireServer starts a wire server over an existing dispatcher; the
// caller owns both lifetimes (this test exercises Close paths itself).
func startWireServer(t *testing.T, d *serve.Dispatcher) (*serve.Dispatcher, *Server, string) {
	t.Helper()
	s := NewServer(d)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	serveDone := make(chan error, 1)
	go func() { serveDone <- s.Serve(ln) }()
	t.Cleanup(func() {
		s.Close()
		if err := <-serveDone; err != nil {
			t.Errorf("Serve returned %v", err)
		}
	})
	return d, s, ln.Addr().String()
}
