package packing

import (
	"math"
	"math/rand"
	"testing"

	"dbp/internal/item"
)

func TestStreamBasicFlow(t *testing.T) {
	s := NewStream(NewFirstFit(), 0, 0)
	srv, opened, err := s.Arrive(1, 0.5, nil, 0)
	if err != nil || !opened || srv != 0 {
		t.Fatalf("arrive 1: srv=%d opened=%v err=%v", srv, opened, err)
	}
	srv, opened, err = s.Arrive(2, 0.5, nil, 1)
	if err != nil || opened || srv != 0 {
		t.Fatalf("arrive 2 must join server 0: srv=%d opened=%v err=%v", srv, opened, err)
	}
	if s.OpenServers() != 1 || s.PeakServers() != 1 {
		t.Fatalf("open=%d peak=%d", s.OpenServers(), s.PeakServers())
	}
	srv, closed, err := s.Depart(1, 3)
	if err != nil || closed || srv != 0 {
		t.Fatalf("depart 1: srv=%d closed=%v err=%v", srv, closed, err)
	}
	srv, closed, err = s.Depart(2, 5)
	if err != nil || !closed || srv != 0 {
		t.Fatalf("depart 2 must close server 0: %v", err)
	}
	if got := s.AccumulatedUsage(5); got != 5 {
		t.Fatalf("usage = %g, want 5", got)
	}
	if s.ServersUsed() != 1 {
		t.Fatalf("servers used = %d", s.ServersUsed())
	}
}

func TestStreamErrors(t *testing.T) {
	s := NewStream(NewFirstFit(), 0, 0)
	if _, _, err := s.Arrive(1, 0.5, nil, 10); err != nil {
		t.Fatal(err)
	}
	if _, _, err := s.Arrive(1, 0.5, nil, 11); err == nil {
		t.Fatal("duplicate running job must error")
	}
	if _, _, err := s.Arrive(2, 0.5, nil, 5); err == nil {
		t.Fatal("time going backwards must error")
	}
	if _, _, err := s.Depart(99, 12); err == nil {
		t.Fatal("departing unknown job must error")
	}
	if _, _, err := s.Arrive(3, 1.5, nil, 12); err == nil {
		t.Fatal("oversize job must error")
	}
	if _, _, err := s.Arrive(4, 0, nil, 12); err == nil {
		t.Fatal("zero-size job must error")
	}
	if _, _, err := s.Arrive(5, 0.5, []float64{0.5, 0.2}, 12); err == nil {
		t.Fatal("dimension mismatch must error")
	}
}

// TestBadCapacityRefused pins the capacities no server can have: against
// NaN or +Inf every admission comparison passes, so five 0.9-size jobs
// would share server 0, and a negative capacity would silently mean 1.
// NewStreamEngine and Run refuse each; 0 still means unit capacity.
func TestBadCapacityRefused(t *testing.T) {
	jobs := item.List{{ID: 1, Size: 0.9, Arrival: 0, Departure: 1}}
	for _, c := range []float64{math.NaN(), math.Inf(1), math.Inf(-1), -2} {
		for _, kind := range []EngineKind{EngineIndexed, EngineLinear} {
			if s, err := NewStreamEngine(NewFirstFit(), c, 1, 0, kind); err == nil {
				t.Errorf("NewStreamEngine(capacity %g, %s) = stream of capacity %g, want an error", c, kind, s.Ledger().Capacity())
			}
		}
		if _, err := Run(NewFirstFit(), jobs, &Options{Capacity: c}); err == nil {
			t.Errorf("Run(capacity %g) succeeded, want an error", c)
		}
	}
	s, err := NewStreamEngine(NewFirstFit(), 0, 1, 0, EngineIndexed)
	if err != nil || s.Ledger().Capacity() != 1 {
		t.Fatalf("NewStreamEngine(capacity 0): err %v, want a unit-capacity stream", err)
	}
	if _, err := Run(NewFirstFit(), jobs, &Options{}); err != nil {
		t.Fatalf("Run(capacity 0): %v", err)
	}
}

// TestBadKeepAliveRefused pins the keep-alives no fleet can run with: a
// NaN one closed an emptied server at once, as if it were 0, an infinite
// one billed usage +Inf, and a negative one panicked in the ledger.
// NewStreamEngine and Run refuse each with an error.
func TestBadKeepAliveRefused(t *testing.T) {
	jobs := item.List{{ID: 1, Size: 0.9, Arrival: 0, Departure: 1}}
	for _, k := range []float64{math.NaN(), math.Inf(1), math.Inf(-1), -1} {
		for _, kind := range []EngineKind{EngineIndexed, EngineLinear} {
			if _, err := NewStreamEngine(NewFirstFit(), 1, 1, k, kind); err == nil {
				t.Errorf("NewStreamEngine(keep-alive %g, %s) succeeded, want an error", k, kind)
			}
		}
		if res, err := Run(NewFirstFit(), jobs, &Options{KeepAlive: k}); err == nil {
			t.Errorf("Run(keep-alive %g) = usage %g, want an error", k, res.TotalUsage)
		}
	}
	if _, err := NewStreamEngine(NewFirstFit(), 1, 1, 0.5, EngineIndexed); err != nil {
		t.Fatalf("NewStreamEngine(keep-alive 0.5): %v", err)
	}
}

// Every error path of Arrive and Depart must return the ErrServer (-1)
// sentinel, never a value collidable with the legitimate server index 0.
func TestStreamErrorSentinel(t *testing.T) {
	s := NewStream(NewFirstFit(), 0, 0)
	if _, _, err := s.Arrive(1, 0.5, nil, 10); err != nil {
		t.Fatal(err)
	}
	arrives := []struct {
		name  string
		id    item.ID
		size  float64
		sizes []float64
		t     float64
	}{
		{"duplicate job", 1, 0.5, nil, 11},
		{"time backwards", 2, 0.5, nil, 5},
		{"oversize", 3, 1.5, nil, 12},
		{"zero size", 4, 0, nil, 12},
		{"NaN size", 5, math.NaN(), nil, 12},
		{"dim mismatch", 6, 0.5, []float64{0.5, 0.2}, 12},
	}
	for _, c := range arrives {
		srv, opened, err := s.Arrive(c.id, c.size, c.sizes, c.t)
		if err == nil {
			t.Fatalf("%s: expected error", c.name)
		}
		if srv != ErrServer || opened {
			t.Fatalf("%s: srv=%d opened=%v with error, want ErrServer and false", c.name, srv, opened)
		}
	}
	for _, tm := range []float64{12, 5} { // unknown job; then time backwards
		srv, closed, err := s.Depart(99, tm)
		if err == nil {
			t.Fatal("Depart: expected error")
		}
		if srv != ErrServer || closed {
			t.Fatalf("Depart: srv=%d closed=%v with error, want ErrServer and false", srv, closed)
		}
	}
}

// Regression: a vector job with one component over capacity used to pass
// the scalar size check and panic inside Bin.Place; it must now be
// rejected like an oversized scalar job.
func TestStreamVectorOversizeRejected(t *testing.T) {
	s := NewStream(NewFirstFit(), 0, 2)
	if _, _, err := s.Arrive(1, 0.5, []float64{0.5, 0.2}, 0); err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name  string
		sizes []float64
	}{
		{"component over capacity", []float64{0.5, 1.5}},
		{"negative component", []float64{0.5, -0.1}},
		{"NaN component", []float64{0.5, math.NaN()}},
	}
	for _, c := range cases {
		srv, opened, err := s.Arrive(2, 0.5, c.sizes, 1)
		if err == nil {
			t.Fatalf("%s: expected error, got server %d", c.name, srv)
		}
		if srv != ErrServer || opened {
			t.Fatalf("%s: srv=%d opened=%v with error", c.name, srv, opened)
		}
	}
	// The stream must remain usable after rejected arrivals.
	if _, _, err := s.Arrive(3, 0.4, []float64{0.4, 0.4}, 2); err != nil {
		t.Fatal(err)
	}
}

func TestStreamUsageAccrualWhileOpen(t *testing.T) {
	s := NewStream(NewFirstFit(), 0, 0)
	s.Arrive(1, 0.4, nil, 0)
	s.Arrive(2, 0.4, nil, 2) // same server
	s.Arrive(3, 0.4, nil, 2) // new server (0.4*3 > 1)
	if got := s.AccumulatedUsage(10); got != 10+8 {
		t.Fatalf("usage at 10 = %g, want 18", got)
	}
	if s.OpenServers() != 2 {
		t.Fatalf("open = %d", s.OpenServers())
	}
	if s.Now() != 2 {
		t.Fatalf("now = %g", s.Now())
	}
}

func TestStreamMatchesRunOnSameSequence(t *testing.T) {
	// Feeding Run's event order through Stream must give identical usage.
	l := handInstance()
	run := MustRun(NewFirstFit(), l, nil)

	s := NewStream(NewFirstFit(), 0, 0)
	// Events in time order: arrivals at 0:A; 1:B,C; departures 2:A, 3:B, 4:C.
	s.Arrive(1, 0.5, nil, 0)
	s.Arrive(2, 0.6, nil, 1)
	s.Arrive(3, 0.4, nil, 1)
	s.Depart(1, 2)
	s.Depart(2, 3)
	s.Depart(3, 4)
	if got := s.AccumulatedUsage(4); got != run.TotalUsage {
		t.Fatalf("stream usage %g != run usage %g", got, run.TotalUsage)
	}
	if s.PeakServers() != run.MaxConcurrentOpen {
		t.Fatal("peak mismatch")
	}
}

func TestStreamWithNextFitObserver(t *testing.T) {
	s := NewStream(NewNextFit(), 0, 0)
	s.Arrive(1, 0.5, nil, 0) // server 0, available
	s.Arrive(2, 0.7, nil, 1) // server 1, available; 0 now unavailable
	srv, _, _ := s.Arrive(3, 0.2, nil, 2)
	if srv != 1 {
		t.Fatalf("NF stream must use available server 1, got %d", srv)
	}
}

func TestStreamKeepAlive(t *testing.T) {
	s := NewStreamKeepAlive(NewFirstFit(), 0, 0, 5)
	s.Arrive(1, 1.0, nil, 0)
	if _, closed, _ := s.Depart(1, 2); closed {
		t.Fatal("keep-alive server must linger, not close")
	}
	if s.OpenServers() != 1 {
		t.Fatal("lingering server must count as open")
	}
	// Reuse within the window.
	srv, opened, err := s.Arrive(2, 1.0, nil, 4)
	if err != nil || opened || srv != 0 {
		t.Fatalf("reuse failed: srv=%d opened=%v err=%v", srv, opened, err)
	}
	s.Depart(2, 6)
	// Let it expire: advancing past 11 closes it.
	if _, _, err := s.Arrive(3, 1.0, nil, 12); err != nil {
		t.Fatal(err)
	}
	if s.ServersUsed() != 2 {
		t.Fatalf("servers used = %d, want 2", s.ServersUsed())
	}
	s.Depart(3, 13)
	if left := s.Shutdown(); left != 0 {
		t.Fatalf("%d servers still running after shutdown", left)
	}
	// Usage: server 0 [0, 11), server 1 [12, 18).
	if got := s.AccumulatedUsage(99); got != 11+6 {
		t.Fatalf("usage = %g, want 17", got)
	}
}

// A server whose keep-alive expires exactly at an arrival's timestamp is
// already shut down (half-open expiry) and must not serve that arrival.
func TestStreamKeepAliveExpiryAtArrival(t *testing.T) {
	s := NewStreamKeepAlive(NewFirstFit(), 0, 0, 2)
	s.Arrive(1, 0.5, nil, 0)
	server0 := s.Ledger().OpenBins()[0] // a stream's ledger lets go of a closed server
	s.Depart(1, 1)                      // server 0 lingers, expires at 3
	srv, opened, err := s.Arrive(2, 0.5, nil, 3)
	if err != nil {
		t.Fatal(err)
	}
	if !opened || srv != 1 {
		t.Fatalf("arrival at the expiry instant reused server %d (opened=%v), want fresh server 1", srv, opened)
	}
	if b := server0; b.Index != 0 || b.IsOpen() || b.ClosedAt() != 3 {
		t.Fatalf("server 0 must be closed at 3, got %v", b)
	}
}

// Property: the linear reference engine and the indexed engine must
// produce identical per-job assignments, event by event, on randomized
// keep-alive streams — the oracle guarding the O(log B) ledger paths
// (expiry heap + binary-search removal) and the BinIndex under
// lingering servers.
func TestIndexedLinearKeepAliveStreamEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	keepAlives := []float64{0, 0.3, 1.5, 8}
	for trial := 0; trial < 8; trial++ {
		keepAlive := keepAlives[trial%len(keepAlives)]
		l := randomInstance(rng, 150, 6)
		naive, err := NewStreamEngine(NewFirstFit(), 0, 0, keepAlive, EngineLinear)
		if err != nil {
			t.Fatal(err)
		}
		fast, err := NewStreamEngine(NewFirstFit(), 0, 0, keepAlive, EngineIndexed)
		if err != nil {
			t.Fatal(err)
		}
		for _, e := range l.Events(false) {
			if e.Kind == item.Arrive {
				s1, o1, err1 := naive.Arrive(e.Item.ID, e.Item.Size, nil, e.Time)
				s2, o2, err2 := fast.Arrive(e.Item.ID, e.Item.Size, nil, e.Time)
				if err1 != nil || err2 != nil {
					t.Fatalf("trial %d: arrive errors %v / %v", trial, err1, err2)
				}
				if s1 != s2 || o1 != o2 {
					t.Fatalf("trial %d ka=%g: job %d -> server %d (naive) vs %d (fast), opened %v/%v",
						trial, keepAlive, e.Item.ID, s1, s2, o1, o2)
				}
			} else {
				s1, c1, err1 := naive.Depart(e.Item.ID, e.Time)
				s2, c2, err2 := fast.Depart(e.Item.ID, e.Time)
				if err1 != nil || err2 != nil {
					t.Fatalf("trial %d: depart errors %v / %v", trial, err1, err2)
				}
				if s1 != s2 || c1 != c2 {
					t.Fatalf("trial %d ka=%g: job %d departed server %d/%d closed %v/%v",
						trial, keepAlive, e.Item.ID, s1, s2, c1, c2)
				}
			}
			if err := naive.Ledger().CheckInvariants(); err != nil {
				t.Fatalf("trial %d naive: %v", trial, err)
			}
			if err := fast.Ledger().CheckInvariants(); err != nil {
				t.Fatalf("trial %d fast: %v", trial, err)
			}
		}
		naive.Shutdown()
		fast.Shutdown()
		end := l.PackingPeriod().Hi + keepAlive
		if u1, u2 := naive.AccumulatedUsage(end), fast.AccumulatedUsage(end); u1 != u2 {
			t.Fatalf("trial %d ka=%g: usage %g (naive) != %g (fast)", trial, keepAlive, u1, u2)
		}
		if naive.ServersUsed() != fast.ServersUsed() || naive.PeakServers() != fast.PeakServers() {
			t.Fatalf("trial %d ka=%g: fleet shape mismatch", trial, keepAlive)
		}
	}
}

// Stream and Run must agree exactly when fed the same event sequence in
// the simulator's order, for every policy — both paths now run the same
// unified engine, so any drift here means the shared core is broken.
func TestStreamEquivalentToRunAcrossPolicies(t *testing.T) {
	rng := rand.New(rand.NewSource(55))
	for trial := 0; trial < 6; trial++ {
		l := randomInstance(rng, 120, 8)
		algos := Standard()
		for name, algo := range algos {
			run := MustRun(algo, l, nil)
			s := NewStream(algo, 0, 0)
			for _, e := range l.Events(false) {
				if e.Kind == item.Arrive {
					if _, _, err := s.Arrive(e.Item.ID, e.Item.Size, nil, e.Time); err != nil {
						t.Fatalf("%s: %v", name, err)
					}
				} else {
					if _, _, err := s.Depart(e.Item.ID, e.Time); err != nil {
						t.Fatalf("%s: %v", name, err)
					}
				}
			}
			end := l.PackingPeriod().Hi
			if got := s.AccumulatedUsage(end); math.Abs(got-run.TotalUsage) > 1e-9 {
				t.Fatalf("%s: stream usage %g != run usage %g", name, got, run.TotalUsage)
			}
			if s.ServersUsed() != run.NumBins() || s.PeakServers() != run.MaxConcurrentOpen {
				t.Fatalf("%s: structure mismatch", name)
			}
		}
	}
}
