package load

import (
	"math"
	"net/http/httptest"
	"testing"
	"time"

	"dbp/internal/item"
	"dbp/internal/serve"
)

func testScript(t *testing.T, n int) *Script {
	t.Helper()
	s, err := GenerateScript("uniform", n, 50, 10, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func newInProc(t *testing.T) *InProc {
	t.Helper()
	d, err := serve.New(serve.Config{Shards: 4})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { d.Close() })
	return &InProc{D: d}
}

// TestScriptInvariants: a generated script contains each job's arrive
// strictly before its depart, exactly once each, and partitioning
// preserves that per client while covering every op.
func TestScriptInvariants(t *testing.T) {
	s := testScript(t, 500)
	if len(s.ops) != 1000 {
		t.Fatalf("script has %d ops, want 1000", len(s.ops))
	}
	checkOrder := func(ops []scriptOp) int {
		seen := make(map[item.ID]int) // 1 = arrived, 2 = departed
		for _, op := range ops {
			switch op.Kind {
			case opArrive:
				if seen[op.ID] != 0 {
					t.Fatalf("job %d arrives twice or after depart", op.ID)
				}
				seen[op.ID] = 1
			case opDepart:
				if seen[op.ID] != 1 {
					t.Fatalf("job %d departs without arriving", op.ID)
				}
				seen[op.ID] = 2
			}
		}
		for id, st := range seen {
			if st != 2 {
				t.Fatalf("job %d never departs", id)
			}
		}
		return len(seen)
	}
	if jobs := checkOrder(s.ops); jobs != 500 {
		t.Fatalf("script covers %d jobs, want 500", jobs)
	}
	parts := s.partition(7)
	total := 0
	for _, p := range parts {
		checkOrder(p.ops)
		total += len(p.ops)
	}
	if total != len(s.ops) {
		t.Fatalf("partitions cover %d ops, want %d", total, len(s.ops))
	}
}

// TestScriptFromListCopiesSizes pins the script's ownership of its
// demand vectors: the source item.List stays live at the call site
// (rescaled, re-keyed, reused across epochs), so a script op aliasing a
// list item's Sizes would replay whatever the caller last wrote there
// instead of the trace's demand.
func TestScriptFromListCopiesSizes(t *testing.T) {
	l := item.List{
		{ID: 1, Size: 0.6, Sizes: []float64{0.6, 0.2}, Arrival: 0, Departure: 2},
		{ID: 2, Size: 0.7, Sizes: []float64{0.3, 0.7}, Arrival: 1, Departure: 3},
	}
	s := scriptFromList(l)
	for i := range l {
		for d := range l[i].Sizes {
			l[i].Sizes[d] = 55.5 // caller reuses its instance
		}
	}
	want := map[item.ID][]float64{1: {0.6, 0.2}, 2: {0.3, 0.7}}
	for _, op := range s.ops {
		if op.Kind != opArrive {
			continue
		}
		w := want[op.ID]
		if len(op.Sizes) != len(w) || op.Sizes[0] != w[0] || op.Sizes[1] != w[1] {
			t.Errorf("op for job %d sizes = %v, want %v (caller scribble leaked in)", op.ID, op.Sizes, w)
		}
	}
}

// TestScriptFromListFollowsEngineOrder pins a script to the order the
// simulation engine processes the same list in: departures at one
// instant follow their items' (Arrival, ID) order, not their IDs.
func TestScriptFromListFollowsEngineOrder(t *testing.T) {
	l := item.List{
		{ID: 1, Size: 0.2, Arrival: 1, Departure: 3},
		{ID: 2, Size: 0.2, Arrival: 0, Departure: 3},
		{ID: 3, Size: 0.2, Arrival: 1, Departure: 3},
		{ID: 4, Size: 0.2, Arrival: 3, Departure: 4},
	}
	want := []scriptOp{
		{Kind: opArrive, ID: 2}, {Kind: opArrive, ID: 1}, {Kind: opArrive, ID: 3},
		{Kind: opDepart, ID: 2}, {Kind: opDepart, ID: 1}, {Kind: opDepart, ID: 3},
		{Kind: opArrive, ID: 4}, {Kind: opDepart, ID: 4},
	}
	s := scriptFromList(l)
	if len(s.ops) != len(want) {
		t.Fatalf("script has %d ops, want %d", len(s.ops), len(want))
	}
	for i, w := range want {
		if op := s.ops[i]; op.Kind != w.Kind || op.ID != w.ID {
			t.Fatalf("op %d = %v %d, want %v %d", i, op.Kind, op.ID, w.Kind, w.ID)
		}
	}
}

// TestOpenLoopAchievedRate is the pacer acceptance check: at a rate
// the in-process service trivially sustains, the achieved measure-
// phase rate stays within 2% of requested.
func TestOpenLoopAchievedRate(t *testing.T) {
	rep, err := Run(Options{
		Target:  newInProc(t),
		Script:  testScript(t, 2000),
		Mode:    ModeOpen,
		Rate:    1000,
		Clients: 4,
		Warmup:  200 * time.Millisecond,
		Measure: 1500 * time.Millisecond,
		Drain:   5 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	if dev := math.Abs(rep.AchievedRate-1000) / 1000; dev > 0.02 {
		t.Errorf("achieved rate %.1f ops/s deviates %.1f%% from requested 1000 (allowed 2%%)",
			rep.AchievedRate, dev*100)
	}
	for _, op := range []string{"arrive", "depart"} {
		l := rep.Ops[op].Latency
		if l.Count == 0 || l.P50US <= 0 || l.P99US < l.P50US {
			t.Errorf("%s latency summary implausible: %+v", op, l)
		}
	}
	if d := rep.Phases["drain"]; d.Leaked != 0 {
		t.Errorf("drain leaked %d jobs", d.Leaked)
	}
	// After a full drain the service holds no jobs.
	if srv := rep.Server; srv == nil || srv.Arrivals != srv.Departures {
		t.Errorf("server not drained: %+v", rep.Server)
	}
	if rep.ShardSkew == nil || rep.ShardSkew.Shards != 4 || rep.ShardSkew.Imbalance < 1 {
		t.Errorf("shard skew missing or implausible: %+v", rep.ShardSkew)
	}
}

// TestClosedLoop drives the closed-loop model and checks the same
// consistency properties (no pacing target to verify).
func TestClosedLoop(t *testing.T) {
	rep, err := Run(Options{
		Target:  newInProc(t),
		Script:  testScript(t, 2000),
		Mode:    modeClosed,
		Clients: 4,
		Measure: 800 * time.Millisecond,
		Drain:   5 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.AchievedRate <= 0 {
		t.Fatal("closed loop achieved no throughput")
	}
	if rep.RequestedRate != 0 {
		t.Errorf("closed loop reports a requested rate: %g", rep.RequestedRate)
	}
	if srv := rep.Server; srv == nil || srv.Arrivals != srv.Departures {
		t.Errorf("server not drained: %+v", rep.Server)
	}
}

// TestHTTPTargetRun exercises the wire transport end to end against
// an httptest server, including error classification.
func TestHTTPTargetRun(t *testing.T) {
	d, err := serve.New(serve.Config{Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(serve.NewHandler(d))
	t.Cleanup(func() { ts.Close(); d.Close() })

	tgt := NewHTTP(ts.URL, 8, 10*time.Second)
	if err := tgt.Depart(999999, nil); classify(err) != "unknown_job" {
		t.Fatalf("unknown depart classified %q (err %v)", classify(err), err)
	}

	rep, err := Run(Options{
		Target:  tgt,
		Script:  testScript(t, 1000),
		Mode:    ModeOpen,
		Rate:    400,
		Clients: 4,
		Measure: 800 * time.Millisecond,
		Drain:   5 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Ops["arrive"].Latency.Count == 0 {
		t.Fatal("no arrivals measured over HTTP")
	}
	if len(rep.Ops["arrive"].Errors) > 0 || len(rep.Ops["depart"].Errors) > 0 {
		t.Errorf("unexpected errors: %+v %+v", rep.Ops["arrive"].Errors, rep.Ops["depart"].Errors)
	}
	// The probe depart above is the only rejection the server saw.
	if srv := rep.Server; srv == nil || srv.Arrivals != srv.Departures || srv.Rejected["unknown_job"] != 1 {
		t.Errorf("server state after HTTP run: %+v", rep.Server)
	}
	// Server-side latency (the serve satellite) is populated too.
	if srv := rep.Server; srv != nil {
		if l := srv.Latency["arrive"]; l.Count == 0 || l.P99US <= 0 {
			t.Errorf("server-side arrive latency missing: %+v", l)
		}
	}
}

// TestTransportErrorClass: a dead endpoint classifies as "transport",
// not as a service rejection.
func TestTransportErrorClass(t *testing.T) {
	tgt := NewHTTP("http://127.0.0.1:1", 1, 200*time.Millisecond)
	err := tgt.Arrive(1, 0.5, nil, nil)
	if err == nil || classify(err) != "transport" {
		t.Fatalf("dead endpoint: err=%v class=%q", err, classify(err))
	}
}

// TestEpochRekeying: a script shorter than the run wraps under fresh
// IDs — no duplicate_job rejections even though op.IDs repeat.
func TestEpochRekeying(t *testing.T) {
	rep, err := Run(Options{
		Target:  newInProc(t),
		Script:  testScript(t, 20), // 40 ops per epoch; run needs hundreds
		Mode:    ModeOpen,
		Rate:    500,
		Clients: 2,
		Measure: 1 * time.Second,
		Drain:   5 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, op := range []string{"arrive", "depart"} {
		if n := rep.Ops[op].Errors["duplicate_job"] + rep.Ops[op].Errors["unknown_job"]; n > 0 {
			t.Errorf("%s: %d ID-collision errors across epochs: %+v", op, n, rep.Ops[op].Errors)
		}
	}
	if srv := rep.Server; srv == nil || srv.Arrivals != srv.Departures {
		t.Errorf("server not drained: %+v", rep.Server)
	}
}
