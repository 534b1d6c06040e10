package serve_test

import (
	"errors"
	"reflect"
	"testing"

	"dbp/internal/item"
	"dbp/internal/packing"
	"dbp/internal/serve"
)

func newBatchDispatcher(t *testing.T, shards int) *serve.Dispatcher {
	t.Helper()
	d, err := serve.New(serve.Config{
		Shards: shards, DataDir: t.TempDir(),
		Clock: func() float64 { return 0 },
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { d.Close() })
	return d
}

// TestApplyBatchMatchesSingles is the batch path's equivalence
// certificate: the same op sequence produces identical per-op outcomes
// and identical shard journals whether it goes through ApplyBatch or
// through one Arrive/Depart call per op.
func TestApplyBatchMatchesSingles(t *testing.T) {
	ops := []serve.BatchOp{
		{ID: 1, Size: 0.6, HasTime: true, Time: 0},
		{ID: 2, Size: 0.6, HasTime: true, Time: 0},
		{ID: 3, Size: 0.3, HasTime: true, Time: 1},
		{ID: 1, Size: 0.5, HasTime: true, Time: 1},    // duplicate
		{Depart: true, ID: 7, HasTime: true, Time: 1}, // unknown
		{ID: 4, Size: 1.7, HasTime: true, Time: 2},    // oversized
		{Depart: true, ID: 1, HasTime: true, Time: 2},
		{ID: 5, Size: 0.2, HasTime: true, Time: 3},
		{Depart: true, ID: 5, HasTime: true, Time: 3}, // same-batch arrive+depart
	}

	batched := newBatchDispatcher(t, 3)
	results := make([]serve.BatchResult, len(ops))
	batched.ApplyBatch(ops, results)

	// sameErr: the batch and single paths wrap the same sentinel with
	// the same diagnostic, but the wrapped values are distinct; compare
	// by message.
	sameErr := func(a, b error) bool {
		if (a == nil) != (b == nil) {
			return false
		}
		return a == nil || a.Error() == b.Error()
	}
	single := newBatchDispatcher(t, 3)
	for i, op := range ops {
		tm := op.Time
		want := results[i]
		if op.Depart {
			dep, err := single.Depart(op.ID, &tm)
			if !sameErr(err, want.Err) || (err == nil && (dep.Server != want.Server || dep.Closed != want.Flag || dep.Time != want.Time)) {
				t.Fatalf("op %d: single depart (%+v, %v) != batch %+v", i, dep, err, want)
			}
		} else {
			pl, err := single.Arrive(op.ID, op.Size, op.Sizes, &tm)
			if !sameErr(err, want.Err) || (err == nil && (pl.Server != want.Server || pl.Opened != want.Flag || pl.Time != want.Time)) {
				t.Fatalf("op %d: single arrive (%+v, %v) != batch %+v", i, pl, err, want)
			}
		}
	}
	for si := 0; si < batched.NumShards(); si++ {
		if b, s := journal(t, batched, si), journal(t, single, si); !reflect.DeepEqual(b, s) {
			t.Fatalf("shard %d journals diverge:\nbatch:  %+v\nsingle: %+v", si, b, s)
		}
	}

	// The same-batch arrive+depart pair (job 5) must have kept its
	// order: the depart succeeded.
	if results[8].Err != nil {
		t.Fatalf("same-batch depart after arrive failed: %v", results[8].Err)
	}
	// And every error class surfaced as the right sentinel.
	for i, want := range map[int]error{
		3: packing.ErrDuplicateJob,
		4: packing.ErrUnknownJob,
		5: packing.ErrBadDemand,
	} {
		if !errors.Is(results[i].Err, want) {
			t.Errorf("op %d err = %v, want %v", i, results[i].Err, want)
		}
	}
}

// TestApplyBatchCopiesSizes: the dispatcher must own the demand
// vectors it journals; a transport reusing its decode buffer between
// batches cannot scribble on history.
func TestApplyBatchCopiesSizes(t *testing.T) {
	d, err := serve.New(serve.Config{Shards: 1, Dim: 2, DataDir: t.TempDir(),
		Clock: func() float64 { return 0 }})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	buf := []float64{0.6, 0.2}
	results := make([]serve.BatchResult, 1)
	d.ApplyBatch([]serve.BatchOp{{ID: 1, Size: 0.6, Sizes: buf}}, results)
	if results[0].Err != nil {
		t.Fatal(results[0].Err)
	}
	buf[0], buf[1] = 0.9, 0.9
	ev := journal(t, d, 0)
	if len(ev) != 1 || ev[0].Sizes[0] != 0.6 || ev[0].Sizes[1] != 0.2 {
		t.Fatalf("caller scribble leaked into the journal: %+v", ev)
	}
}

// TestBatchCounters: every ApplyBatch bumps the batch-shape counters
// and the per-op arrival/departure counters identically to singles.
func TestBatchCounters(t *testing.T) {
	d := newBatchDispatcher(t, 2)
	results := make([]serve.BatchResult, 4)
	d.ApplyBatch([]serve.BatchOp{
		{ID: 1, Size: 0.1}, {ID: 2, Size: 0.1}, {ID: 3, Size: 0.1},
		{Depart: true, ID: 1},
	}, results)
	d.ApplyBatch([]serve.BatchOp{{ID: 4, Size: 0.1}}, results[:1])
	st := d.Stats()
	if st.Batches != 2 || st.BatchOps != 5 {
		t.Fatalf("batches=%d batch_ops=%d, want 2 and 5", st.Batches, st.BatchOps)
	}
	if st.Arrivals != 4 || st.Departures != 1 {
		t.Fatalf("arrivals=%d departures=%d, want 4 and 1", st.Arrivals, st.Departures)
	}
}

// TestApplyBatchAfterClose: a batch against a draining dispatcher gets
// ErrClosed on every op — counted once each in the rejection metrics —
// and never hangs; a single Arrive is refused and counted the same way.
func TestApplyBatchAfterClose(t *testing.T) {
	d := newBatchDispatcher(t, 2)
	d.Close()
	ops := []serve.BatchOp{
		{ID: 1, Size: 0.5}, {ID: 2, Size: 0.5}, {Depart: true, ID: 1},
	}
	results := make([]serve.BatchResult, len(ops))
	d.ApplyBatch(ops, results)
	for i, r := range results {
		if !errors.Is(r.Err, serve.ErrClosed) {
			t.Fatalf("op %d err = %v, want ErrClosed", i, r.Err)
		}
	}
	if got := d.Stats().Rejected["shutting_down"]; got != uint64(len(ops)) {
		t.Fatalf("shutting_down rejections = %d, want %d", got, len(ops))
	}
	if _, err := d.Arrive(9, 0.5, nil, nil); !errors.Is(err, serve.ErrClosed) {
		t.Fatalf("single arrive err = %v, want ErrClosed", err)
	}
	if got := d.Stats().Rejected["shutting_down"]; got != uint64(len(ops))+1 {
		t.Fatalf("shutting_down rejections = %d after a single arrive, want %d", got, len(ops)+1)
	}
}

// TestApplyBatchShortResults: a results slice shorter than ops is the
// caller's bug and must surface in the caller's goroutine — not as an
// out-of-range write inside a shard owner, which would take down every
// shard. The dispatcher keeps serving afterwards.
func TestApplyBatchShortResults(t *testing.T) {
	d := newBatchDispatcher(t, 2)
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("ApplyBatch with 1 result for 3 ops did not panic")
			}
		}()
		d.ApplyBatch([]serve.BatchOp{
			{ID: 1, Size: 0.1}, {ID: 2, Size: 0.1}, {ID: 3, Size: 0.1},
		}, make([]serve.BatchResult, 1))
	}()
	if _, err := d.Arrive(1, 0.5, nil, nil); err != nil {
		t.Fatalf("arrive after the refused batch: %v", err)
	}
	if st := d.Stats(); st.Arrivals != 1 || st.Batches != 0 {
		t.Fatalf("refused batch left a trace: arrivals=%d batches=%d", st.Arrivals, st.Batches)
	}
}

// TestSingleOpAllocs pins what a batch of one costs: a steady-state
// Arrive+Depart pair beside one long-lived job (so no server opens or
// closes) allocates 4 times — the figure measured at the commit before
// Arrive/Depart became a batch of one, all of it in the stream and the
// owner's gauge republish. The ops and results of a single call must
// stay on the stack or in pooled memory.
func TestSingleOpAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("alloc accounting is unreliable under -race")
	}
	d, err := serve.New(serve.Config{Shards: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	now := 0.0
	if _, err := d.Arrive(1, 0.5, nil, &now); err != nil {
		t.Fatal(err)
	}
	pair := func() {
		now++
		if _, err := d.Arrive(2, 0.25, nil, &now); err != nil {
			t.Fatal(err)
		}
		if _, err := d.Depart(2, &now); err != nil {
			t.Fatal(err)
		}
	}
	pair() // fill the envelope and plan pools
	if got := testing.AllocsPerRun(2000, pair); got > 4 {
		t.Fatalf("Arrive+Depart pair allocates %v times, want <= 4", got)
	}
}

// TestExplicitTimeSkipsClock: an op that carries its own time must not
// read the service clock, whichever front door it came through, and a
// batch with any unstamped op reads it exactly once.
func TestExplicitTimeSkipsClock(t *testing.T) {
	reads := 0
	d, err := serve.New(serve.Config{Shards: 2, Clock: func() float64 { reads++; return 5 }})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	t0 := 0.0
	if _, err := d.Arrive(1, 0.5, nil, &t0); err != nil {
		t.Fatal(err)
	}
	if _, err := d.Depart(1, &t0); err != nil {
		t.Fatal(err)
	}
	results := make([]serve.BatchResult, 3)
	d.ApplyBatch([]serve.BatchOp{
		{ID: 2, Size: 0.5, HasTime: true, Time: 1},
		{Depart: true, ID: 2, HasTime: true, Time: 1},
	}, results)
	if reads != 0 {
		t.Fatalf("explicitly timed ops read the service clock %d times", reads)
	}
	d.ApplyBatch([]serve.BatchOp{
		{ID: 3, Size: 0.1, HasTime: true, Time: 2},
		{ID: 4, Size: 0.1},
		{ID: 5, Size: 0.1},
	}, results)
	if reads != 1 {
		t.Fatalf("a batch with two unstamped ops read the service clock %d times, want 1", reads)
	}
	for i, r := range results {
		if r.Err != nil {
			t.Fatalf("op %d: %v", i, r.Err)
		}
	}
	if results[0].Time != 2 || results[1].Time != 5 || results[2].Time != 5 {
		t.Fatalf("applied times %v %v %v, want 2 5 5", results[0].Time, results[1].Time, results[2].Time)
	}
}

// TestApplyBatchEmpty: a zero-op batch is a no-op, not a counter bump.
func TestApplyBatchEmpty(t *testing.T) {
	d := newBatchDispatcher(t, 2)
	d.ApplyBatch(nil, nil)
	if st := d.Stats(); st.Batches != 0 || st.BatchOps != 0 {
		t.Fatalf("empty batch counted: %+v", st)
	}
}

// TestApplyBatchConcurrent hammers ApplyBatch from several goroutines
// with overlapping shard sets; totals must balance. Run under -race.
func TestApplyBatchConcurrent(t *testing.T) {
	d := newBatchDispatcher(t, 4)
	const workers = 8
	const batches = 50
	const per = 16
	done := make(chan error, workers)
	for w := 0; w < workers; w++ {
		go func(w int) {
			results := make([]serve.BatchResult, per)
			ops := make([]serve.BatchOp, per)
			for b := 0; b < batches; b++ {
				for i := range ops {
					ops[i] = serve.BatchOp{ID: item.ID(w*batches*per + b*per + i + 1), Size: 0.01}
				}
				d.ApplyBatch(ops, results)
				for i := range results {
					if results[i].Err != nil {
						done <- results[i].Err
						return
					}
				}
			}
			done <- nil
		}(w)
	}
	for w := 0; w < workers; w++ {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
	st := d.Stats()
	if st.Arrivals != workers*batches*per || st.BatchOps != workers*batches*per || st.Batches != workers*batches {
		t.Fatalf("stats %+v, want %d arrivals over %d batches", st, workers*batches*per, workers*batches)
	}
}

// TestStatsSeeAcknowledgedBatch pins the gauge's freshness for a lone
// caller: the shard owner publishes its stats before it replies whenever
// its queue is empty, so Stats read right after an acknowledged batch
// counts every event that batch applied.
func TestStatsSeeAcknowledgedBatch(t *testing.T) {
	d := newBatchDispatcher(t, 1)
	const rounds = 5000
	ops := make([]serve.BatchOp, 4)
	results := make([]serve.BatchResult, len(ops))
	applied, stale := 0, 0
	for r := 0; r < rounds; r++ {
		base := item.ID(2*r + 1)
		at := float64(r)
		ops[0] = serve.BatchOp{ID: base, Size: 0.3, HasTime: true, Time: at}
		ops[1] = serve.BatchOp{ID: base + 1, Size: 0.3, HasTime: true, Time: at}
		ops[2] = serve.BatchOp{Depart: true, ID: base, HasTime: true, Time: at}
		ops[3] = serve.BatchOp{Depart: true, ID: base + 1, HasTime: true, Time: at}
		d.ApplyBatch(ops, results)
		for i, res := range results {
			if res.Err != nil {
				t.Fatalf("round %d op %d: %v", r, i, res.Err)
			}
		}
		applied += len(ops)
		if got := d.Stats().PerShard[0].Events; got != applied {
			stale++
		}
	}
	if stale > 0 {
		t.Fatalf("%d of %d Stats reads after an acknowledged batch missed its events", stale, rounds)
	}
}
