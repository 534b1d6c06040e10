package serve_test

import (
	"reflect"
	"testing"

	"dbp/internal/item"
	"dbp/internal/packing"
	"dbp/internal/serve"
)

// ts returns a pointer to an explicit event timestamp, so these tests
// are clock-independent.
func ts(v float64) *float64 { return &v }

// vecBarrage drives one deterministic vector workload against d: three
// arrivals with distinct demand vectors, then departs for all of them.
// Times are explicit so the run is clock-independent.
func vecBarrage(t *testing.T, d *serve.Dispatcher) {
	t.Helper()
	arrive := func(id item.ID, at float64, v []float64) {
		max := v[0]
		for _, x := range v[1:] {
			if x > max {
				max = x
			}
		}
		if _, err := d.Arrive(id, max, v, ts(at)); err != nil {
			t.Fatalf("arrive %d: %v", id, err)
		}
	}
	arrive(1, 0, []float64{0.6, 0.2})
	arrive(2, 1, []float64{0.3, 0.7})
	arrive(3, 2, []float64{0.5, 0.4})
	for id := item.ID(1); id <= 3; id++ {
		if _, err := d.Depart(id, ts(float64(id)+2)); err != nil {
			t.Fatalf("depart %d: %v", id, err)
		}
	}
}

// scribble overwrites every demand vector in a ShardEvents result, as a
// misbehaving (or buffer-recycling) consumer would.
func scribble(events []serve.Event) {
	for i := range events {
		for d := range events[i].Sizes {
			events[i].Sizes[d] = 99.5
		}
	}
}

// TestShardEventsOwnershipWAL pins the journal's ownership contract:
// ShardEvents reads the WAL, whose decoder allocates a fresh vector per
// record, so consecutive reads are independent even if a consumer
// scribbles on one.
func TestShardEventsOwnershipWAL(t *testing.T) {
	d, err := serve.New(serve.Config{
		Shards: 1, Dim: 2, DataDir: t.TempDir(),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	vecBarrage(t, d)

	first := journal(t, d, 0)
	if len(first) != 6 {
		t.Fatalf("WAL journal has %d events, want 6", len(first))
	}
	scribble(first)

	second := journal(t, d, 0)
	want := [][]float64{{0.6, 0.2}, {0.3, 0.7}, {0.5, 0.4}}
	for i, w := range want {
		if !reflect.DeepEqual(second[i].Sizes, w) {
			t.Errorf("WAL event %d sizes = %v, want %v (reader scribble leaked in)", i, second[i].Sizes, w)
		}
	}
}

// TestApplyBatchBufferReuseReplay extends TestApplyBatchCopiesSizes
// through the jobs' full lifetime: after the transport's decode buffer
// is scribbled, the departs must still subtract the original demands
// (the ledger owns its copies), and the journal must replay into the
// same server assignments as the live run.
func TestApplyBatchBufferReuseReplay(t *testing.T) {
	d, err := serve.New(serve.Config{Shards: 1, Dim: 2, DataDir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}

	buf := []float64{0.6, 0.2} // one decode buffer, reused across batches
	results := make([]serve.BatchResult, 1)
	at := 0.0
	d.ApplyBatch([]serve.BatchOp{{ID: 1, Size: 0.6, Sizes: buf, Time: at, HasTime: true}}, results)
	if results[0].Err != nil {
		t.Fatal(results[0].Err)
	}
	buf[0], buf[1] = 0.3, 0.7 // transport reuses its buffer
	d.ApplyBatch([]serve.BatchOp{{ID: 2, Size: 0.7, Sizes: buf, Time: 1, HasTime: true}}, results)
	if results[0].Err != nil {
		t.Fatal(results[0].Err)
	}
	buf[0], buf[1] = 42, 42 // and scribbles it once more before the departs
	for id := item.ID(1); id <= 2; id++ {
		d.ApplyBatch([]serve.BatchOp{{ID: id, Depart: true, Time: float64(id) + 1, HasTime: true}}, results)
		if results[0].Err != nil {
			t.Fatal(results[0].Err)
		}
	}
	d.Close()

	events := journal(t, d, 0)
	if len(events) != 4 {
		t.Fatalf("journal has %d events, want 4", len(events))
	}
	wantSizes := [][]float64{{0.6, 0.2}, {0.3, 0.7}}
	for i, want := range wantSizes {
		if !reflect.DeepEqual(events[i].Sizes, want) {
			t.Errorf("journal event %d sizes = %v, want %v (batch buffer reuse leaked in)", i, events[i].Sizes, want)
		}
	}

	// Replay certificate: the journal must reproduce the live run.
	algo, _ := packing.ByName("firstfit")
	replay := packing.NewStream(algo, 0, 2)
	for k, ev := range events {
		var server int
		var err error
		switch ev.Kind {
		case "arrive":
			server, _, err = replay.Arrive(ev.ID, ev.Size, ev.Sizes, ev.Time)
		case "depart":
			server, _, err = replay.Depart(ev.ID, ev.Time)
		}
		if err != nil {
			t.Fatalf("replay event %d: %v", k, err)
		}
		if server != ev.Server {
			t.Fatalf("replay event %d: live run used server %d, replay used %d", k, ev.Server, server)
		}
	}
}
