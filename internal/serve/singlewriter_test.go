package serve_test

import (
	"sync"
	"testing"
	"time"

	"dbp/internal/item"
	"dbp/internal/packing"
	"dbp/internal/serve"
)

// TestJournalCopiesSizes is the regression test for the shared-slice
// journal bug: an in-process caller that reuses its sizes slice across
// Arrive calls must not corrupt the replay journal (or the stream's
// own level accounting, which also retains the demand vector). The
// dispatcher copies the slice once at the API boundary.
func TestJournalCopiesSizes(t *testing.T) {
	d, err := serve.New(serve.Config{Shards: 1, Dim: 2, DataDir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}

	// One reusable buffer, as a batching caller would hold: scribbled
	// between ops.
	buf := []float64{0.6, 0.2}
	if _, err := d.Arrive(1, 0.6, buf, nil); err != nil {
		t.Fatal(err)
	}
	buf[0], buf[1] = 0.9, 0.9 // caller reuses its buffer
	if _, err := d.Arrive(2, 0.9, buf, nil); err != nil {
		t.Fatal(err)
	}
	buf[0], buf[1] = 0.1, 0.1 // and again, before the departs
	if _, err := d.Depart(1, nil); err != nil {
		t.Fatal(err)
	}
	if _, err := d.Depart(2, nil); err != nil {
		t.Fatal(err)
	}
	d.Close()

	events := journal(t, d, 0)
	if len(events) != 4 {
		t.Fatalf("journal has %d events, want 4", len(events))
	}
	wantSizes := [][]float64{{0.6, 0.2}, {0.9, 0.9}}
	for i, want := range wantSizes {
		got := events[i].Sizes
		if len(got) != 2 || got[0] != want[0] || got[1] != want[1] {
			t.Errorf("journal event %d sizes = %v, want %v (caller scribble leaked in)", i, got, want)
		}
	}

	// The journal must replay cleanly into a fresh stream with the
	// same server assignments — the serialization certificate.
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
	if replay.OpenServers() != 0 {
		t.Errorf("replay left %d servers open after full drain", replay.OpenServers())
	}
}

// TestCloseWithFullQueue closes the dispatcher while its single shard's
// depth-1 request queue is saturated by many concurrent submitters:
// Close must neither deadlock nor drop an accepted event — every
// attempt resolves exactly once, the accepted count agrees between
// clients, metrics, and the journal, and the journal's order equals
// the application order (replay reproduces every server assignment).
// Run under -race via `make check`.
func TestCloseWithFullQueue(t *testing.T) {
	d, err := serve.New(serve.Config{Shards: 1, QueueDepth: 1, DataDir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}

	const clients = 8
	const perClient = 300
	var mu sync.Mutex
	accepted := make(map[item.ID]int) // id -> server
	var rejected int
	var wg sync.WaitGroup
	// Client 0 fires Close mid-barrage, after its own half-way op, with
	// the queue necessarily full or filling: depth 1 with 8 writers keeps
	// submitters parked on the channel send the whole time. The trigger is
	// the barrage's own progress, so however the clients are scheduled,
	// client 0's remaining ops follow Close and must be refused.
	done := make(chan serve.Stats, 1)
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := 0; i < perClient; i++ {
				if c == 0 && i == perClient/2 {
					done <- d.Close()
				}
				id := item.ID(c*perClient + i + 1)
				p, err := d.Arrive(id, 0.01, nil, nil)
				mu.Lock()
				if err == nil {
					accepted[id] = p.Server
				} else {
					rejected++
				}
				mu.Unlock()
			}
		}(c)
	}
	var final serve.Stats
	select {
	case final = <-done:
	case <-time.After(30 * time.Second):
		t.Fatal("Close deadlocked against a full request queue")
	}
	wg.Wait()

	mu.Lock()
	defer mu.Unlock()
	if len(accepted)+rejected != clients*perClient {
		t.Fatalf("outcomes %d != attempts %d (an op was lost or double-resolved)",
			len(accepted)+rejected, clients*perClient)
	}
	if rejected == 0 {
		t.Fatal("no submission raced the drain; the close trigger is broken")
	}
	if final.Arrivals != uint64(len(accepted)) {
		t.Errorf("metrics arrivals %d != client-accepted %d", final.Arrivals, len(accepted))
	}

	// Journal order equals application order: replaying it must
	// reproduce exactly the server each accepted request was told, and
	// cover every accepted request exactly once.
	events := journal(t, d, 0)
	if len(events) != len(accepted) {
		t.Fatalf("journal has %d events, client-accepted %d", len(events), len(accepted))
	}
	algo, _ := packing.ByName("firstfit")
	replay := packing.NewStream(algo, 0, 0)
	seen := make(map[item.ID]bool)
	for k, ev := range events {
		if ev.Kind != "arrive" {
			t.Fatalf("journal event %d kind %q, want arrive", k, ev.Kind)
		}
		if seen[ev.ID] {
			t.Fatalf("journal records job %d twice", ev.ID)
		}
		seen[ev.ID] = true
		server, _, err := replay.Arrive(ev.ID, ev.Size, ev.Sizes, ev.Time)
		if err != nil {
			t.Fatalf("replay event %d: %v", k, err)
		}
		if server != ev.Server {
			t.Fatalf("journal event %d out of application order: journal says server %d, replay assigns %d",
				k, ev.Server, server)
		}
		if want, ok := accepted[ev.ID]; !ok || want != server {
			t.Fatalf("journal event %d: client was told server %d, journal/replay say %d", k, want, server)
		}
	}
}
