package packing_test

import (
	"math/rand"
	"runtime"
	"testing"

	"dbp/internal/item"
	"dbp/internal/packing"
	"dbp/internal/workload"
)

// A Stream's memory and its restore cost follow the open fleet, not the
// events it has seen (ROADMAP item 1, Step B). internal/bins checks the
// same from the inside (TestBoundedLedgerState); these two tests check it
// through the API the daemon uses, and both fail on a ledger that keeps
// history.

// TestBoundedStreamHeap drives a firstfit stream with zipfian sizes while
// holding exactly 2000 jobs resident — every event pair departs a random
// one and admits a new one — and compares the live heap the stream pins
// after 4N events with that after N: same live set, so the same heap.
func TestBoundedStreamHeap(t *testing.T) {
	const resident, n = 2000, 50_000
	sizes, err := workload.FromSpec("zipfian", 2*n+resident, 600, 10, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	liveHeap := func() uint64 {
		runtime.GC()
		var m runtime.MemStats
		runtime.ReadMemStats(&m)
		return m.HeapAlloc
	}
	rng := rand.New(rand.NewSource(1))
	jobs := make([]item.ID, 0, resident)
	base := liveHeap()
	s := packing.NewStream(packing.NewFirstFit(), 1, 1)
	next, now := 0, 0.0
	heapAfter := func(events int) float64 {
		for s.Events() < events || len(jobs) < resident {
			now += 0.001
			if len(jobs) == resident {
				k := rng.Intn(resident)
				if _, _, err := s.Depart(jobs[k], now); err != nil {
					t.Fatal(err)
				}
				jobs[k] = jobs[len(jobs)-1]
				jobs = jobs[:len(jobs)-1]
			}
			id := item.ID(next + 1)
			if _, _, err := s.Arrive(id, sizes[next].Size, nil, now); err != nil {
				t.Fatal(err)
			}
			jobs = append(jobs, id)
			next++
		}
		return float64(liveHeap()) - float64(base)
	}
	h1 := heapAfter(n)
	open1, used1 := s.OpenServers(), s.ServersUsed()
	h4 := heapAfter(4 * n)
	t.Logf("after %d events: %.0f KB, %d servers open of %d used; after %d: %.0f KB, %d open of %d used",
		n, h1/1e3, open1, used1, 4*n, h4/1e3, s.OpenServers(), s.ServersUsed())
	if s.ServersUsed() < 2*used1 {
		t.Fatalf("servers used went %d -> %d: the second stretch closed too few servers to show anything", used1, s.ServersUsed())
	}
	if h4 > 1.5*h1 {
		t.Fatalf("live heap grew from %.0f KB after %d events to %.0f KB after %d with %d jobs resident at both", h1/1e3, n, h4/1e3, 4*n, resident)
	}
	// Everything live at the base reading stays live to the last one.
	runtime.KeepAlive(sizes)
	runtime.KeepAlive(jobs)
	runtime.KeepAlive(s)
}

// TestBoundedRestoreAllocs restores a snapshot of 100 open servers out of
// a million ever used, and bounds the allocations by the open list: the
// closed 999,900 are a counter, not a placeholder each.
func TestBoundedRestoreAllocs(t *testing.T) {
	const open, used = 100, 1_000_000
	s := packing.NewStream(packing.NewFirstFit(), 1, 1)
	for i := 0; i < open; i++ {
		if _, opened, err := s.Arrive(item.ID(i+1), 0.9, nil, float64(i)); err != nil || !opened {
			t.Fatalf("arrival %d: opened %v, err %v", i, opened, err)
		}
	}
	snap := s.Snapshot()
	snap.ServersUsed = used
	for i := range snap.Servers {
		snap.Servers[i].Index = i * (used / open) // spread over the whole history
	}
	var restored *packing.Stream
	allocs := testing.AllocsPerRun(5, func() {
		var err error
		if restored, err = packing.RestoreStream(packing.NewFirstFit(), snap); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("restoring %d open servers of %d used: %.0f allocations", open, used, allocs)
	if allocs > 16*open {
		t.Fatalf("restoring %d open servers of %d used made %.0f allocations, want at most %d", open, used, allocs, 16*open)
	}
	if restored.ServersUsed() != used || restored.OpenServers() != open {
		t.Fatalf("restored stream has %d open of %d used", restored.OpenServers(), restored.ServersUsed())
	}
	// The next server to open takes the next index of the full history.
	if srv, opened, err := restored.Arrive(item.ID(open+1), 0.9, nil, float64(open)); err != nil || !opened || srv != used {
		t.Fatalf("arrival after restore: server %d, opened %v, err %v; want a fresh server %d", srv, opened, err, used)
	}
}
