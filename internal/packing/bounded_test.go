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
// one and admits a new one — and reads the live heap the stream pins
// after 10^5 events and at each doubling to 3.2·10^6: same live set, so
// every reading is within 10 % of the first. (A Go map from job to
// server, churned at that constant size, grew about 45 % over the run.)
func TestBoundedStreamHeap(t *testing.T) {
	const resident, first, last = 2000, 100_000, 3_200_000
	// The sizes repeat with this period; every job has its own ID.
	sizes, err := workload.FromSpec("zipfian", 100_000, 600, 10, 1, 1)
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
			if _, _, err := s.Arrive(id, sizes[next%len(sizes)].Size, nil, now); err != nil {
				t.Fatal(err)
			}
			jobs = append(jobs, id)
			next++
		}
		return float64(liveHeap()) - float64(base)
	}
	h1 := heapAfter(first)
	used1 := s.ServersUsed()
	t.Logf("after %d events: %.0f KB, %d servers open of %d used", first, h1/1e3, s.OpenServers(), used1)
	for events := 2 * first; events <= last; events *= 2 {
		h := heapAfter(events)
		t.Logf("after %d events: %.0f KB, %d servers open of %d used", events, h/1e3, s.OpenServers(), s.ServersUsed())
		if h > 1.1*h1 || h < 0.9*h1 {
			t.Fatalf("live heap went from %.0f KB after %d events to %.0f KB after %d with %d jobs resident at both, want within 10 %%",
				h1/1e3, first, h/1e3, events, resident)
		}
	}
	if s.ServersUsed() < 2*used1 {
		t.Fatalf("servers used went %d -> %d: the run closed too few servers to show anything", used1, s.ServersUsed())
	}
	// Everything live at the base reading stays live to the last one.
	runtime.KeepAlive(sizes)
	runtime.KeepAlive(jobs)
	runtime.KeepAlive(s)
}

// mallocs runs f once to warm it up, then runs times more at GOMAXPROCS 1
// and returns every heap allocation those runs made. testing.AllocsPerRun
// divides the count by the runs in integers, so it reads one allocation
// per thousand runs as 0; a zero-allocation pin needs the count itself.
// The count is process-wide: a collection first settles what earlier
// tests' garbage left the runtime to do, which otherwise allocated inside
// the window in about one run in seven.
func mallocs(runs int, f func()) uint64 {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	runtime.GC()
	f()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		f()
	}
	runtime.ReadMemStats(&after)
	return after.Mallocs - before.Mallocs
}

// TestZeroAllocPlacement pins every registered policy's steady-state
// placement at 0 allocations: on the indexed engine with 64 resident jobs,
// an arrival that joins an open server and its departure allocate nothing,
// at d = 1 and d = 2 — also at d = 1, where the demand vector a policy
// passes to a Fleet query is the engine's own one-element slice.
func TestZeroAllocPlacement(t *testing.T) {
	for _, name := range packing.Names() {
		for _, dim := range []int{1, 2} {
			demand := func(a, b float64) (float64, []float64) {
				if dim == 1 {
					return a, nil
				}
				return max(a, b), []float64{a, b}
			}
			algo, err := packing.ByName(name)
			if err != nil {
				t.Fatal(err)
			}
			s, err := packing.NewStreamEngine(algo, 1, dim, 0, packing.EngineIndexed)
			if err != nil {
				t.Fatal(err)
			}
			// At most three residents share a server, so every server keeps
			// room for the 0.05 job, which shares the residents' size class.
			for i := 0; i < 64; i++ {
				size, sizes := demand(0.26+0.01*float64(i%5), 0.3-0.01*float64(i%7))
				if _, _, err := s.Arrive(item.ID(i+1), size, sizes, 0); err != nil {
					t.Fatal(err)
				}
			}
			size, sizes := demand(0.05, 0.05)
			op := func() {
				if _, opened, err := s.Arrive(1000, size, sizes, 1); err != nil || opened {
					t.Fatalf("%s d=%d: the arrival opened a server %v, err %v", name, dim, opened, err)
				}
				if _, _, err := s.Depart(1000, 1); err != nil {
					t.Fatal(err)
				}
			}
			// Warm up until the job has visited every server: randomfit
			// puts it in a random one, and the first visit to the server
			// that holds a single resident grows that server's slice once.
			for i := 0; i < 1000; i++ {
				op()
			}
			if n := mallocs(10_000, op); n != 0 {
				t.Errorf("%s d=%d: 10,000 arrivals and departures on an open server allocate %d times, want 0", name, dim, n)
			}
		}
	}
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

// TestBoundedRunAllocs pins the allocations and the bytes of one batch
// run: 100k jobs, vectorbestfit at d=2 with keep-alive 0.5 (the
// benchmark's sim_vector instance at seed 1, 4,333 servers). The recorder
// lays out every server's items in one array, where it once grew a slice
// per server and the run made 44,415 allocations; the bound is half that.
// The run allocated 38.3 MB while it copied a 72-byte event per step and
// kept an ID -> server map; walking (kind, list position) steps and
// recording by list position brought it near 20 MB, and the bound is
// 24 MB. It also checks each server's Items is capped at its length.
func TestBoundedRunAllocs(t *testing.T) {
	if testing.Short() {
		t.Skip("-short: skipping the 100k-job run")
	}
	jobs, err := workload.FromSpec("uniform", 100_000, 1100, 10, 1, 2)
	if err != nil {
		t.Fatal(err)
	}
	var res *packing.Result
	run := func() {
		algo, err := packing.ByName("vectorbestfit")
		if err != nil {
			t.Fatal(err)
		}
		if res, err = packing.Run(algo, jobs, &packing.Options{KeepAlive: 0.5}); err != nil {
			t.Fatal(err)
		}
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	run() // warm up, as testing.AllocsPerRun does
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	run()
	runtime.ReadMemStats(&after)
	allocs, bytes := after.Mallocs-before.Mallocs, after.TotalAlloc-before.TotalAlloc
	t.Logf("%d jobs on %d servers: %d allocations, %.1f MB", len(jobs), res.NumBins(), allocs, float64(bytes)/1e6)
	const limit, byteLimit = 44_415 / 2, 24_000_000
	if allocs > limit {
		t.Fatalf("Run made %d allocations, want at most %d", allocs, limit)
	}
	if bytes > byteLimit {
		t.Fatalf("Run allocated %d bytes, want at most %d", bytes, byteLimit)
	}
	for k, b := range res.Bins {
		if cap(b.Items) != len(b.Items) {
			t.Fatalf("server %d Items has cap %d, len %d", k, cap(b.Items), len(b.Items))
		}
	}
}
