package main

import (
	"fmt"
	"io/fs"
	"math"
	"net"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"dbp/internal/item"
	"dbp/internal/packing"
	"dbp/internal/serve"
	"dbp/internal/wire"
	"dbp/internal/workload"
)

// Event counts of one repetition at scale 1, sized so that a repetition
// takes two to three seconds on a 2-vCPU box.
const (
	soakEvents  = 1_000_000
	vectorJobs  = 100_000
	wireOps     = 400_000
	durableOps  = 1_800_000
	wireCallers = 64
	// soakSampleEvery is how often engine_soak times a call: reading the
	// clock costs a tenth of a call here, so it times one call in sixteen.
	soakSampleEvery = 16
	durableBatch    = 64
	serveShards     = 2
	snapshotEvery   = 60_000
	segmentBytes    = 4 << 20
)

// rep is what one repetition of a workload over fresh state measured: its
// value of every end-to-end metric but tail_over_head, the cost of an event
// in each slice of the measured phase (hundredths; sim_vector has the first
// tenth, run on its own, and the whole run), the calls it made and how many
// of them (or of its correctness checks) failed, and the figures behind a
// metric.
type rep struct {
	metrics   map[string]float64
	slices    []float64
	attempted int64
	failed    int64
	detail    map[string]any
}

type workloadDef struct {
	name string
	rep  func(seed int64, scale float64) (rep, error)
}

// workloads lists the four in BENCHMARK.json's order; the why of each is
// recorded there and in README.md.
var workloads = []workloadDef{
	{"engine_soak", engineSoak},
	{"sim_vector", simVector},
	{"serve_wire", serveWire},
	{"serve_durable", serveDurable},
}

// outDir holds data directories, the report and the trace; it is relative to
// the benchmark's directory, where `go run -C bench` and `go test` both run.
const outDir = "out"

// scaled shrinks a count for the smoke test, keeping it a multiple of a
// hundred so that the centile clock divides it.
func scaled(n int, scale float64) int {
	return max(100, int(float64(n)*scale)/100*100)
}

// script generates n events' worth of a scenario: enough jobs that the
// first n events end in steady state, before the arrivals run out.
func script(spec string, n int, rate float64, seed int64, dim int) (item.List, []event, error) {
	l, err := workload.FromSpec(spec, n*6/10, rate, 10, seed, dim)
	if err != nil {
		return nil, nil, err
	}
	return l, flatten(l)[:n], nil
}

// liveHeap returns the bytes of reachable heap objects.
func liveHeap() uint64 {
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.HeapAlloc
}

func heapMB(base uint64) float64 { return (float64(liveHeap()) - float64(base)) / 1e6 }

// centiles stamps the wall time at which each hundredth of n events had
// completed.
type centiles struct {
	step int64
	done atomic.Int64
	at   [101]time.Time
}

func startCentiles(n int) *centiles {
	c := &centiles{step: int64(n / 100)}
	c.at[0] = time.Now()
	return c
}

// add counts k completed events, k at most one step.
func (c *centiles) add(k int) {
	n := c.done.Add(int64(k))
	if i := n / c.step; i > (n-int64(k))/c.step {
		c.at[i] = time.Now()
	}
}

func (c *centiles) wall() time.Duration { return c.at[100].Sub(c.at[0]) }

// nsPerEvent returns the cost of an event in each hundredth.
func (c *centiles) nsPerEvent() []float64 {
	out := make([]float64, 100)
	for i := range out {
		out[i] = float64(c.at[i+1].Sub(c.at[i])) / float64(c.step)
	}
	return out
}

// checks counts correctness failures and reports the first few.
type checks struct {
	failed atomic.Int64
}

func (c *checks) fail(format string, args ...any) {
	if c.failed.Add(1) <= 5 {
		fmt.Fprintf(os.Stderr, "bench: check failed: "+format+"\n", args...)
	}
}

func (c *checks) equal(what string, got, want any) {
	if !reflect.DeepEqual(got, want) {
		c.fail("%s: got %v, want %v", what, got, want)
	}
}

// latencyMetrics sorts one repetition's call latencies, in nanoseconds, and
// adds their exact percentiles.
func latencyMetrics(m map[string]float64, detail map[string]any, lat []uint32) {
	slices.Sort(lat)
	m["call_p50_us"] = float64(percentile(lat, 0.50)) / 1e3
	m["call_p99_us"] = float64(percentile(lat, 0.99)) / 1e3
	detail["call_samples"] = len(lat)
}

// restore rebuilds a firstfit stream from each snapshot and checks it against
// the snapshot's own totals, returning the seconds that took.
func restore(c *checks, snaps ...packing.Snapshot) (float64, error) {
	start := time.Now()
	for i, snap := range snaps {
		algo, err := packing.ByName("firstfit")
		if err != nil {
			return 0, err
		}
		s, err := packing.RestoreStream(algo, snap)
		if err != nil {
			return 0, err
		}
		c.equal(fmt.Sprintf("restored stream %d", i),
			[]any{s.OpenServers(), s.ServersUsed(), s.UsageTime()},
			[]any{snap.OpenServers, snap.ServersUsed, snap.UsageTime})
	}
	return time.Since(start).Seconds(), nil
}

// engineSoak drives one packing.Stream from a single goroutine with the
// script's own event times: firstfit, indexed, d=1, no keep-alive, zipfian
// at rate 600 (about 3.3k live jobs on 550 servers).
func engineSoak(seed int64, scale float64) (rep, error) {
	n := scaled(soakEvents, scale)
	var c checks

	t0 := time.Now()
	l, evs, err := script("zipfian", n, 600, seed, 1)
	if err != nil {
		return rep{}, err
	}
	lat := make([]uint32, 0, n/soakSampleEvery+1)
	setup := time.Since(t0)
	base := liveHeap()
	t0 = time.Now()
	algo, err := packing.ByName("firstfit")
	if err != nil {
		return rep{}, err
	}
	s, err := packing.NewStreamEngine(algo, 1, 1, 0, packing.EngineIndexed)
	if err != nil {
		return rep{}, err
	}
	setup += time.Since(t0)

	cen := startCentiles(n)
	for i, e := range evs {
		it := &l[e.job]
		timed := i%soakSampleEvery == 0
		var start time.Time
		if timed {
			start = time.Now()
		}
		if e.depart {
			_, _, err = s.Depart(it.ID, e.t)
		} else {
			_, _, err = s.Arrive(it.ID, it.Size, nil, e.t)
		}
		if timed {
			lat = append(lat, uint32(time.Since(start)))
		}
		if err != nil {
			c.fail("event %d: %v", i, err)
		}
		if (i+1)%int(cen.step) == 0 {
			cen.add(int(cen.step))
		}
	}

	m := map[string]float64{
		"setup_s":      setup.Seconds(),
		"heap_live_mb": heapMB(base),
		"usage_ratio":  s.UsageTime() / lowerBound(l, evs[n-1].t),
	}
	m["events_per_s"] = float64(int64(n)-c.failed.Load()) / cen.wall().Seconds()
	detail := map[string]any{
		"events":       n,
		"open_servers": s.OpenServers(),
		"servers_used": s.ServersUsed(),
	}
	latencyMetrics(m, detail, lat)
	if m["recover_s"], err = restore(&c, s.Snapshot()); err != nil {
		return rep{}, err
	}
	return rep{metrics: m, slices: cen.nsPerEvent(), attempted: int64(n), failed: c.failed.Load(), detail: detail}, nil
}

// simVector is the batch path the simulator and the experiments use:
// packing.Run, then Result.Verify, with vectorbestfit, d=2, keep-alive 0.5,
// uniform at rate 1100 (a peak of about 3.4k open servers).
func simVector(seed int64, scale float64) (rep, error) {
	jobs := scaled(vectorJobs, scale)
	var c checks

	// run times one packing.Run call.
	run := func(l item.List) (*packing.Result, time.Duration, error) {
		algo, err := packing.ByName("vectorbestfit")
		if err != nil {
			return nil, 0, err
		}
		start := time.Now()
		res, err := packing.Run(algo, l, &packing.Options{KeepAlive: 0.5})
		return res, time.Since(start), err
	}

	t0 := time.Now()
	l, err := workload.FromSpec("uniform", jobs, 1100, 10, seed, 2)
	if err != nil {
		return rep{}, err
	}
	setup := time.Since(t0)
	base := liveHeap()

	res, wall, err := run(l)
	if err != nil {
		return rep{}, err
	}
	heap := heapMB(base)

	// What a batch run leaves behind is its placement history; Verify
	// re-derives the packing and its objectives from that and checks them.
	start := time.Now()
	if err := res.Verify(); err != nil {
		c.fail("verify: %v", err)
	}
	recoverS := time.Since(start).Seconds()

	// Run takes a whole list, so its tenths cannot be timed from outside.
	// The head is a separate call on the first tenth of the arrivals.
	byArrival := slices.Clone(l)
	slices.SortStableFunc(byArrival, func(a, b item.Item) int {
		if a.Arrival < b.Arrival {
			return -1
		}
		if a.Arrival > b.Arrival {
			return 1
		}
		return 0
	})
	_, head, err := run(byArrival[:jobs/10])
	if err != nil {
		return rep{}, err
	}

	events := 2 * jobs
	callUS := float64(wall) / 1e3
	m := map[string]float64{
		"setup_s":      setup.Seconds(),
		"events_per_s": float64(events) / wall.Seconds(),
		"call_p50_us":  callUS,
		"call_p99_us":  callUS,
		"heap_live_mb": heap,
		"usage_ratio":  res.TotalUsage / lowerBound(l, math.Inf(1)),
		"recover_s":    recoverS,
	}
	detail := map[string]any{
		"events":       events,
		"call_samples": 1,
		"servers_used": res.NumBins(),
		"peak_servers": res.MaxConcurrentOpen,
	}
	headTail := []float64{float64(head) / float64(events/10), float64(wall) / float64(events)}
	return rep{metrics: m, slices: headTail, attempted: 1, failed: c.failed.Load(), detail: detail}, nil
}

// wireRig is an in-process wire.Server over a dispatcher on 127.0.0.1, and
// one client connection to it.
type wireRig struct {
	d      *serve.Dispatcher
	srv    *wire.Server
	served chan error
	client *wire.Client
}

func startWire(cfg serve.Config) (*wireRig, error) {
	d, err := serve.New(cfg)
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		d.Close()
		return nil, err
	}
	r := &wireRig{d: d, srv: wire.NewServer(d), served: make(chan error, 1)}
	go func() { r.served <- r.srv.Serve(ln) }()
	r.client, err = wire.Dial(ln.Addr().String(), wire.Options{Conns: 1})
	if err != nil {
		r.stop()
		return nil, err
	}
	return r, nil
}

// stop closes the client, the server and the dispatcher, and waits for the
// accept loop to end.
func (r *wireRig) stop() {
	if r.client != nil {
		r.client.Close()
	}
	r.srv.Close()
	<-r.served
	r.d.Close()
}

// serveWire runs 64 closed-loop callers, partitioned by job ID, over one
// wire.Client connection to an in-process wire.Server and dispatcher
// (firstfit, 2 shards, no WAL) on the server clock: uniform at rate 50,
// about 275 live jobs, so the fleet is tiny and transport dominates.
func serveWire(seed int64, scale float64) (rep, error) {
	n := scaled(wireOps, scale)
	var c checks

	t0 := time.Now()
	l, evs, err := script("uniform", n, 50, seed, 1)
	if err != nil {
		return rep{}, err
	}
	parts := partition(evs, l, wireCallers)
	lats := make([][]uint32, wireCallers)
	for i, p := range parts {
		lats[i] = make([]uint32, 0, len(p))
	}
	// applied holds the server-clock time each job's arrive and depart were
	// applied at; a job belongs to one caller, so writes do not race.
	applied := make([][2]float64, len(l))
	for i := range applied {
		applied[i] = [2]float64{math.NaN(), math.Inf(1)}
	}
	setup := time.Since(t0)
	base := liveHeap()
	t0 = time.Now()
	rig, err := startWire(serve.Config{Algorithm: "firstfit", Shards: serveShards})
	if err != nil {
		return rep{}, err
	}
	defer rig.stop()
	setup += time.Since(t0)

	cen := startCentiles(n)
	var wg sync.WaitGroup
	for i := range parts {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for _, e := range parts[i] {
				it := &l[e.job]
				var res wire.Result
				var err error
				start := time.Now()
				if e.depart {
					res, err = rig.client.Depart(it.ID, nil)
				} else {
					res, err = rig.client.Arrive(it.ID, it.Size, nil, nil)
				}
				lats[i] = append(lats[i], uint32(time.Since(start)))
				if err != nil {
					c.fail("job %d: %v", it.ID, err)
				} else if e.depart {
					applied[e.job][1] = res.Time
				} else {
					applied[e.job][0] = res.Time
				}
				cen.add(1)
			}
		}()
	}
	wg.Wait()
	accepted := int64(n) - c.failed.Load()

	st, err := rig.client.Stats()
	if err != nil {
		return rep{}, err
	}
	c.equal("Stats.Arrivals+Departures", int64(st.Arrivals+st.Departures), accepted)

	// The lower bound is taken over the schedule the server realised.
	var realised item.List
	tEnd := 0.0
	for i, a := range applied {
		if math.IsNaN(a[0]) {
			continue
		}
		realised = append(realised, item.Item{Size: l[i].Size, Arrival: a[0], Departure: a[1]})
		tEnd = max(tEnd, a[0])
		if !math.IsInf(a[1], 1) {
			tEnd = max(tEnd, a[1])
		}
	}

	m := map[string]float64{
		"setup_s":      setup.Seconds(),
		"events_per_s": float64(accepted) / cen.wall().Seconds(),
		"heap_live_mb": heapMB(base),
		"usage_ratio":  st.UsageTime / lowerBound(realised, tEnd),
	}
	detail := map[string]any{
		"events":        n,
		"open_servers":  st.OpenServers,
		"servers_used":  st.ServersUsed,
		"batch_mean":    float64(st.BatchOps) / float64(st.Batches),
		"server_p50_us": st.Latency["arrive"].P50US,
		"server_p99_us": st.Latency["arrive"].P99US,
	}
	latencyMetrics(m, detail, slices.Concat(lats...))
	snaps := make([]packing.Snapshot, serveShards)
	for i := range snaps {
		snaps[i] = rig.d.Snapshot(i)
	}
	if m["recover_s"], err = restore(&c, snaps...); err != nil {
		return rep{}, err
	}
	return rep{metrics: m, slices: cen.nsPerEvent(), attempted: int64(n), failed: c.failed.Load(), detail: detail}, nil
}

// shardState is what recovery must reproduce for one shard.
type shardState struct {
	Events, OpenServers, ServersUsed int
	Snapshot                         packing.Snapshot
}

func shardStates(d *serve.Dispatcher) []shardState {
	st := d.Stats()
	out := make([]shardState, len(st.PerShard))
	for i, sh := range st.PerShard {
		out[i] = shardState{sh.Events, sh.OpenServers, sh.ServersUsed, d.Snapshot(i)}
	}
	return out
}

// dirBytes sums the sizes of the regular files under dir.
func dirBytes(dir string) (int64, error) {
	var n int64
	err := filepath.WalkDir(dir, func(_ string, e fs.DirEntry, err error) error {
		if err != nil || !e.Type().IsRegular() {
			return err
		}
		info, err := e.Info()
		if err != nil {
			return err
		}
		n += info.Size()
		return nil
	})
	return n, err
}

// serveDurable drives a dispatcher in process (firstfit, 2 shards, WAL with
// fsync=off, a snapshot every 60k shard events, 4 MiB segments) from one
// caller per shard, each issuing ApplyBatch of 64 with the script's event
// times; then closes it and recovers it from the same directory. Uniform at
// rate 200, about 1.1k live jobs.
func serveDurable(seed int64, scale float64) (rep, error) {
	n := scaled(durableOps, scale)
	var c checks

	t0 := time.Now()
	l, evs, err := script("uniform", n, 200, seed, 1)
	if err != nil {
		return rep{}, err
	}
	lats := make([][]uint32, serveShards)
	for i := range lats {
		lats[i] = make([]uint32, 0, n/durableBatch+1)
	}
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return rep{}, err
	}
	dir, err := os.MkdirTemp(outDir, "durable-")
	if err != nil {
		return rep{}, err
	}
	defer os.RemoveAll(dir)
	cfg := serve.Config{
		Algorithm: "firstfit", Shards: serveShards,
		DataDir: dir, Fsync: "off", SnapshotEvery: snapshotEvery, SegmentBytes: segmentBytes,
	}
	setup := time.Since(t0)
	base := liveHeap()
	t0 = time.Now()
	d, err := serve.New(cfg)
	if err != nil {
		return rep{}, err
	}
	defer func() { d.Close() }()
	setup += time.Since(t0)

	// Caller i takes the jobs of shard i, so each shard sees one caller's
	// non-decreasing times and its state repeats exactly.
	cen := startCentiles(n)
	var wg sync.WaitGroup
	for shard := range serveShards {
		wg.Add(1)
		go func() {
			defer wg.Done()
			ops := make([]serve.BatchOp, 0, durableBatch)
			results := make([]serve.BatchResult, durableBatch)
			flush := func() {
				start := time.Now()
				d.ApplyBatch(ops, results)
				lats[shard] = append(lats[shard], uint32(time.Since(start)))
				for i := range ops {
					if err := results[i].Err; err != nil {
						c.fail("job %d: %v", ops[i].ID, err)
					}
				}
				cen.add(len(ops))
				ops = ops[:0]
			}
			for _, e := range evs {
				it := &l[e.job]
				if d.ShardFor(it.ID) != shard {
					continue
				}
				ops = append(ops, serve.BatchOp{Depart: e.depart, ID: it.ID, Size: it.Size, HasTime: true, Time: e.t})
				if len(ops) == durableBatch {
					flush()
				}
			}
			if len(ops) > 0 {
				flush()
			}
		}()
	}
	wg.Wait()
	accepted := int64(n) - c.failed.Load()

	st := d.Stats()
	c.equal("Stats.Arrivals+Departures", int64(st.Arrivals+st.Departures), accepted)
	before := shardStates(d)
	m := map[string]float64{
		"setup_s":      setup.Seconds(),
		"events_per_s": float64(accepted) / cen.wall().Seconds(),
		"heap_live_mb": heapMB(base),
		"usage_ratio":  st.UsageTime / lowerBound(l, evs[n-1].t),
	}
	detail := map[string]any{
		"events":       n,
		"open_servers": st.OpenServers,
		"servers_used": st.ServersUsed,
	}
	latencyMetrics(m, detail, slices.Concat(lats...))

	d.Close()
	if detail["disk_bytes"], err = dirBytes(dir); err != nil {
		return rep{}, err
	}
	start := time.Now()
	d, err = serve.New(cfg)
	if err != nil {
		return rep{}, fmt.Errorf("recovering %s: %w", dir, err)
	}
	c.equal("recovered shards", shardStates(d), before)
	m["recover_s"] = time.Since(start).Seconds()
	return rep{metrics: m, slices: cen.nsPerEvent(), attempted: int64(n), failed: c.failed.Load(), detail: detail}, nil
}
