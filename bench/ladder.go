package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"slices"
	"strconv"
	"sync"
	"time"

	"dbp/internal/bins"
	"dbp/internal/item"
	"dbp/internal/packing"
	"dbp/internal/serve"
	"dbp/internal/wal"
	"dbp/internal/wire"
	"dbp/internal/workload"
)

// The layer ladder replays one script, the serve_wire script, into each
// layer's public functions in turn, from bins up to wire and http, with a span
// around every call. A layer's self time is the difference between its rung
// and the rung below. Every rung's calls are made by one caller.
const (
	ladderEvents        = 200_000
	ladderSnapshotEvery = 20_000
	fsyncEvents         = 5_000
	httpEvents          = 20_000
	openLoopRate        = 20_000
	openLoopOps         = 100_000
	codecChunk          = 1_000
)

// span is one call into a layer: which rung made it, which of the rung's
// calls it was, when it began (nanoseconds since the ladder began) and how
// long it took. The rung is the span that caused it.
type span struct {
	rung, call uint8
	dur, start int64
}

type rung struct {
	Name  string   `json:"name"`
	Layer string   `json:"layer"`
	Calls []string `json:"calls"`
}

type ladder struct {
	began   time.Time
	rungs   []rung
	spans   []span
	prev    int64 // when the last span ended
	quiet   bool  // record no span per call
	selfSum float64

	metrics           map[string]float64
	attempted, failed int64
}

// enter starts a rung; its first span begins now.
func (ld *ladder) enter(name, layer string, calls ...string) {
	ld.rungs = append(ld.rungs, rung{name, layer, calls})
	ld.prev = int64(time.Since(ld.began))
}

// mark ends a span of the current rung at now, unless the pass is quiet.
func (ld *ladder) mark(call uint8) {
	if !ld.quiet {
		ld.span(call)
	}
}

// span ends a span of the current rung at now; the next begins where it
// ended, so a call costs one reading of the clock.
func (ld *ladder) span(call uint8) {
	now := int64(time.Since(ld.began))
	ld.spans = append(ld.spans, span{uint8(len(ld.rungs) - 1), call, now - ld.prev, ld.prev})
	ld.prev = now
}

// total returns the nanoseconds and the number of the named rung's spans of
// the given calls, all calls when none is given.
func (ld *ladder) total(name string, calls ...uint8) (ns float64, n int) {
	r := slices.IndexFunc(ld.rungs, func(r rung) bool { return r.Name == name })
	for _, s := range ld.spans {
		if int(s.rung) == r && (len(calls) == 0 || slices.Contains(calls, s.call)) {
			ns += float64(s.dur)
			n++
		}
	}
	return ns, n
}

// fastest makes a pass of rungs three times and keeps, for every span, its
// shortest duration over the passes. A replay makes the same calls each
// time, so what differs between passes is the collector and the
// neighbours, not the layer.
func (ld *ladder) fastest(pass func() error) error {
	rungs, spans := len(ld.rungs), len(ld.spans)
	if err := pass(); err != nil {
		return err
	}
	keepRungs, keepSpans := len(ld.rungs), len(ld.spans)
	first := ld.spans[spans:keepSpans]
	for range 2 {
		if err := pass(); err != nil {
			return err
		}
		again := ld.spans[keepSpans:]
		if len(again) != len(first) || len(ld.rungs)-keepRungs != keepRungs-rungs {
			return fmt.Errorf("ladder: a pass of %s made %d calls, the one before %d", ld.rungs[rungs].Name, len(again), len(first))
		}
		for i := range first {
			first[i].dur = min(first[i].dur, again[i].dur)
		}
		ld.rungs, ld.spans = ld.rungs[:keepRungs], ld.spans[:keepSpans]
	}
	return nil
}

// ok counts a call or a check and passes its outcome on; fail reports one
// that did not hold. They are apart so that a call that succeeds boxes no
// arguments: the rungs count allocations.
func (ld *ladder) ok(ok bool) bool {
	ld.attempted++
	return ok
}

func (ld *ladder) fail(format string, args ...any) {
	if ld.failed++; ld.failed <= 5 {
		fmt.Fprintf(os.Stderr, "bench: ladder check failed: "+format+"\n", args...)
	}
}

// mallocs returns the objects and the bytes allocated so far.
func mallocs() (objects, bytes float64) {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return float64(m.Mallocs), float64(m.TotalAlloc)
}

// streamRung replays the script into a packing.Stream and returns the server
// each arrival was placed on and the wall time.
func (ld *ladder) streamRung(name string, l item.List, evs []event) ([]int32, time.Duration, error) {
	algo, err := packing.ByName("firstfit")
	if err != nil {
		return nil, 0, err
	}
	s, err := packing.NewStreamEngine(algo, 1, 1, 0, packing.EngineIndexed)
	if err != nil {
		return nil, 0, err
	}
	placed := make([]int32, len(evs))
	runtime.GC() // so that no pass pays for collecting the one before it
	ld.enter(name, "packing", "arrive", "depart")
	start := time.Now()
	for i, e := range evs {
		it := &l[e.job]
		if e.depart {
			_, _, err = s.Depart(it.ID, e.t)
			ld.mark(1)
		} else {
			var server int
			server, _, err = s.Arrive(it.ID, it.Size, nil, e.t)
			ld.mark(0)
			placed[i] = int32(server)
		}
		if !ld.ok(err == nil) {
			ld.fail("%s event %d: %v", name, i, err)
		}
	}
	return placed, time.Since(start), nil
}

// ledgerRung replays recorded placements straight into a bins.Ledger, asking
// the index for the first fitting server before each arrival and checking
// the answer against the recorded one. With tenths it records a span per
// tenth of the script; the caller quiets the spans per call.
func (ld *ladder) ledgerRung(name string, l item.List, evs []event, placed []int32, tenths bool) {
	g := bins.NewLedger(1, 1)
	g.EnableIndex()
	ix := g.Index()
	ld.enter(name, "bins", "query", "place", "remove", "tenth")
	for i, e := range evs {
		it := l[e.job]
		if e.depart {
			g.Remove(it.ID, e.t)
			ld.mark(2)
		} else {
			b := ix.FirstFitting(it.Size - bins.Eps)
			ld.mark(0)
			if b == nil {
				b = g.OpenNew(it, e.t)
			} else {
				g.PlaceIn(b, it, e.t)
			}
			ld.mark(1)
			if !ld.ok(b.Index == int(placed[i])) {
				ld.fail("%s event %d: FirstFitting chose server %d, the stream %d", name, i, b.Index, placed[i])
			}
		}
		if tenths && (i+1)%(len(evs)/10) == 0 {
			ld.span(3)
		}
	}
}

// dispatcherRung replays the script into a dispatcher, one Arrive or Depart
// at a time or, with batch above 1, by ApplyBatch of that many ops, and
// returns it still open.
func (ld *ladder) dispatcherRung(name, layer string, cfg serve.Config, l item.List, evs []event, batch int) (*serve.Dispatcher, time.Duration, error) {
	d, err := serve.New(cfg)
	if err != nil {
		return nil, 0, err
	}
	ops := make([]serve.BatchOp, 0, batch)
	results := make([]serve.BatchResult, batch)
	ld.enter(name, layer, "arrive", "depart", "ApplyBatch")
	start := time.Now()
	for i, e := range evs {
		it, t := &l[e.job], e.t
		switch {
		case batch > 1:
			ops = append(ops, serve.BatchOp{Depart: e.depart, ID: it.ID, Size: it.Size, HasTime: true, Time: t})
			if len(ops) < batch && i < len(evs)-1 {
				continue
			}
			d.ApplyBatch(ops, results)
			ld.mark(2)
			for j := range ops {
				if !ld.ok(results[j].Err == nil) {
					ld.fail("%s job %d: %v", name, ops[j].ID, results[j].Err)
				}
			}
			ops = ops[:0]
			continue
		case e.depart:
			_, err = d.Depart(it.ID, &t)
			ld.mark(1)
		default:
			_, err = d.Arrive(it.ID, it.Size, nil, &t)
			ld.mark(0)
		}
		if !ld.ok(err == nil) {
			ld.fail("%s event %d: %v", name, i, err)
		}
	}
	return d, time.Since(start), nil
}

func runLadder(seed int64, scale float64) (*ladder, error) {
	n := scaled(ladderEvents, scale)
	ld := &ladder{began: time.Now(), metrics: map[string]float64{}, spans: make([]span, 0, 9*n)}
	m := ld.metrics
	perEvent := func(rung string, calls ...uint8) float64 {
		ns, _ := ld.total(rung, calls...)
		return ns / float64(n)
	}
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return nil, err
	}
	dataDir, err := os.MkdirTemp(outDir, "ladder-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dataDir)

	ld.enter("workload.gen", "workload", "FromSpec")
	l, err := workload.FromSpec("uniform", n*6/10, 50, 10, seed, 1)
	if err != nil {
		return nil, err
	}
	ld.mark(0)
	m["workload.gen_ns_per_job"] = perEvent("workload.gen") * float64(n) / float64(len(l))
	evs := flatten(l)[:n]

	// packing, without spans and with.
	var placed []int32
	var objects, allocated, after, afterBytes float64
	untraced, traced := time.Duration(math.MaxInt64), time.Duration(math.MaxInt64)
	err = ld.fastest(func() error {
		ld.quiet = true
		_, wall, err := ld.streamRung("packing.untraced", l, evs)
		if err != nil {
			return err
		}
		untraced = min(untraced, wall)
		ld.quiet = false
		objects, _ = mallocs()
		placed, wall, err = ld.streamRung("packing.stream", l, evs)
		after, _ = mallocs()
		traced = min(traced, wall)
		return err
	})
	if err != nil {
		return nil, err
	}
	stream := perEvent("packing.stream")
	arrive, arrives := ld.total("packing.stream", 0)
	depart, departs := ld.total("packing.stream", 1)
	m["packing.arrive_ns"] = arrive / float64(arrives)
	m["packing.depart_ns"] = depart / float64(departs)
	m["packing.allocs_per_event"] = (after - objects) / float64(n)
	m["trace.overhead_pct"] = 100 * (1 - float64(untraced)/float64(traced))

	// bins, under the same placements.
	err = ld.fastest(func() error {
		objects, allocated = mallocs()
		ld.ledgerRung("bins.ledger", l, evs, placed, false)
		after, afterBytes = mallocs()
		return nil
	})
	if err != nil {
		return nil, err
	}
	query, queries := ld.total("bins.ledger", 0)
	m["bins.ledger_ns_per_event"] = perEvent("bins.ledger", 1, 2)
	m["bins.query_ns"] = query / float64(queries)
	m["bins.allocs_per_event"] = (after - objects) / float64(n)
	m["bins.bytes_per_event"] = (afterBytes - allocated) / float64(n)
	m["packing.self_ns_per_event"] = stream - perEvent("bins.ledger")

	// bins over the engine_soak script, by tenth.
	soakN := scaled(soakEvents, scale)
	soakList, soakEvs, err := script("zipfian", soakN, 600, seed, 1)
	if err != nil {
		return nil, err
	}
	ld.quiet = true
	soakPlaced, _, err := ld.streamRung("packing.soak", soakList, soakEvs)
	if err != nil {
		return nil, err
	}
	ld.ledgerRung("bins.soak", soakList, soakEvs, soakPlaced, true)
	ld.quiet = false
	tenth := ld.spans[len(ld.spans)-10:]
	m["bins.ns_per_event_decile1"] = float64(tenth[0].dur) / float64(soakN/10)
	m["bins.ns_per_event_decile10"] = float64(tenth[9].dur) / float64(soakN/10)

	// serve: single calls, then ApplyBatch of 64 as serve_durable issues.
	cfg := serve.Config{Algorithm: "firstfit", Shards: serveShards}
	// closed runs a dispatcher rung three times, closing each dispatcher.
	closed := func(name, layer string, cfg serve.Config, batch int, then func(*serve.Dispatcher)) error {
		return ld.fastest(func() error {
			os.RemoveAll(cfg.DataDir)
			objects, _ = mallocs()
			d, _, err := ld.dispatcherRung(name, layer, cfg, l, evs, batch)
			if err != nil {
				return err
			}
			after, _ = mallocs()
			if then != nil {
				then(d)
			}
			d.Close()
			return nil
		})
	}
	if err := closed("serve.single", "serve", cfg, 1, nil); err != nil {
		return nil, err
	}
	single := perEvent("serve.single")
	m["serve.single_self_ns"] = single - stream
	m["serve.allocs_per_op"] = (after - objects) / float64(n)
	if err := closed("serve.batch", "serve", cfg, durableBatch, nil); err != nil {
		return nil, err
	}
	batched := perEvent("serve.batch")
	m["serve.batch_self_ns_per_op"] = batched - stream

	// serve under serve_wire's 64 callers: the dispatcher's own figures.
	ld.enter("serve.wire64", "serve", "serve_wire")
	r, err := serveWire(seed, scale)
	if err != nil {
		return nil, err
	}
	ld.mark(0)
	ld.attempted += r.attempted
	ld.failed += r.failed
	m["serve.batch_mean"] = r.detail["batch_mean"].(float64)
	m["serve.server_p50_us"] = r.detail["server_p50_us"].(float64)
	m["serve.server_p99_us"] = r.detail["server_p99_us"].(float64)

	// wal: the log alone, then under the dispatcher's ApplyBatch of 64.
	lg, err := wal.Open(filepath.Join(dataDir, "log"), wal.Options{})
	if err != nil {
		return nil, err
	}
	objects, _ = mallocs()
	ld.enter("wal.append", "wal", "Append")
	for i, e := range evs {
		it := &l[e.job]
		rec := wal.Record{Kind: wal.KindArrive, ID: int64(it.ID), Time: e.t, Server: placed[i], Size: it.Size}
		if e.depart {
			rec = wal.Record{Kind: wal.KindDepart, ID: int64(it.ID), Time: e.t}
		}
		err := lg.Append(&rec)
		ld.mark(0)
		if !ld.ok(err == nil) {
			ld.fail("wal.append %d: %v", i, err)
		}
	}
	after, _ = mallocs()
	err = lg.Sync()
	if !ld.ok(err == nil && lg.Stats().NextSeq == uint64(n)) {
		ld.fail("wal.append: synced %d records of %d: %v", lg.Stats().NextSeq, n, err)
	}
	if err := lg.Close(); err != nil {
		return nil, err
	}
	m["wal.append_ns"] = perEvent("wal.append")
	m["wal.allocs_per_append"] = (after - objects) / float64(n)

	durable := cfg
	durable.DataDir, durable.Fsync = filepath.Join(dataDir, "plain"), "off"
	var before []shardState
	err = closed("wal.dispatcher", "wal", durable, durableBatch, func(d *serve.Dispatcher) {
		m["wal.disk_bytes_per_event"] = float64(d.Stats().Durability.WalBytes) / float64(n)
		before = shardStates(d)
	})
	if err != nil {
		return nil, err
	}
	m["wal.self_ns_per_op"] = perEvent("wal.dispatcher") - batched
	ld.enter("wal.recover", "wal", "serve.New")
	d, err := serve.New(durable)
	if err != nil {
		return nil, err
	}
	if !ld.ok(reflect.DeepEqual(shardStates(d), before)) {
		ld.fail("wal.recover: shards differ from before Close")
	}
	ld.mark(0)
	d.Close()
	m["wal.recover_ms_per_kevent"] = perEvent("wal.recover") / 1e3

	snapshots := durable
	snapshots.DataDir, snapshots.SnapshotEvery = filepath.Join(dataDir, "snapshots"), scaled(ladderSnapshotEvery, scale)
	taken := 0
	err = closed("wal.snapshots", "wal", snapshots, durableBatch, func(d *serve.Dispatcher) {
		taken = 0
		for _, sh := range d.Stats().PerShard {
			taken += sh.Events / snapshots.SnapshotEvery
		}
	})
	if err != nil {
		return nil, err
	}
	ns, _ := ld.total("wal.snapshots")
	plain, _ := ld.total("wal.dispatcher")
	m["wal.snapshot_ms"] = (ns - plain) / 1e6 / float64(taken)

	always := durable
	always.DataDir, always.Fsync = filepath.Join(dataDir, "always"), "always"
	synced := evs[:scaled(fsyncEvents, scale)]
	d, wall, err := ld.dispatcherRung("wal.fsync_always", "wal", always, l, synced, durableBatch)
	if err != nil {
		return nil, err
	}
	fsync := d.Stats().Durability.FsyncLatency
	d.Close()
	m["wal.fsyncs_per_event"] = float64(fsync.Count) / float64(len(synced))
	m["wal.fsync_p50_us"] = fsync.P50US
	m["wal.sync_events_per_s"] = float64(len(synced)) / wall.Seconds()

	// wire: the codec alone, then one caller with one op in flight.
	objects, _ = mallocs()
	ld.enter("wire.codec", "wire", "chunk")
	var buf []byte
	for lo := 0; lo < n; lo += codecChunk {
		chunk := evs[lo:min(lo+codecChunk, n)]
		buf = buf[:0]
		for _, e := range chunk {
			it := &l[e.job]
			op := wire.Op{Kind: wire.OpArrive, ID: int64(it.ID), Size: it.Size, Time: e.t, HasTime: true}
			if e.depart {
				op = wire.Op{Kind: wire.OpDepart, ID: int64(it.ID), Time: e.t, HasTime: true}
			}
			buf = wire.AppendOp(buf, &op)
		}
		rest, decoded := buf, 0
		for len(rest) > 0 {
			var op wire.Op
			k, err := wire.DecodeOp(rest, &op)
			if err != nil {
				break
			}
			rest, decoded = rest[k:], decoded+1
		}
		buf = buf[:0]
		for i := range chunk {
			buf = wire.AppendResult(buf, &wire.Result{Server: int32(i), Time: chunk[i].t})
		}
		for rest = buf; len(rest) > 0; decoded++ {
			var res wire.Result
			k, err := wire.DecodeResult(rest, &res)
			if err != nil {
				break
			}
			rest = rest[k:]
		}
		ld.mark(0)
		if !ld.ok(decoded == 2*len(chunk)) {
			ld.fail("wire.codec: decoded %d of %d", decoded, 2*len(chunk))
		}
	}
	after, _ = mallocs()
	m["wire.codec_ns_per_op"] = perEvent("wire.codec")
	m["wire.codec_allocs_per_op"] = (after - objects) / float64(n)

	rig, err := startWire(cfg)
	if err != nil {
		return nil, err
	}
	ld.enter("wire.rtt", "wire", "arrive", "depart")
	for i, e := range evs {
		it, t := &l[e.job], e.t
		if e.depart {
			_, err = rig.client.Depart(it.ID, &t)
			ld.mark(1)
		} else {
			_, err = rig.client.Arrive(it.ID, it.Size, nil, &t)
			ld.mark(0)
		}
		if !ld.ok(err == nil) {
			ld.fail("wire.rtt event %d: %v", i, err)
		}
	}
	rig.stop()
	rtt := perEvent("wire.rtt")
	m["wire.rtt_us"] = rtt / 1e3
	m["wire.self_us"] = (rtt - single) / 1e3
	ld.selfSum = perEvent("bins.ledger") + m["packing.self_ns_per_event"] + m["serve.single_self_ns"] + rtt - single

	if err := ld.openLoop(cfg, l, evs[:scaled(openLoopOps, scale)]); err != nil {
		return nil, err
	}
	if err := ld.httpRung(cfg, l, evs[:scaled(httpEvents, scale)]); err != nil {
		return nil, err
	}
	m["http.self_us"] = m["http.rtt_us"] - single/1e3
	return ld, nil
}

// openLoop sends the script at a fixed rate whatever the replies do: op i is
// due i/rate after the start, each of 64 callers sleeps until its next op is
// due, and an op is timed from when it was due.
func (ld *ladder) openLoop(cfg serve.Config, l item.List, evs []event) error {
	rig, err := startWire(cfg)
	if err != nil {
		return err
	}
	defer rig.stop()
	due := make([][2]time.Duration, len(l)) // per job: arrive, depart
	for i, e := range evs {
		due[e.job][btoi(e.depart)] = time.Duration(i) * time.Second / openLoopRate
	}
	parts := partition(evs, l, wireCallers)
	lats := make([][]float64, wireCallers)
	lates := make([]float64, wireCallers)
	errs := make([]int64, wireCallers)
	ld.enter("wire.open20k", "wire", "run")
	start := time.Now()
	var wg sync.WaitGroup
	for c, part := range parts {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for _, e := range part {
				it := &l[e.job]
				at := start.Add(due[e.job][btoi(e.depart)])
				time.Sleep(time.Until(at))
				lates[c] += max(0, float64(time.Since(at)))
				var err error
				if e.depart {
					_, err = rig.client.Depart(it.ID, nil)
				} else {
					_, err = rig.client.Arrive(it.ID, it.Size, nil, nil)
				}
				lats[c] = append(lats[c], float64(time.Since(at)))
				if err != nil {
					errs[c]++
				}
			}
		}()
	}
	wg.Wait()
	ld.mark(0)
	all := slices.Concat(lats...)
	slices.Sort(all)
	late, failed := 0.0, int64(0)
	for c := range parts {
		late += lates[c]
		failed += errs[c]
	}
	ld.attempted += int64(len(evs))
	ld.failed += failed
	ld.metrics["wire.open20k_p50_us"] = percentile(all, 0.50) / 1e3
	ld.metrics["wire.open20k_p99_us"] = percentile(all, 0.99) / 1e3
	ld.metrics["wire.open20k_late_us"] = late / float64(len(evs)) / 1e3
	return nil
}

func btoi(b bool) int {
	if b {
		return 1
	}
	return 0
}

// httpRung replays the script over one keep-alive connection to
// serve.NewHandler.
func (ld *ladder) httpRung(cfg serve.Config, l item.List, evs []event) error {
	d, err := serve.New(cfg)
	if err != nil {
		return err
	}
	defer d.Close()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	srv := &http.Server{Handler: serve.NewHandler(d)}
	served := make(chan error, 1)
	go func() { served <- srv.Serve(ln) }()
	defer func() {
		srv.Close()
		<-served
	}()
	transport := &http.Transport{MaxConnsPerHost: 1}
	defer transport.CloseIdleConnections()
	client := &http.Client{Transport: transport}
	base := "http://" + ln.Addr().String()

	ld.enter("http.rtt", "http", "arrive", "depart")
	for i, e := range evs {
		it, t := &l[e.job], e.t
		path, body := "/v1/arrive", any(serve.ArriveRequest{ID: it.ID, Size: it.Size, Time: &t})
		if e.depart {
			path, body = "/v1/depart", serve.DepartRequest{ID: it.ID, Time: &t}
		}
		b, err := json.Marshal(body)
		if err != nil {
			return err
		}
		resp, err := client.Post(base+path, "application/json", bytes.NewReader(b))
		if err == nil {
			_, err = io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if err == nil && resp.StatusCode != http.StatusOK {
				err = fmt.Errorf("status %d", resp.StatusCode)
			}
		}
		ld.mark(uint8(btoi(e.depart)))
		if !ld.ok(err == nil) {
			ld.fail("http.rtt event %d: %v", i, err)
		}
	}
	ns, calls := ld.total("http.rtt")
	ld.metrics["http.rtt_us"] = ns / float64(calls) / 1e3
	return nil
}

// selfSumOverRTT returns the rungs' self times for one wire round trip, bins
// plus packing plus serve plus wire, over the round trip measured.
func (ld *ladder) selfSumOverRTT() float64 { return ld.selfSum / (1e3 * ld.metrics["wire.rtt_us"]) }

// writeTrace writes every span, by rung, to out/trace.json.
func (ld *ladder) writeTrace(env environment) error {
	f, err := os.Create(filepath.Join(outDir, "trace.json"))
	if err != nil {
		return err
	}
	defer f.Close()
	w := bufio.NewWriterSize(f, 1<<20)
	head, err := json.Marshal(struct {
		Environment environment        `json:"environment"`
		Metrics     map[string]float64 `json:"metrics"`
		Note        string             `json:"note"`
	}{env, ld.metrics, "a span is [call, start_ns, duration_ns]; call indexes the rung's calls; the rung is the span that caused it"})
	if err != nil {
		return err
	}
	w.Write(head[:len(head)-1])
	w.WriteString(`,"rungs":[`)
	var num []byte
	for r, info := range ld.rungs {
		if r > 0 {
			w.WriteByte(',')
		}
		b, err := json.Marshal(info)
		if err != nil {
			return err
		}
		w.Write(b[:len(b)-1])
		w.WriteString(`,"spans":[`)
		first := true
		for _, s := range ld.spans {
			if int(s.rung) != r {
				continue
			}
			if !first {
				w.WriteByte(',')
			}
			first = false
			num = append(num[:0], '[')
			num = strconv.AppendInt(num, int64(s.call), 10)
			num = append(num, ',')
			num = strconv.AppendInt(num, s.start, 10)
			num = append(num, ',')
			num = strconv.AppendInt(num, s.dur, 10)
			w.Write(append(num, ']'))
		}
		w.WriteString("]}")
	}
	w.WriteString("]}\n")
	if err := w.Flush(); err != nil {
		return err
	}
	return f.Close()
}
