package serve_test

import (
	"encoding/json"
	"errors"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"dbp/internal/item"
	"dbp/internal/packing"
	"dbp/internal/serve"
)

// durOp is one scripted event with an explicit timestamp, so a run is
// fully deterministic and a durable run can be compared float-for-float
// against an in-memory reference fed the same script.
type durOp struct {
	depart bool
	id     item.ID
	size   float64
	t      float64
}

// genDurOps scripts a workload of arrives, departs, and duplicate
// arrives (rejected events that still advance the shard clock and must
// journal as ticks), with enough time spread to expire keep-alive
// servers mid-run.
func genDurOps(n int, seed int64) []durOp {
	rng := rand.New(rand.NewSource(seed))
	ops := make([]durOp, 0, n)
	var live []item.ID
	now, next := 0.0, item.ID(1)
	for i := 0; i < n; i++ {
		now += rng.Float64() * 0.4
		switch {
		case len(live) > 3 && rng.Float64() < 0.35:
			j := rng.Intn(len(live))
			ops = append(ops, durOp{depart: true, id: live[j], t: now})
			live = append(live[:j], live[j+1:]...)
		case len(live) > 0 && rng.Float64() < 0.10:
			// Duplicate arrive: rejected after advancing the clock.
			ops = append(ops, durOp{id: live[rng.Intn(len(live))], size: 0.3, t: now})
		default:
			ops = append(ops, durOp{id: next, size: 0.05 + 0.5*rng.Float64(), t: now})
			live = append(live, next)
			next++
		}
	}
	return ops
}

// outcome is one op's observable result, compared across runs.
type outcome struct {
	server int
	flag   bool
	failed bool
}

func applyDurOps(t *testing.T, d *serve.Dispatcher, ops []durOp) []outcome {
	t.Helper()
	out := make([]outcome, len(ops))
	for i, o := range ops {
		at := o.t
		if o.depart {
			dep, err := d.Depart(o.id, &at)
			out[i] = outcome{server: dep.Server, flag: dep.Closed, failed: err != nil}
		} else {
			p, err := d.Arrive(o.id, o.size, nil, &at)
			out[i] = outcome{server: p.Server, flag: p.Opened, failed: err != nil}
		}
	}
	return out
}

func compareShards(t *testing.T, label string, got, want *serve.Dispatcher) {
	t.Helper()
	if got.NumShards() != want.NumShards() {
		t.Fatalf("%s: shard count %d != %d", label, got.NumShards(), want.NumShards())
	}
	for i := 0; i < got.NumShards(); i++ {
		g, w := got.Snapshot(i), want.Snapshot(i)
		if !reflect.DeepEqual(g, w) {
			t.Errorf("%s: shard %d snapshot diverged:\n got  %+v\n want %+v", label, i, g, w)
		}
	}
}

// TestDurableRecoveryAfterClose proves the clean-restart path: a durable
// dispatcher's state equals an in-memory reference's at every
// checkpoint, survives Close (which rolls a final snapshot before
// shutting lingering servers) and reopen bit-identically, and continues
// producing identical placements on the post-restart suffix.
func TestDurableRecoveryAfterClose(t *testing.T) {
	dir := t.TempDir()
	ops := genDurOps(800, 1)
	prefix, suffix := ops[:600], ops[600:]

	cfg := serve.Config{Algorithm: "firstfit", Shards: 4, KeepAlive: 0.5}
	ref, err := serve.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer ref.Close()

	dcfg := cfg
	dcfg.DataDir, dcfg.Fsync, dcfg.SnapshotEvery = dir, "off", 64
	d, err := serve.New(dcfg)
	if err != nil {
		t.Fatal(err)
	}
	refOut := applyDurOps(t, ref, prefix)
	durOut := applyDurOps(t, d, prefix)
	if !reflect.DeepEqual(refOut, durOut) {
		t.Fatalf("durable run diverged from in-memory reference on the prefix")
	}
	compareShards(t, "pre-close", d, ref)
	d.Close()

	d2, err := serve.New(dcfg)
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer d2.Close()
	compareShards(t, "recovered", d2, ref)
	if err := d2.DurabilityErr(); err != nil {
		t.Fatalf("recovered dispatcher reports durability error: %v", err)
	}

	refOut = applyDurOps(t, ref, suffix)
	durOut = applyDurOps(t, d2, suffix)
	if !reflect.DeepEqual(refOut, durOut) {
		t.Fatalf("recovered dispatcher diverged from reference on the suffix")
	}
	compareShards(t, "post-suffix", d2, ref)
}

// TestDurableRecoveryWithoutClose proves the crash path inside one
// process: with fsync=always every acknowledged event is on disk, so
// abandoning the dispatcher without Close (no final snapshot — the
// whole journal replays) and reopening the directory must rebuild every
// shard bit-identically.
func TestDurableRecoveryWithoutClose(t *testing.T) {
	dir := t.TempDir()
	ops := genDurOps(300, 2)

	cfg := serve.Config{Algorithm: "bestfit", Shards: 3, KeepAlive: 0.4}
	ref, err := serve.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer ref.Close()

	dcfg := cfg
	dcfg.DataDir, dcfg.Fsync = dir, "always"
	d, err := serve.New(dcfg)
	if err != nil {
		t.Fatal(err)
	}
	applyDurOps(t, ref, ops)
	applyDurOps(t, d, ops)
	// Crash: no Close, no final snapshot. The abandoned owner goroutines
	// idle on their queues; fsync=always already put every record on disk.
	d2, err := serve.New(dcfg)
	if err != nil {
		t.Fatalf("reopen after crash: %v", err)
	}
	defer d2.Close()
	compareShards(t, "crash-recovered", d2, ref)
}

// TestDurableTornTailDiscarded cuts bytes off the active segment's last
// record — the footprint of a crash mid-write — and checks recovery
// keeps exactly the valid prefix and accepts new traffic.
func TestDurableTornTailDiscarded(t *testing.T) {
	dir := t.TempDir()
	cfg := serve.Config{Algorithm: "firstfit", Shards: 1, DataDir: dir, Fsync: "always"}
	d, err := serve.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	const n = 50
	for i := 1; i <= n; i++ {
		at := float64(i)
		if _, err := d.Arrive(item.ID(i), 0.01, nil, &at); err != nil {
			t.Fatal(err)
		}
	}
	// Crash without Close, then tear the tail record.
	segs, err := filepath.Glob(filepath.Join(dir, "shard-0000", "*.wal"))
	if err != nil || len(segs) == 0 {
		t.Fatalf("no segment files: %v", err)
	}
	tail := segs[len(segs)-1]
	fi, err := os.Stat(tail)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(tail, fi.Size()-3); err != nil {
		t.Fatal(err)
	}
	d2, err := serve.New(cfg)
	if err != nil {
		t.Fatalf("reopen with torn tail: %v", err)
	}
	defer d2.Close()
	snap := d2.Snapshot(0)
	if snap.Events != n-1 {
		t.Fatalf("recovered %d events, want %d (torn final record discarded)", snap.Events, n-1)
	}
	at := float64(n + 1)
	if _, err := d2.Arrive(item.ID(n+1), 0.01, nil, &at); err != nil {
		t.Fatalf("arrive after torn-tail recovery: %v", err)
	}
}

// TestDurableMetaGuard proves a data directory refuses to open under a
// different configuration, naming the offending field.
func TestDurableMetaGuard(t *testing.T) {
	dir := t.TempDir()
	cfg := serve.Config{Algorithm: "firstfit", Shards: 2, KeepAlive: 0.25, DataDir: dir}
	d, err := serve.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	d.Close()
	for _, tc := range []struct {
		name   string
		mutate func(*serve.Config)
		want   string
	}{
		{"shards", func(c *serve.Config) { c.Shards = 3 }, "recorded shard count"},
		{"dim", func(c *serve.Config) { c.Dim = 2 }, "recorded dimension"},
		{"algorithm", func(c *serve.Config) { c.Algorithm = "bestfit" }, "recorded algorithm"},
		{"keepalive", func(c *serve.Config) { c.KeepAlive = 1 }, "recorded keep-alive"},
		{"capacity", func(c *serve.Config) { c.Capacity = 2 }, "recorded capacity"},
	} {
		bad := cfg
		tc.mutate(&bad)
		if _, err := serve.New(bad); err == nil {
			t.Errorf("%s: mismatched config opened the data dir", tc.name)
		} else if !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: error %q does not name %q", tc.name, err, tc.want)
		}
	}
	// The matching config still opens.
	d2, err := serve.New(cfg)
	if err != nil {
		t.Fatalf("matching config refused: %v", err)
	}
	d2.Close()
}

// sequentialJournals is the journal oracle: the ops fed one by one to a
// fresh packing.Stream per shard, routed as d routes them, with every
// accepted event recorded as the shard journals it.
func sequentialJournals(t *testing.T, d *serve.Dispatcher, cfg serve.Config, ops []durOp) [][]serve.Event {
	t.Helper()
	streams := make([]*packing.Stream, d.NumShards())
	for i := range streams {
		algo, err := packing.ByName(cfg.Algorithm)
		if err != nil {
			t.Fatal(err)
		}
		streams[i] = packing.NewStreamKeepAlive(algo, cfg.Capacity, cfg.Dim, cfg.KeepAlive)
	}
	out := make([][]serve.Event, d.NumShards())
	for _, o := range ops {
		i := d.ShardFor(o.id)
		if o.depart {
			if srv, _, err := streams[i].Depart(o.id, o.t); err == nil {
				out[i] = append(out[i], serve.Event{Kind: "depart", ID: o.id, Time: o.t, Server: srv})
			}
		} else if srv, _, err := streams[i].Arrive(o.id, o.size, nil, o.t); err == nil {
			out[i] = append(out[i], serve.Event{Kind: "arrive", ID: o.id, Size: o.size, Time: o.t, Server: srv})
		}
	}
	return out
}

// TestDurableShardEventsFromWAL proves the journal endpoint reads back
// from the WAL: identical to a sequential replay of the same ops (ticks
// for rejected events filtered out), and bounded by the segments
// snapshots have not yet made redundant.
func TestDurableShardEventsFromWAL(t *testing.T) {
	ops := genDurOps(400, 3)
	cfg := serve.Config{Algorithm: "firstfit", Shards: 2, KeepAlive: 0.3, DataDir: t.TempDir(), Fsync: "off"}
	d, err := serve.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	applyDurOps(t, d, ops)
	want := sequentialJournals(t, d, cfg, ops)
	for i := 0; i < cfg.Shards; i++ {
		if got := journal(t, d, i); !reflect.DeepEqual(got, want[i]) {
			t.Fatalf("shard %d: WAL-backed journal differs from sequential replay (%d vs %d events)", i, len(got), len(want[i]))
		}
	}

	// With periodic snapshots and small segments, the readable journal
	// is a suffix of the full journal, bounded by the snapshot cadence.
	scfg := cfg
	scfg.DataDir, scfg.SnapshotEvery, scfg.SegmentBytes = t.TempDir(), 32, 512
	ds, err := serve.New(scfg)
	if err != nil {
		t.Fatal(err)
	}
	defer ds.Close()
	applyDurOps(t, ds, ops)
	for i := 0; i < cfg.Shards; i++ {
		tailEvs, full := journal(t, ds, i), want[i]
		if len(tailEvs) >= len(full) {
			t.Fatalf("shard %d: snapshots did not bound the journal tail (%d >= %d)", i, len(tailEvs), len(full))
		}
		if !reflect.DeepEqual(tailEvs, full[len(full)-len(tailEvs):]) {
			t.Fatalf("shard %d: journal tail is not a suffix of the full journal", i)
		}
	}
}

// TestDurableStatsAndClock checks the durability gauge block and that
// the service clock resumes from the recovered stream time, so
// nil-time requests keep advancing instead of clamping.
func TestDurableStatsAndClock(t *testing.T) {
	dir := t.TempDir()
	cfg := serve.Config{Algorithm: "firstfit", Shards: 2, DataDir: dir, Fsync: "always", SnapshotEvery: 16}
	d, err := serve.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	const horizon = 100.0
	for i := 1; i <= 64; i++ {
		at := horizon * float64(i) / 64
		if _, err := d.Arrive(item.ID(i), 0.01, nil, &at); err != nil {
			t.Fatal(err)
		}
	}
	st := d.Stats()
	if st.Durability == nil {
		t.Fatal("stats missing durability block")
	}
	if st.Durability.Fsync != "always" || st.Durability.DataDir != dir {
		t.Fatalf("durability block misconfigured: %+v", st.Durability)
	}
	if st.Durability.WalBytes == 0 || st.Durability.WalSegments == 0 {
		t.Fatalf("durability gauges empty: %+v", st.Durability)
	}
	if st.Durability.FsyncLatency.Count == 0 {
		t.Fatal("fsync=always recorded no fsync latencies")
	}
	var journaled uint64
	for _, ps := range st.PerShard {
		if ps.JournalSeq != uint64(ps.Events) {
			t.Fatalf("shard %d: journal seq %d != events %d", ps.Shard, ps.JournalSeq, ps.Events)
		}
		journaled += ps.JournalSeq
	}
	if journaled != 64 {
		t.Fatalf("journaled %d records, want 64", journaled)
	}
	d.Close()

	d2, err := serve.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer d2.Close()
	p, err := d2.Arrive(item.ID(1000), 0.01, nil, nil) // service clock
	if err != nil {
		t.Fatal(err)
	}
	if p.Time < horizon {
		t.Fatalf("service clock did not resume: nil-time arrive applied at %g, want >= %g", p.Time, horizon)
	}
}

// TestUptimeAfterRecovery reopens a data dir whose stream clock reads
// 5000: the service clock resumes there, but uptime_seconds is this
// process's, so events_per_second divides this process's counts by
// this process's lifetime, not by the recovered clock.
func TestUptimeAfterRecovery(t *testing.T) {
	const recovered = 5000.0
	cfg := serve.Config{Shards: 1, DataDir: t.TempDir()}
	d, err := serve.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	at := recovered
	if _, err := d.Arrive(1, 0.5, nil, &at); err != nil {
		t.Fatal(err)
	}
	d.Close()

	d2, err := serve.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer d2.Close()
	if up := d2.Stats().UptimeSeconds; up >= recovered {
		t.Fatalf("uptime_seconds %g after reopening, want this process's uptime, below the recovered clock %g", up, recovered)
	}
	p, err := d2.Arrive(2, 0.25, nil, nil) // service clock
	if err != nil {
		t.Fatal(err)
	}
	if p.Time < recovered {
		t.Fatalf("nil-time arrive applied at %g, want the service clock to resume at >= %g", p.Time, recovered)
	}
}

// TestShardEventsCorruptSegment flips one byte in the middle of the
// active segment: ShardEvents must report the unreadable log instead of
// returning the records before the damage as the whole journal, and
// /v1/journal must answer 500 internal rather than 200 with a short list.
func TestShardEventsCorruptSegment(t *testing.T) {
	dir := t.TempDir()
	d, err := serve.New(serve.Config{Algorithm: "firstfit", Shards: 1, DataDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	const n = 10
	for i := 1; i <= n; i++ {
		at := float64(i)
		if _, err := d.Arrive(item.ID(i), 0.01, nil, &at); err != nil {
			t.Fatal(err)
		}
	}
	// Reading the journal flushes buffered appends to the segment file.
	if evs := journal(t, d, 0); len(evs) != n {
		t.Fatalf("journal has %d events before corruption, want %d", len(evs), n)
	}
	segs, err := filepath.Glob(filepath.Join(dir, "shard-0000", "*.wal"))
	if err != nil || len(segs) != 1 {
		t.Fatalf("want one segment file, got %v (%v)", segs, err)
	}
	data, err := os.ReadFile(segs[0])
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)/2] ^= 0xff
	if err := os.WriteFile(segs[0], data, 0o644); err != nil {
		t.Fatal(err)
	}

	if evs, err := d.ShardEvents(0); err == nil {
		t.Fatalf("corrupt segment read back as %d events with no error", len(evs))
	}
	srv := httptest.NewServer(serve.NewHandler(d))
	defer srv.Close()
	res, err := http.Get(srv.URL + "/v1/journal?shard=0")
	if err != nil {
		t.Fatal(err)
	}
	defer res.Body.Close()
	var body serve.ErrorResponse
	if err := json.NewDecoder(res.Body).Decode(&body); err != nil {
		t.Fatalf("journal endpoint: status %d, undecodable error body: %v", res.StatusCode, err)
	}
	if res.StatusCode != http.StatusInternalServerError || body.Code != "internal" {
		t.Fatalf("journal endpoint on a corrupt segment: status %d code %q, want 500 internal", res.StatusCode, body.Code)
	}
}

// TestShardEventsBadSealedHeader flips the magic of a sealed segment
// after the log is open: ShardEvents must refuse it exactly as
// reopening the log would, not serve the records behind the bad header.
func TestShardEventsBadSealedHeader(t *testing.T) {
	dir := t.TempDir()
	d, err := serve.New(serve.Config{Algorithm: "firstfit", Shards: 1, DataDir: dir, SegmentBytes: 64})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	const n = 6
	for i := 1; i <= n; i++ {
		at := float64(i)
		if _, err := d.Arrive(item.ID(i), 0.01, nil, &at); err != nil {
			t.Fatal(err)
		}
	}
	if evs := journal(t, d, 0); len(evs) != n {
		t.Fatalf("journal has %d events before corruption, want %d", len(evs), n)
	}
	segs, err := filepath.Glob(filepath.Join(dir, "shard-0000", "*.wal"))
	if err != nil || len(segs) < 2 {
		t.Fatalf("want a sealed segment and the active one, got %v (%v)", segs, err)
	}
	data, err := os.ReadFile(segs[0])
	if err != nil {
		t.Fatal(err)
	}
	data[0] ^= 0xff
	if err := os.WriteFile(segs[0], data, 0o644); err != nil {
		t.Fatal(err)
	}
	if evs, err := d.ShardEvents(0); err == nil || !strings.Contains(err.Error(), "bad segment header") {
		t.Fatalf("sealed segment with a bad header read back as %d events, err %v", len(evs), err)
	}
}

// TestDurableHTTPEndpoints exercises GET /v1/snapshot and /v1/journal.
func TestDurableHTTPEndpoints(t *testing.T) {
	cfg := serve.Config{Algorithm: "firstfit", Shards: 2, DataDir: t.TempDir()}
	d, err := serve.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	applyDurOps(t, d, genDurOps(100, 4))
	srv := httptest.NewServer(serve.NewHandler(d))
	defer srv.Close()

	res, err := http.Get(srv.URL + "/v1/snapshot?shard=0")
	if err != nil {
		t.Fatal(err)
	}
	var snap packing.Snapshot
	if err := json.NewDecoder(res.Body).Decode(&snap); err != nil {
		t.Fatal(err)
	}
	res.Body.Close()
	if res.StatusCode != http.StatusOK || snap.Events == 0 {
		t.Fatalf("snapshot endpoint: status %d, events %d", res.StatusCode, snap.Events)
	}
	if want := d.Snapshot(0); !reflect.DeepEqual(snap, want) {
		t.Fatalf("snapshot endpoint returned a different snapshot than the Go API")
	}

	res, err = http.Get(srv.URL + "/v1/journal?shard=1")
	if err != nil {
		t.Fatal(err)
	}
	var evs []serve.Event
	if err := json.NewDecoder(res.Body).Decode(&evs); err != nil {
		t.Fatal(err)
	}
	res.Body.Close()
	if res.StatusCode != http.StatusOK || len(evs) == 0 {
		t.Fatalf("journal endpoint: status %d, %d events", res.StatusCode, len(evs))
	}

	for _, bad := range []string{"/v1/snapshot", "/v1/snapshot?shard=9", "/v1/journal?shard=x"} {
		res, err := http.Get(srv.URL + bad)
		if err != nil {
			t.Fatal(err)
		}
		res.Body.Close()
		if res.StatusCode != http.StatusBadRequest {
			t.Errorf("GET %s: status %d, want 400", bad, res.StatusCode)
		}
	}
}

// TestGroupFailStop poisons a shard mid-envelope: with the shard's
// directory gone, the rotation after the envelope's group cannot create
// the next segment. Every op of that envelope the stream accepted must
// read ErrDurability and go uncounted, a duplicate arrive keeps its own
// class, and the next call is refused.
func TestGroupFailStop(t *testing.T) {
	dir := t.TempDir()
	d, err := serve.New(serve.Config{Algorithm: "firstfit", Shards: 1, DataDir: dir, SegmentBytes: 64})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	if err := os.RemoveAll(filepath.Join(dir, "shard-0000")); err != nil {
		t.Fatal(err)
	}
	at := 1.0
	if _, err := d.Arrive(1, 0.1, nil, &at); err != nil { // one record: no rotation yet
		t.Fatalf("arrive before rotation: %v", err)
	}
	ops := []serve.BatchOp{
		{ID: 2, Size: 0.2, HasTime: true, Time: 2},
		{ID: 1, Size: 0.3, HasTime: true, Time: 3}, // duplicate: journals a tick
		{Depart: true, ID: 1, HasTime: true, Time: 4},
		{ID: 3, Size: 0.4, HasTime: true, Time: 5},
	}
	res := make([]serve.BatchResult, len(ops))
	d.ApplyBatch(ops, res)
	for i, r := range res {
		want := "durability_failed"
		if i == 1 {
			want = "duplicate_job"
		}
		if got := serve.ClassOf(r.Err).Code(); got != want {
			t.Fatalf("op %d: %v (%s), want %s", i, r.Err, got, want)
		}
		if want == "durability_failed" && !errors.Is(r.Err, serve.ErrDurability) {
			t.Fatalf("op %d: %v does not wrap ErrDurability", i, r.Err)
		}
	}
	st := d.Stats()
	if st.Arrivals != 1 || st.Departures != 0 {
		t.Fatalf("counted %d arrivals, %d departures; want only the one before the failed group", st.Arrivals, st.Departures)
	}
	if n := st.Rejected["durability_failed"]; n != 3 {
		t.Fatalf("stats count %d durability_failed rejections, want 3", n)
	}
	at = 6
	if _, err := d.Arrive(4, 0.1, nil, &at); !errors.Is(err, serve.ErrDurability) {
		t.Fatalf("arrive after the failed group: %v, want ErrDurability", err)
	}
}

// TestGroupCommitOneFsyncPerEnvelope pins group commit: under
// fsync=always, each ApplyBatch of 64 ops to one shard is journaled
// with exactly one fsync.
func TestGroupCommitOneFsyncPerEnvelope(t *testing.T) {
	d, err := serve.New(serve.Config{Algorithm: "firstfit", Shards: 1, DataDir: t.TempDir(), Fsync: "always"})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	const calls, batch = 20, 64
	ops := make([]serve.BatchOp, batch)
	res := make([]serve.BatchResult, batch)
	for c := range calls {
		for i := range ops {
			id := c*batch + i
			ops[i] = serve.BatchOp{ID: item.ID(id), Size: 0.01, HasTime: true, Time: float64(id)}
		}
		d.ApplyBatch(ops, res)
		for i, r := range res {
			if r.Err != nil {
				t.Fatalf("call %d op %d: %v", c, i, r.Err)
			}
		}
	}
	st := d.Stats()
	if st.Arrivals != calls*batch {
		t.Fatalf("counted %d arrivals, want %d", st.Arrivals, calls*batch)
	}
	if n := st.Durability.FsyncLatency.Count; n != calls {
		t.Fatalf("%d fsyncs for %d envelopes of %d ops, want one per envelope", n, calls, batch)
	}
}
