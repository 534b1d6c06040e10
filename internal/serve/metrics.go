package serve

import (
	"expvar"
	"sync/atomic"
	"time"

	"dbp/internal/load/hist"
)

// metrics is the dispatcher's lock-free counter core. Counters are
// plain atomics bumped by the shard owners; gauges derived from stream
// state (usage time, open servers) are published by each owner as an
// atomic per-shard snapshot, so Stats never touches a shard's stream.
// Latency histograms (one per op type, log-bucketed, shared across
// shards) are recorded with atomics on the request path — see
// internal/load/hist.
type metrics struct {
	arrivals      atomic.Uint64
	departures    atomic.Uint64
	serversOpened atomic.Uint64
	serversClosed atomic.Uint64

	// batches/batchOps count ApplyBatch calls and the ops they carried
	// (accepted and rejected alike) — over the wire, one call per group
	// of Batch frames the server found buffered together, not one per
	// frame; batchOps/batches is the realized mean batch size, the
	// transport's channel-hop amortization factor.
	batches  atomic.Uint64
	batchOps atomic.Uint64

	// rejected counts rejections by Class (ClassOK's slot stays 0).
	rejected [NumClasses]atomic.Uint64

	latArrive *hist.Hist
	latDepart *hist.Hist
	// latFsync digests every fsync on the WAL append path, across
	// shards: the price of fsync=always (or each interval flush) that
	// the durability benchmarks compare against fsync=off.
	latFsync *hist.Hist
}

// init allocates the latency histograms (called once by New).
func (m *metrics) init() {
	m.latArrive = hist.New()
	m.latDepart = hist.New()
	m.latFsync = hist.New()
}

// observeFsync records one WAL fsync's duration (every shard log's
// SyncObserver).
func (m *metrics) observeFsync(d time.Duration) { m.latFsync.Record(d) }

// observe records the service time of one dispatch call's arrivals
// and departures, every op of the call alike — dispatch, shard queue
// wait, and stream work included; rejected requests count too (they
// occupied the shard owner just the same).
func (m *metrics) observe(start time.Time, arrivals, departures int) {
	ns := time.Since(start).Nanoseconds()
	m.latArrive.RecordN(ns, arrivals)
	m.latDepart.RecordN(ns, departures)
}

// count adds one envelope's accepted events to the counters, touching
// only the ones that moved (a shard owner calls it once per envelope).
func (m *metrics) count(arrivals, departures, opened, closed uint64) {
	if arrivals > 0 {
		m.arrivals.Add(arrivals)
	}
	if departures > 0 {
		m.departures.Add(departures)
	}
	if opened > 0 {
		m.serversOpened.Add(opened)
	}
	if closed > 0 {
		m.serversClosed.Add(closed)
	}
}

// reject counts a request error under its class.
func (m *metrics) reject(err error) { m.rejected[ClassOf(err)].Add(1) }

// Stats is the service-wide view published on GET /v1/stats and via
// expvar. Aggregates are sums over shards; note PeakServers sums each
// shard's own peak, an upper bound on the true instantaneous global
// peak (shards do not peak simultaneously in general).
type Stats struct {
	// UptimeSeconds is wall time since New, also after a recovery
	// (the service clock then resumes from the recovered stream time).
	UptimeSeconds float64 `json:"uptime_seconds"`
	Shards        int     `json:"shards"`
	Algorithm     string  `json:"algorithm"`
	// Engine is the placement engine kind every shard runs ("indexed"
	// or "linear"); the service always uses the default indexed engine.
	Engine string `json:"engine"`

	Arrivals   uint64 `json:"arrivals"`
	Departures uint64 `json:"departures"`
	// EventsPerSecond is lifetime throughput: accepted events / uptime.
	EventsPerSecond float64 `json:"events_per_second"`

	// Batches counts ApplyBatch calls (one per /v1/batch request, and
	// one per group of wire Batch frames the server found buffered
	// together); BatchOps the ops they carried. BatchOps/Batches is the
	// realized mean batch size.
	Batches  uint64 `json:"batches,omitempty"`
	BatchOps uint64 `json:"batch_ops,omitempty"`

	// Rejected counts rejections by class code (Class.Code); classes
	// with none are absent.
	Rejected map[string]uint64 `json:"rejected,omitempty"`

	// Latency holds the server-side service-time digest per op type
	// ("arrive", "depart"): time from dispatch to stream return,
	// shard queue wait included, measured on every request (rejections
	// too). Microseconds; percentiles carry the histogram's <= 3.2%
	// relative error.
	Latency map[string]hist.Summary `json:"latency,omitempty"`

	OpenServers int     `json:"open_servers"`
	ServersUsed int     `json:"servers_used"`
	PeakServers int     `json:"peak_servers"`
	UsageTime   float64 `json:"usage_time"`

	// Durability is present only when the dispatcher runs with a
	// write-ahead log (Config.DataDir set).
	Durability *DurabilityStats `json:"durability,omitempty"`

	PerShard []ShardStats `json:"per_shard"`
}

// DurabilityStats is the service-wide durability gauge block.
type DurabilityStats struct {
	DataDir       string `json:"data_dir"`
	Fsync         string `json:"fsync"`
	SnapshotEvery int    `json:"snapshot_every,omitempty"`
	// WalSegments/WalBytes sum the live journal footprint over shards
	// (snapshots truncate covered segments, so this is the replay debt,
	// not lifetime traffic).
	WalSegments int   `json:"wal_segments"`
	WalBytes    int64 `json:"wal_bytes"`
	// FsyncLatency digests every fsync on the append path, all shards
	// (microseconds) — the durable-ack premium of fsync=always.
	FsyncLatency hist.Summary `json:"fsync_latency"`
	// Error surfaces the first shard journal failure; the affected
	// shards are refusing writes (fail-stop).
	Error string `json:"error,omitempty"`
}

// ShardStats is one shard's contribution to Stats.
type ShardStats struct {
	Shard int `json:"shard"`
	// Policy is the shard's policy display name (packing.Algorithm.Name),
	// and Engine the placement engine kind it runs ("indexed"/"linear").
	Policy      string  `json:"policy"`
	Engine      string  `json:"engine"`
	Clock       float64 `json:"clock"` // last event time fed to the shard
	Events      int     `json:"events"`
	OpenServers int     `json:"open_servers"`
	ServersUsed int     `json:"servers_used"`
	PeakServers int     `json:"peak_servers"`
	UsageTime   float64 `json:"usage_time"`

	// Durability gauges, present only when the shard has a WAL: live
	// journal footprint, the next journal sequence (== Events), the
	// event count the newest durable snapshot covers, and that
	// snapshot's age. Read live from the log, not from the gauge.
	WalSegments        int     `json:"wal_segments,omitempty"`
	WalBytes           int64   `json:"wal_bytes,omitempty"`
	JournalSeq         uint64  `json:"journal_seq,omitempty"`
	SnapshotSeq        uint64  `json:"snapshot_seq,omitempty"`
	SnapshotAgeSeconds float64 `json:"snapshot_age_seconds,omitempty"`
}

// Stats assembles the current service-wide statistics from the gauges
// each shard owner publishes atomically — no shard is locked, queued
// behind, or otherwise disturbed by a stats read. Each gauge is a
// consistent view of its shard as of that owner's last publish: exact
// whenever the shard's queue has run empty, and at most publishEvery
// events stale under sustained load.
func (d *Dispatcher) Stats() Stats {
	s := Stats{
		UptimeSeconds: time.Since(d.start).Seconds(),
		Shards:        len(d.shards),
		Algorithm:     d.cfg.Algorithm,
		Arrivals:      d.metrics.arrivals.Load(),
		Departures:    d.metrics.departures.Load(),
		Batches:       d.metrics.batches.Load(),
		BatchOps:      d.metrics.batchOps.Load(),
		PerShard:      make([]ShardStats, len(d.shards)),
	}
	s.Rejected = make(map[string]uint64)
	for c := range d.metrics.rejected {
		if v := d.metrics.rejected[c].Load(); v > 0 {
			s.Rejected[Class(c).Code()] = v
		}
	}
	s.Latency = map[string]hist.Summary{
		"arrive": d.metrics.latArrive.Summary(),
		"depart": d.metrics.latDepart.Summary(),
	}
	if d.store != nil {
		s.Durability = &DurabilityStats{
			DataDir:       d.cfg.DataDir,
			Fsync:         d.cfg.Fsync,
			SnapshotEvery: d.cfg.SnapshotEvery,
			FsyncLatency:  d.metrics.latFsync.Summary(),
		}
		if err := d.DurabilityErr(); err != nil {
			s.Durability.Error = err.Error()
		}
	}
	now := time.Now().UnixNano()
	for i, sh := range d.shards {
		g := sh.gauge.Load()
		s.PerShard[i] = *g
		s.OpenServers += g.OpenServers
		s.ServersUsed += g.ServersUsed
		s.PeakServers += g.PeakServers
		s.UsageTime += g.UsageTime
		s.Engine = g.Engine
		if sh.wal != nil {
			w := sh.wal.Stats()
			ps := &s.PerShard[i]
			ps.WalSegments = w.Segments
			ps.WalBytes = w.Bytes
			ps.JournalSeq = w.NextSeq
			ps.SnapshotSeq = w.SnapshotSeq
			if w.HasSnapshot && w.SnapshotTime > 0 {
				ps.SnapshotAgeSeconds = float64(now-w.SnapshotTime) / 1e9
			}
			s.Durability.WalSegments += w.Segments
			s.Durability.WalBytes += w.Bytes
		}
	}
	if s.UptimeSeconds > 0 {
		s.EventsPerSecond = float64(s.Arrivals+s.Departures) / s.UptimeSeconds
	}
	return s
}

// ExpvarFunc returns an expvar.Func publishing the dispatcher's Stats.
// The caller owns naming and registration (expvar.Publish is global and
// once-only per name, so the daemon — not the package — registers it):
//
//	expvar.Publish("dbpserved", d.ExpvarFunc())
func (d *Dispatcher) ExpvarFunc() expvar.Func {
	return expvar.Func(func() any { return d.Stats() })
}
