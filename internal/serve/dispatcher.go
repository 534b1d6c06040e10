// Package serve is the allocation-service layer: a thread-safe, sharded
// dispatcher over packing.Stream plus the JSON/HTTP front end that
// cmd/dbpserved mounts. Tenants (job IDs) are partitioned across N
// independent shards by a fixed hash; each shard's stream is owned by a
// single writer goroutine fed request envelopes over a bounded channel,
// so throughput scales with cores without any lock on the event path
// while every shard keeps the paper's strictly sequential online
// semantics. Jobs never interact across servers, so sharding the fleet
// preserves each policy's per-shard behavior exactly; the global
// usage-time objective is the sum over shards.
package serve

import (
	"encoding/json"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"dbp/internal/item"
	"dbp/internal/packing"
	"dbp/internal/wal"
)

// ErrClosed is returned for requests arriving after Close has begun
// draining the dispatcher; the HTTP layer maps it to 503.
var ErrClosed = errors.New("serve: dispatcher is shutting down")

// ErrDurability is returned once a shard's write-ahead log has failed:
// the shard fails stop — its in-memory stream stays consistent with
// what was acknowledged, but no further writes are accepted, keeping
// the divergence between memory and disk bounded at the first failed
// group (one envelope's records): every op of that envelope the stream
// accepted is answered with ErrDurability. The HTTP layer maps it to
// 503.
var ErrDurability = errors.New("serve: shard journal failed; shard refuses writes")

// Config configures a Dispatcher.
type Config struct {
	// Algorithm is the packing policy short name ("firstfit", ...);
	// each shard gets its own fresh instance. Empty means "firstfit".
	Algorithm string
	// Shards is the number of independent streams; <= 0 means
	// GOMAXPROCS.
	Shards int
	// Capacity is the per-dimension server capacity (0 means 1.0); New
	// refuses a NaN, infinite or negative one.
	Capacity float64
	// Dim is the resource dimensionality (0 means 1).
	Dim int
	// KeepAlive keeps emptied servers open (reusable) for this many
	// time units, as in packing.NewStreamKeepAlive.
	KeepAlive float64
	// QueueDepth bounds each shard's request channel (<= 0 means 1024).
	// A full queue applies backpressure: submitters block until the
	// shard owner catches up, so memory stays bounded under overload.
	QueueDepth int
	// Clock overrides the service clock (seconds since some epoch,
	// non-decreasing). Nil means a monotonic wall clock starting at 0
	// when the dispatcher is created (resuming from the recovered
	// stream clock when a WAL is recovered). Tests inject deterministic
	// time.
	Clock func() float64

	// DataDir enables the durable write-ahead journal (internal/wal):
	// every accepted event is appended to a per-shard segmented log
	// before its reply is sent, periodic snapshots bound replay length,
	// and New recovers each shard bit-identically from snapshot + tail.
	// Empty disables durability (the pre-existing in-memory behavior).
	DataDir string
	// Fsync is the WAL durability policy: "always", "interval" (a sync
	// every 50ms), or "off" (the default).
	Fsync string
	// SnapshotEvery writes a durable shard snapshot (and truncates
	// covered segments) at the first envelope boundary at or past this
	// many shard events since the last one. <= 0 means only the
	// drain-time snapshot on Close.
	SnapshotEvery int
	// SegmentBytes overrides the WAL segment rotation size (testing).
	SegmentBytes int64
}

// Event is one journaled shard event, recorded exactly as fed to the
// shard's stream (time is post-guard), so a sequential replay of a
// shard's journal reproduces its stream state bit for bit.
type Event struct {
	Kind   string    `json:"kind"` // "arrive" or "depart"
	ID     item.ID   `json:"id"`
	Size   float64   `json:"size,omitempty"`
	Sizes  []float64 `json:"sizes,omitempty"`
	Time   float64   `json:"time"`
	Server int       `json:"server"`
}

// Placement is the outcome of a successful Arrive.
type Placement struct {
	ID     item.ID `json:"id"`
	Shard  int     `json:"shard"`
	Server int     `json:"server"` // index within the shard's fleet
	Opened bool    `json:"opened"` // a new server was started for this job
	Time   float64 `json:"time"`   // the time the event was applied at
}

// Departure is the outcome of a successful Depart.
type Departure struct {
	ID     item.ID `json:"id"`
	Shard  int     `json:"shard"`
	Server int     `json:"server"`
	Closed bool    `json:"closed"` // the server shut down as a result
	Time   float64 `json:"time"`
}

// opKind tags a request envelope.
type opKind uint8

const (
	opBatch    opKind = iota // a shard's slice of one call's ops
	opSnapshot               // control: deep-copy the shard's stream state
)

// request is one envelope on a shard's queue. The reply channel has
// capacity 1, so the owner never blocks answering; envelopes (and
// their reply channels) are pooled.
type request struct {
	kind  opKind
	reply chan response

	// opBatch: the shard's slice of one dispatch call — a single
	// Arrive/Depart is a batch of one. bops is applied in order; each
	// entry's result lands at out[entry.pos] — shards of one batch write
	// disjoint positions, so the scatter needs no lock.
	bops []batchEntry
	out  []BatchResult
}

// response is the owner's answer to one envelope; an opBatch answer is
// empty (its results are already in request.out).
type response struct {
	snap packing.Snapshot // opSnapshot only
}

var reqPool = sync.Pool{
	New: func() any { return &request{reply: make(chan response, 1)} },
}

// publishEvery bounds gauge staleness under sustained load: the shard
// owner republishes its stats snapshot at least every publishEvery
// applied events, and before every reply that leaves its queue empty.
const publishEvery = 256

// shard is one single-writer partition: exactly one goroutine (run)
// ever touches stream, WAL appends, and gauge stores after New
// returns; everyone else communicates through reqs or reads the
// atomically published gauge. The closed flag plus the inflight count
// form the submission gate that makes closing reqs race-free.
type shard struct {
	reqs     chan *request
	inflight atomic.Int64  // submitters currently between gate entry and channel send
	closed   atomic.Bool   // no new submissions may enter the queue
	done     chan struct{} // closed when the owner goroutine has exited

	stream *packing.Stream // owned by run(); read directly only after done
	policy string
	engine string

	gauge        atomic.Pointer[ShardStats] // last published stats snapshot
	sincePublish int                        // events applied since; owner-only

	// Durability (nil wal means the shard runs in-memory only). The
	// owner is the only appender; walErr is the shard-level fail-stop
	// latch (atomic so DurabilityErr can read it from any goroutine).
	wal            *wal.Log
	walErr         atomic.Pointer[walFailure]
	lastSnapEvents int          // stream event count the last snapshot covered
	group          []wal.Record // one envelope's records; owner-only scratch
}

// walFailure boxes the first durability error of a poisoned shard.
type walFailure struct{ err error }

// poison latches the shard's first durability failure; the shard
// refuses all subsequent writes with ErrDurability.
func (sh *shard) poison(err error) {
	sh.walErr.CompareAndSwap(nil, &walFailure{err: err})
}

// guard clamps a service-assigned timestamp so it never regresses the
// shard's stream clock: two requests can read the service clock in one
// order and enter the shard queue in the other, and a rejected event
// (a duplicate arrive, say) still advances the stream clock before
// being refused. Explicit caller timestamps are never rewritten.
func (sh *shard) guard(at float64, assigned bool) float64 {
	if assigned && sh.stream.Events() > 0 && at < sh.stream.Now() {
		return sh.stream.Now()
	}
	return at
}

// Dispatcher routes jobs to shards and serializes each shard's events
// through its owner goroutine. All methods are safe for concurrent use.
type Dispatcher struct {
	cfg     Config
	shards  []*shard
	metrics metrics
	start   time.Time
	clock   func() float64

	closing  sync.Once
	draining atomic.Bool
	final    atomic.Pointer[Stats] // set once by Close

	store *wal.Store // nil unless Config.DataDir enabled durability
}

// New creates a sharded dispatcher and starts one owner goroutine per
// shard. It fails only on an unknown policy name or invalid
// configuration; Close stops the owners.
func New(cfg Config) (*Dispatcher, error) {
	if cfg.Algorithm == "" {
		cfg.Algorithm = "firstfit"
	}
	if cfg.Shards <= 0 {
		cfg.Shards = runtime.GOMAXPROCS(0)
	}
	if cfg.QueueDepth <= 0 {
		cfg.QueueDepth = 1024
	}
	algo, err := packing.ByName(cfg.Algorithm)
	if err != nil {
		return nil, err
	}
	// A stream built up front refuses a NaN, infinite or negative capacity
	// or keep-alive before any journal is opened.
	if _, err := packing.NewStreamEngine(algo, cfg.Capacity, cfg.Dim, cfg.KeepAlive, packing.EngineIndexed); err != nil {
		return nil, err
	}
	d := &Dispatcher{cfg: cfg, shards: make([]*shard, cfg.Shards), start: time.Now()}
	d.metrics.init()
	if cfg.DataDir != "" {
		pol, err := wal.ParseFsyncPolicy(cfg.Fsync)
		if err != nil {
			return nil, err
		}
		d.cfg.Fsync = string(pol) // normalized ("" means off) for the stats block
		// Record the effective configuration (after defaulting) so the
		// META guard compares what the streams actually run with.
		meta := wal.Meta{
			Shards:    cfg.Shards,
			Dim:       max(cfg.Dim, 1),
			Capacity:  cfg.Capacity,
			KeepAlive: cfg.KeepAlive,
			Algorithm: cfg.Algorithm,
		}
		if meta.Capacity <= 0 {
			meta.Capacity = 1
		}
		d.store, err = wal.OpenStore(cfg.DataDir, meta, wal.Options{
			Fsync:        pol,
			SegmentBytes: cfg.SegmentBytes,
			SyncObserver: d.metrics.observeFsync,
		})
		if err != nil {
			return nil, err
		}
	}
	for i := range d.shards {
		d.shards[i] = &shard{
			reqs: make(chan *request, cfg.QueueDepth),
			done: make(chan struct{}),
		}
	}
	if d.store != nil {
		// Every shard recovers at once; the owners start only after all
		// have, and the lowest-indexed failure is the one reported.
		err := d.store.Each(func(i int, log *wal.Log) error {
			algo, _ := packing.ByName(cfg.Algorithm)
			stream, err := recoverShard(cfg, algo, log)
			if err != nil {
				return fmt.Errorf("serve: recovering shard %d: %w", i, err)
			}
			d.shards[i].wal, d.shards[i].stream = log, stream
			return nil
		})
		if err != nil {
			d.store.Close()
			return nil, err
		}
	}
	clockBase := 0.0
	for i, sh := range d.shards {
		if sh.wal != nil {
			sh.lastSnapEvents = int(sh.wal.Stats().SnapshotSeq)
			if sh.stream.Events() > 0 && sh.stream.Now() > clockBase {
				clockBase = sh.stream.Now()
			}
		} else {
			algo, _ := packing.ByName(cfg.Algorithm)
			sh.stream = packing.NewStreamKeepAlive(algo, cfg.Capacity, cfg.Dim, cfg.KeepAlive)
		}
		sh.policy, sh.engine = sh.stream.Policy(), sh.stream.Engine()
		sh.publish(i)
	}
	d.clock = cfg.Clock
	if d.clock == nil {
		// time.Since reads Go's monotonic clock, immune to wall-clock
		// steps; the per-shard guard below still clamps the residual
		// race between reading the clock and entering the shard queue.
		// After recovery the clock resumes from the furthest recovered
		// stream time, so service-assigned timestamps keep advancing
		// instead of all clamping to the recovered clock.
		base := clockBase
		d.clock = func() float64 { return base + time.Since(d.start).Seconds() }
	}
	for i, sh := range d.shards {
		go d.run(i, sh)
	}
	return d, nil
}

// NumShards returns the number of shards.
func (d *Dispatcher) NumShards() int { return len(d.shards) }

// recoverShard rebuilds one shard's stream from its durable log: load
// the newest snapshot (if any) and restore it bit-identically, then
// replay the journal tail through the exact entry points the live path
// uses. Every record's sequence number must equal the stream's event
// count at the moment it is applied (one record per clock advance, by
// construction of applyOne), and a replayed arrive/depart must land on
// the journaled server — any divergence means the directory does not
// belong to this configuration and recovery refuses to guess.
func recoverShard(cfg Config, algo packing.Algorithm, log *wal.Log) (*packing.Stream, error) {
	var s *packing.Stream
	payload, seq, ok, err := log.LoadSnapshot()
	if err != nil {
		return nil, err
	}
	if ok {
		var snap packing.Snapshot
		if len(payload) > 0 && payload[0] == '{' {
			// A DBPSNAP1 file, written before snapshots were binary,
			// holds the snapshot's JSON object.
			err = json.Unmarshal(payload, &snap)
		} else {
			err = snap.UnmarshalBinary(payload)
		}
		if err != nil {
			return nil, fmt.Errorf("decoding snapshot: %w", err)
		}
		if uint64(snap.Events) != seq {
			return nil, fmt.Errorf("snapshot claims event count %d but covers journal seq %d", snap.Events, seq)
		}
		if s, err = packing.RestoreStream(algo, snap); err != nil {
			return nil, err
		}
	} else {
		s = packing.NewStreamKeepAlive(algo, cfg.Capacity, cfg.Dim, cfg.KeepAlive)
	}
	err = log.Replay(uint64(s.Events()), func(seq uint64, r wal.Record) error {
		if seq != uint64(s.Events()) {
			return fmt.Errorf("journal gap: record %d applied at stream event %d", seq, s.Events())
		}
		switch r.Kind {
		case wal.KindArrive:
			srv, _, err := s.Arrive(item.ID(r.ID), r.Size, r.Sizes, r.Time)
			if err != nil {
				return fmt.Errorf("replaying arrive seq %d: %w", seq, err)
			}
			if srv != int(r.Server) {
				return fmt.Errorf("replay divergence at seq %d: arrive placed on server %d, journal says %d", seq, srv, r.Server)
			}
		case wal.KindDepart:
			srv, _, err := s.Depart(item.ID(r.ID), r.Time)
			if err != nil {
				return fmt.Errorf("replaying depart seq %d: %w", seq, err)
			}
			if srv != int(r.Server) {
				return fmt.Errorf("replay divergence at seq %d: depart from server %d, journal says %d", seq, srv, r.Server)
			}
		case wal.KindTick:
			if err := s.Advance(r.Time); err != nil {
				return fmt.Errorf("replaying tick seq %d: %w", seq, err)
			}
		default:
			return fmt.Errorf("unknown record kind %d at seq %d", r.Kind, seq)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return s, nil
}

// saveShardSnapshot rolls a durable snapshot of the shard's full stream
// state and lets the log truncate covered segments. Owner-only.
func (d *Dispatcher) saveShardSnapshot(sh *shard) {
	snap := sh.stream.Snapshot()
	if uint64(snap.Events) != sh.wal.NextSeq() {
		sh.poison(fmt.Errorf("serve: shard journal out of step: stream at event %d, journal at seq %d", snap.Events, sh.wal.NextSeq()))
		return
	}
	payload, err := snap.AppendBinary(nil)
	if err != nil {
		sh.poison(fmt.Errorf("serve: encoding shard snapshot: %w", err))
		return
	}
	if err := sh.wal.SaveSnapshot(uint64(snap.Events), time.Now().UnixNano(), payload); err != nil {
		sh.poison(err)
		return
	}
	sh.lastSnapEvents = snap.Events
}

// DurabilityErr reports the first durability failure of any shard, or
// nil while every journal is healthy (or durability is off). A non-nil
// value means the affected shards are refusing writes with
// ErrDurability.
func (d *Dispatcher) DurabilityErr() error {
	for _, sh := range d.shards {
		if f := sh.walErr.Load(); f != nil {
			return f.err
		}
	}
	return nil
}

// splitmix64 is the SplitMix64 finalizer: a fixed, well-mixing hash so
// that job-ID → shard routing is consistent across restarts and spreads
// sequential tenant IDs evenly.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// ShardFor returns the shard index the job ID routes to.
func (d *Dispatcher) ShardFor(id item.ID) int {
	return int(splitmix64(uint64(id)) % uint64(len(d.shards)))
}

// enqueue is the one way onto a shard's queue. The inflight/closed pair
// is the drain gate: Close first flips closed (new submissions bounce),
// then waits for the inflight count to hit zero before closing the
// channel — so a submitter that passed the gate always has a live
// receiver and every envelope that entered the queue is answered on its
// reply channel. false means the envelope never entered the queue.
func (sh *shard) enqueue(req *request) bool {
	sh.inflight.Add(1)
	if sh.closed.Load() {
		sh.inflight.Add(-1)
		return false
	}
	sh.reqs <- req
	sh.inflight.Add(-1)
	return true
}

func putRequest(req *request) {
	clear(req.bops) // drop size-slice references; journal/stream own them
	req.bops = req.bops[:0]
	req.out = nil
	reqPool.Put(req)
}

// Arrive dispatches a job to its shard. A nil t means "now" (service
// clock). On error the returned Placement is zero-valued.
func (d *Dispatcher) Arrive(id item.ID, size float64, sizes []float64, t *float64) (Placement, error) {
	res := d.dispatchOne(BatchOp{ID: id, Size: size, Sizes: sizes}, t)
	if res.Err != nil {
		return Placement{}, res.Err
	}
	return Placement{ID: id, Shard: d.ShardFor(id), Server: res.Server, Opened: res.Flag, Time: res.Time}, nil
}

// Depart reports a job departure to its shard. A nil t means "now".
func (d *Dispatcher) Depart(id item.ID, t *float64) (Departure, error) {
	res := d.dispatchOne(BatchOp{Depart: true, ID: id}, t)
	if res.Err != nil {
		return Departure{}, res.Err
	}
	return Departure{ID: id, Shard: d.ShardFor(id), Server: res.Server, Closed: res.Flag, Time: res.Time}, nil
}

// run is shard si's owner goroutine: the only writer of the shard's
// stream and journal. It applies envelopes strictly in queue order.
// When Close shuts the queue, it finishes the backlog — everything
// that entered the queue is applied, nothing is dropped — then shuts
// lingering keep-alive servers and publishes the final gauge.
func (d *Dispatcher) run(si int, sh *shard) {
	defer close(sh.done)
	for req := range sh.reqs {
		d.apply(si, sh, req)
	}
	if sh.wal != nil && sh.walErr.Load() == nil && sh.stream.Events() > sh.lastSnapEvents {
		// Final snapshot of the pre-shutdown state, taken BEFORE
		// Shutdown closes lingering keep-alive servers: Shutdown is an
		// accounting finalization for the exit stats, not a journaled
		// event, so recovery resumes exactly where live traffic stopped.
		d.saveShardSnapshot(sh)
	}
	sh.stream.Shutdown()
	sh.publish(si)
}

// apply executes one envelope against shard si's stream: it runs each
// op (clamped timestamp, stream event, the op's journal record), then
// journals the envelope's records as one group, rolls a snapshot when
// one is due, adds the envelope's counts to the metrics and replies.
// An op is acknowledged only once its group is journaled; if the group
// write fails, the shard is poisoned and every op the stream accepted
// is answered with ErrDurability and not counted. apply republishes
// the stats gauge before replying when the queue is empty — so a lone
// caller reading Stats after its acknowledgment sees its own events —
// and at least every publishEvery events under sustained load. The
// envelope still belongs to the submitter — apply must not touch it
// after sending the reply.
func (d *Dispatcher) apply(si int, sh *shard, req *request) {
	var resp response
	if req.kind == opSnapshot {
		resp.snap = sh.stream.Snapshot()
	}
	poisoned := sh.wal != nil && sh.walErr.Load() != nil
	var arrivals, departures, opened, closed uint64
	for i := range req.bops {
		e := &req.bops[i]
		at := sh.guard(e.Time, !e.HasTime)
		if poisoned {
			d.metrics.reject(ErrDurability)
			req.out[e.pos] = BatchResult{Time: at, Err: ErrDurability}
			continue
		}
		server, flag, err := d.applyOne(sh, e, at)
		if err != nil {
			d.metrics.reject(err)
			req.out[e.pos] = BatchResult{Time: at, Err: err}
			continue
		}
		req.out[e.pos] = BatchResult{Server: server, Flag: flag, Time: at}
		if e.Depart {
			departures++
			if flag {
				closed++
			}
		} else {
			arrivals++
			if flag {
				opened++
			}
		}
	}
	if len(sh.group) > 0 {
		// Append before reply: the caller's acknowledgment implies the
		// envelope is journaled (and, under fsync=always, on disk). If
		// the journal refuses, the in-memory stream has applied events
		// the disk may never have seen — fail stop and report every
		// accepted op of the envelope as refused.
		werr := sh.wal.AppendGroup(sh.group)
		clear(sh.group) // drop demand-vector references
		sh.group = sh.group[:0]
		if werr != nil {
			sh.poison(werr)
			err := fmt.Errorf("%w: %v", ErrDurability, werr)
			for i := range req.bops {
				if r := &req.out[req.bops[i].pos]; r.Err == nil {
					d.metrics.reject(err)
					*r = BatchResult{Time: r.Time, Err: err}
				}
			}
			arrivals, departures, opened, closed = 0, 0, 0, 0
		} else if d.cfg.SnapshotEvery > 0 && sh.stream.Events()-sh.lastSnapEvents >= d.cfg.SnapshotEvery {
			// The snapshot is an optimization (it bounds replay length);
			// a failure here still poisons the shard because SaveSnapshot
			// syncs the journal and a sync failure means lost writes.
			d.saveShardSnapshot(sh)
		}
	}
	d.metrics.count(arrivals, departures, opened, closed)
	sh.sincePublish += len(req.bops)
	if len(sh.reqs) == 0 || sh.sincePublish >= publishEvery {
		sh.publish(si)
	}
	req.reply <- resp
}

// applyOne runs one op against the shard's stream at time at and, on a
// shard with a journal, adds its record to the envelope's group.
// Owner-only.
func (d *Dispatcher) applyOne(sh *shard, e *batchEntry, at float64) (server int, flag bool, err error) {
	kind := wal.KindArrive
	if e.Depart {
		kind = wal.KindDepart
		server, flag, err = sh.stream.Depart(e.ID, at)
	} else {
		server, flag, err = sh.stream.Arrive(e.ID, e.Size, e.Sizes, at)
	}
	if sh.wal == nil {
		return server, flag, err
	}
	switch {
	case err == nil:
		sh.group = append(sh.group, wal.Record{Kind: kind, ID: int64(e.ID), Time: at, Server: int32(server), Size: e.Size, Sizes: e.Sizes})
	case !errors.Is(err, packing.ErrTimeRegression):
		// Every rejection except a time regression already advanced the
		// shard clock (and may have expired keep-alive servers), so the
		// journal records a tick for it — replay must reproduce the
		// advance. A time regression mutated nothing and records nothing.
		sh.group = append(sh.group, wal.Record{Kind: wal.KindTick, ID: int64(e.ID), Time: at, Server: -1})
	}
	return server, flag, err
}

// publish stores a fresh stats gauge for lock-free readers (Stats,
// the /v1/stats endpoint). Owner-only.
func (sh *shard) publish(si int) {
	sh.sincePublish = 0
	st := sh.stream
	sh.gauge.Store(&ShardStats{
		Shard:       si,
		Policy:      sh.policy,
		Engine:      sh.engine,
		Clock:       st.Now(),
		Events:      st.Events(),
		OpenServers: st.OpenServers(),
		ServersUsed: st.ServersUsed(),
		PeakServers: st.PeakServers(),
		UsageTime:   st.UsageTime(),
	})
}

// ShardEvents returns shard i's journal in the exact order the shard
// owner applied the events, read back from its write-ahead log: every
// record the log still holds (segments a snapshot fully covers are
// deleted, so memory stays bounded no matter how long the service
// runs), with the clock ticks journaled for rejected events filtered
// out. The log is readable after Close. Without durability (empty
// Config.DataDir) a shard keeps no journal and the result is empty. An
// unreadable log is an error, never a shortened journal.
func (d *Dispatcher) ShardEvents(i int) ([]Event, error) {
	sh := d.shards[i]
	if sh.wal == nil {
		return nil, nil
	}
	var out []Event
	err := sh.wal.Replay(0, func(_ uint64, r wal.Record) error {
		switch r.Kind {
		case wal.KindArrive:
			out = append(out, Event{Kind: "arrive", ID: item.ID(r.ID), Size: r.Size, Sizes: r.Sizes, Time: r.Time, Server: int(r.Server)})
		case wal.KindDepart:
			out = append(out, Event{Kind: "depart", ID: item.ID(r.ID), Time: r.Time, Server: int(r.Server)})
		}
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("serve: reading shard %d journal: %w", i, err)
	}
	return out, nil
}

// Snapshot returns shard i's stream snapshot (totals + open servers).
// It is served by the shard owner, serialized with the event stream;
// once the dispatcher has closed, the quiesced stream is read directly.
func (d *Dispatcher) Snapshot(i int) packing.Snapshot {
	sh := d.shards[i]
	req := reqPool.Get().(*request)
	req.kind = opSnapshot
	if !sh.enqueue(req) {
		putRequest(req)
		<-sh.done // owner gone; its exit happens-before this read
		return sh.stream.Snapshot()
	}
	resp := <-req.reply
	putRequest(req)
	return resp.snap
}

// Close drains the dispatcher: envelopes already queued are applied
// (an accepted request is never dropped), later submissions get
// ErrClosed, lingering keep-alive servers are shut down at their
// natural expiry, and the final totals are computed after every shard
// owner has exited. Close is idempotent; every call returns the same
// final Stats.
func (d *Dispatcher) Close() Stats {
	d.closing.Do(func() {
		d.draining.Store(true)
		// Flip every gate first so no new envelope enters any queue...
		for _, sh := range d.shards {
			sh.closed.Store(true)
		}
		// ...then wait out submitters already past a gate (they hold a
		// nonzero inflight count only between the gate check and the
		// channel send) and shut each queue; the owner finishes the
		// backlog and exits.
		for _, sh := range d.shards {
			for sh.inflight.Load() != 0 {
				runtime.Gosched()
			}
			close(sh.reqs)
		}
		for _, sh := range d.shards {
			<-sh.done
		}
		s := d.Stats()
		d.final.Store(&s)
		if d.store != nil {
			// Owners have exited (final snapshots rolled); releasing the
			// logs after Stats keeps the durability gauges in the final
			// snapshot meaningful.
			if err := d.store.Close(); err != nil {
				for _, sh := range d.shards {
					sh.poison(err)
				}
			}
		}
	})
	return *d.final.Load()
}

// Draining reports whether Close has begun; the health endpoint flips
// to 503 the moment this is true.
func (d *Dispatcher) Draining() bool { return d.draining.Load() }
