package serve

import (
	"fmt"
	"sync"
	"time"

	"dbp/internal/item"
)

// BatchOp is one operation inside an ApplyBatch call. A batch is the
// transport-level amortization unit: the dispatcher groups a batch's
// ops by shard and enqueues one envelope per shard, so B ops cost
// O(shards) channel round trips instead of B.
type BatchOp struct {
	Depart bool
	ID     item.ID
	// Size and Sizes are an arrival's demand; on a departure they are
	// ignored.
	Size  float64
	Sizes []float64
	// HasTime marks an explicit event time; otherwise the op is
	// stamped with the service clock, read once per batch.
	HasTime bool
	Time    float64
}

// BatchResult is one op's outcome. Err is nil on success; on failure
// it is the same typed sentinel the single-op API returns (mapped to
// status codes by the transports), and Server/Flag are zero.
type BatchResult struct {
	Server int
	Flag   bool // opened (arrive) / closed (depart)
	Time   float64
	Err    error
}

// batchEntry is one op as routed into a shard's envelope, with its
// position in the caller's results slice. Its Sizes are the
// dispatcher's own copy; an op the caller left unstamped carries the
// service clock in Time and keeps HasTime false, which is what lets the
// shard guard clamp it.
type batchEntry struct {
	BatchOp
	pos int
}

// batchPlan is the reusable scratch of one dispatch call: the per-shard
// envelope table, the order shards were first touched in, and the
// result slot of a single-op call (results outlive the call's stack
// frame in the envelope, so a batch of one keeps its slot here).
type batchPlan struct {
	envs  []*request
	order []int
	one   [1]BatchResult
}

var planPool = sync.Pool{New: func() any { return &batchPlan{} }}

// ApplyBatch applies ops against the dispatcher and scatters each op's
// outcome into results (results[i] answers ops[i]; it panics if results
// is shorter than ops). Ops are grouped by shard preserving their
// relative order, one envelope is enqueued per involved shard, and each
// shard owner applies its sub-batch sequentially — so two ops on the
// same job in one batch keep their order, and per-shard semantics are
// exactly those of the equivalent single-op calls. Unstamped ops share
// one service-clock read; a fully stamped batch reads no clock. Safe
// for concurrent use.
func (d *Dispatcher) ApplyBatch(ops []BatchOp, results []BatchResult) {
	if len(results) < len(ops) {
		// Checked here, in the caller's goroutine: the scatter happens in
		// the shard owners, where an out-of-range write would take the
		// whole process down.
		panic(fmt.Sprintf("serve: ApplyBatch: %d results for %d ops", len(results), len(ops)))
	}
	if len(ops) == 0 {
		return
	}
	plan := planPool.Get().(*batchPlan)
	d.dispatch(plan, ops, results)
	planPool.Put(plan)
	d.metrics.batches.Add(1)
	d.metrics.batchOps.Add(uint64(len(ops)))
}

// dispatchOne is Arrive's and Depart's batch of one: the op rides the
// same routing, gate, enqueue and collect code as an ApplyBatch entry.
// A nil t leaves the op unstamped.
func (d *Dispatcher) dispatchOne(op BatchOp, t *float64) BatchResult {
	if t != nil {
		op.HasTime, op.Time = true, *t
	}
	ops := [1]BatchOp{op}
	plan := planPool.Get().(*batchPlan)
	d.dispatch(plan, ops[:], plan.one[:])
	res := plan.one[0]
	plan.one[0] = BatchResult{}
	planPool.Put(plan)
	return res
}

// dispatch is the one op path: route each op into its shard's envelope,
// pass every envelope through the shard gate, wait for the owners, and
// record the call's one service time for each of its ops.
// len(results) >= len(ops).
func (d *Dispatcher) dispatch(plan *batchPlan, ops []BatchOp, results []BatchResult) {
	start := time.Now()
	if cap(plan.envs) < len(d.shards) {
		plan.envs = make([]*request, len(d.shards))
	}
	envs := plan.envs[:len(d.shards)]
	order := plan.order[:0]

	// The service clock is read at most once, and only if some op lacks
	// an explicit time.
	var now float64
	stamped := false
	departs := 0
	for i := range ops {
		si := d.ShardFor(ops[i].ID)
		req := envs[si]
		if req == nil {
			req = reqPool.Get().(*request)
			req.kind = opBatch
			req.out = results
			envs[si] = req
			order = append(order, si)
		}
		e := batchEntry{BatchOp: ops[i], pos: i}
		if !e.HasTime {
			if !stamped {
				now, stamped = d.clock(), true
			}
			e.Time = now
		}
		if e.Depart {
			e.Size, e.Sizes = 0, nil
			departs++
		} else if len(e.Sizes) > 0 {
			// Copy once at the API boundary: the stream's ledger and the
			// journal both retain the demand vector beyond this call, and
			// callers (transports above all) reuse theirs.
			e.Sizes = append([]float64(nil), e.Sizes...)
		}
		req.bops = append(req.bops, e)
	}

	// Enqueue every shard's envelope first, then collect replies: the
	// shards run their sub-batches concurrently, and a full queue only
	// delays its own shard's hand-off.
	for _, si := range order {
		req := envs[si]
		if d.shards[si].enqueue(req) {
			continue
		}
		for _, e := range req.bops {
			results[e.pos] = BatchResult{Err: ErrClosed}
			d.metrics.reject(ErrClosed)
		}
		putRequest(req)
		envs[si] = nil // answered here; skip the reply wait
	}
	for _, si := range order {
		req := envs[si]
		if req == nil {
			continue
		}
		<-req.reply
		putRequest(req)
		envs[si] = nil
	}
	plan.order = order[:0]

	// Batched and single-op traffic share one latency ledger.
	d.metrics.observe(start, len(ops)-departs, departs)
}
