// Package load is the YCSB-style load generator behind cmd/dbpload: it
// replays arrive/depart scripts from the workload generators through a
// pluggable Target transport (in-process dispatcher, or HTTP or the
// binary wire protocol against a running dbpserved), paces them in open
// or closed loop, searches for the highest rate that holds a p99 SLO
// (RampSearch), and measures per-op-type latency into mergeable
// log-bucketed histograms (internal/load/hist). It is an operator's
// tool; the repository's benchmark is bench/, which imports none of it.
package load

import (
	"fmt"
	"runtime"
	"sync"
	"time"

	"dbp/internal/item"
	"dbp/internal/load/hist"
)

// Mode selects the pacing model.
type Mode string

const (
	// ModeOpen is the open-loop model: ops are issued on a fixed
	// schedule at Rate ops/s regardless of response times, and each
	// op's latency is measured from its *scheduled* time — the
	// coordinated-omission-free measurement.
	ModeOpen Mode = "open"
	// modeClosed is the closed-loop model: Clients concurrent users,
	// each issuing its next op as soon as the previous completed.
	modeClosed Mode = "closed"
)

// Options configures one load run.
type Options struct {
	Target Target
	Script *Script
	Mode   Mode

	// Rate is the open-loop target in ops/s (arrivals + departures).
	Rate float64
	// Clients is the number of concurrent load goroutines; 0 means
	// 4*GOMAXPROCS (open) or 16 (closed).
	Clients int

	// Warmup ops are issued and counted but excluded from latency
	// percentiles; Measure is the timed window; Drain bounds how long
	// clients may spend departing jobs still active at measure end.
	Warmup, Measure, Drain time.Duration

	// IDBase offsets every job ID, so successive runs against one
	// long-lived service (ramp probes) never collide.
	IDBase int64

	// WorkloadLabel annotates the results file ("uniform n=50000
	// mu=10 seed=1"); purely descriptive.
	WorkloadLabel string
}

func (o *Options) setDefaults() error {
	if o.Target == nil {
		return fmt.Errorf("load: Options.Target is required")
	}
	if o.Script == nil || len(o.Script.ops) == 0 {
		return fmt.Errorf("load: Options.Script is empty")
	}
	switch o.Mode {
	case ModeOpen:
		if o.Rate <= 0 {
			return fmt.Errorf("load: open-loop mode needs Rate > 0")
		}
		if o.Clients <= 0 {
			o.Clients = 4 * runtime.GOMAXPROCS(0)
		}
	case modeClosed:
		if o.Clients <= 0 {
			o.Clients = 16
		}
	default:
		return fmt.Errorf("load: unknown mode %q (want open or closed)", o.Mode)
	}
	if o.Measure <= 0 {
		return fmt.Errorf("load: Measure window must be positive")
	}
	if o.Drain <= 0 {
		o.Drain = 30 * time.Second
	}
	return nil
}

// clientResult is one goroutine's private measurement state; no locks
// on the hot path, merged after the run.
type clientResult struct {
	warm, meas [numOpKinds]*hist.Hist
	errs       [numOpKinds]map[string]uint64 // measure-phase, by classify code
	warmOps    uint64
	measOps    uint64
	drainOps   uint64
	leaked     int // jobs not drained: depart failed or the deadline hit
	// drainStart/drainEnd bound this client's drain activity; the
	// report derives the drain phase's wall-clock window from the
	// earliest start and latest end across clients.
	drainStart, drainEnd time.Time
}

func newClientResult() *clientResult {
	r := &clientResult{}
	for k := range r.warm {
		r.warm[k] = hist.New()
		r.meas[k] = hist.New()
		r.errs[k] = make(map[string]uint64)
	}
	return r
}

type runner struct {
	o          Options
	parts      []*Script
	start      time.Time
	warmupEnd  time.Time
	measureEnd time.Time
}

// Run executes one warmup → measure → drain load run and returns its
// report. It blocks until every client has drained or hit the drain
// deadline.
func Run(o Options) (*Report, error) {
	if err := o.setDefaults(); err != nil {
		return nil, err
	}
	r := &runner{o: o, parts: o.Script.partition(o.Clients)}
	r.start = time.Now()
	r.warmupEnd = r.start.Add(o.Warmup)
	r.measureEnd = r.warmupEnd.Add(o.Measure)

	results := make([]*clientResult, o.Clients)
	var wg sync.WaitGroup
	for c := 0; c < o.Clients; c++ {
		results[c] = newClientResult()
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			r.client(c, results[c])
		}(c)
	}
	wg.Wait()

	stats, statsErr := o.Target.Stats()
	rep := r.report(results)
	if statsErr == nil {
		rep.Server = &stats
		rep.ShardSkew = skewOf(stats)
	} else {
		rep.Notes = append(rep.Notes, fmt.Sprintf("stats unavailable: %v", statsErr))
	}
	return rep, nil
}

// epochOffset re-keys job IDs when a client wraps its script: epoch e
// shifts IDs by e*(maxID+1), so jobs from different epochs (and, via
// IDBase, different runs) never collide.
func (r *runner) epochOffset(epoch int) item.ID {
	return item.ID(int64(epoch)*(int64(r.o.Script.maxID)+1) + r.o.IDBase)
}

func (r *runner) client(c int, res *clientResult) {
	script := r.parts[c].ops
	if len(script) == 0 {
		return
	}
	var pc *openPacer
	open := r.o.Mode == ModeOpen
	if open {
		pc = newOpenPacer(r.start, c, r.o.Clients, r.o.Rate)
	}

	// active tracks the jobs this client put on the service and has not
	// seen depart (for the drain); failed marks jobs whose arrive was
	// rejected, so the matching scripted depart is skipped instead of
	// producing a guaranteed unknown_job error.
	active := make(map[item.ID]struct{})
	failed := make(map[item.ID]struct{})
	epoch, i, k := 0, 0, 0

	for {
		sched := time.Now() // closed loop: latency from issue time
		if open {
			sched = pc.due(k) // open loop: latency from the schedule
		}
		if sched.After(r.measureEnd) {
			break
		}
		if open {
			sleepUntil(sched)
		}

		op := script[i]
		id := op.ID + r.epochOffset(epoch)
		skip := false
		if op.Kind == opDepart {
			if _, ok := failed[id]; ok {
				delete(failed, id)
				skip = true
			}
		}
		if !skip {
			var err error
			if op.Kind == opArrive {
				err = r.o.Target.Arrive(id, op.Size, op.Sizes, nil)
			} else {
				err = r.o.Target.Depart(id, nil)
			}
			lat := time.Since(sched)
			if sched.Before(r.warmupEnd) {
				res.warm[op.Kind].Record(lat)
				res.warmOps++
			} else {
				res.meas[op.Kind].Record(lat)
				res.measOps++
				if err != nil {
					res.errs[op.Kind][classify(err)]++
				}
			}
			switch {
			case op.Kind == opArrive && err == nil:
				active[id] = struct{}{}
			case op.Kind == opArrive:
				failed[id] = struct{}{}
			case err == nil:
				// Only a depart that succeeded: a refused one leaves the
				// job on the service, so it stays in active for the drain.
				delete(active, id)
			}
		}
		i++
		k++
		if i == len(script) {
			// The script is self-contained, so every job has been sent
			// its depart; start over under fresh IDs. What is still in
			// active is a job whose depart failed: it stays for the drain.
			i = 0
			epoch++
			clear(failed)
		}
	}

	// Drain: depart everything this client still holds, so the
	// service ends the run empty and a follow-up run (ramp probe)
	// starts from a clean fleet. A failed depart stays in active and
	// counts as leaked — the job really is still occupying a server.
	res.drainStart = time.Now()
	deadline := res.drainStart.Add(r.o.Drain)
	for id := range active {
		if time.Now().After(deadline) {
			break
		}
		if err := r.o.Target.Depart(id, nil); err == nil {
			res.drainOps++
			delete(active, id)
		}
	}
	res.leaked = len(active)
	res.drainEnd = time.Now()
}
