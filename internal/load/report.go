package load

import (
	"encoding/json"
	"math"
	"os"
	"runtime"
	"time"

	"dbp/internal/load/hist"
	"dbp/internal/serve"
)

// ReportConfig echoes the run configuration into the results file.
type ReportConfig struct {
	Target     string  `json:"target"`
	Mode       string  `json:"mode"`
	Rate       float64 `json:"rate,omitempty"` // requested, open loop only
	Clients    int     `json:"clients"`
	WarmupSec  float64 `json:"warmup_sec"`
	MeasureSec float64 `json:"measure_sec"`
	DrainSec   float64 `json:"drain_sec"`
	Workload   string  `json:"workload"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	// Transport carries transport-level tuning (the wire client's pool
	// shape) when the target has any; nil for inproc and http.
	Transport *TransportConfig `json:"transport,omitempty"`
}

// TransportConfig is the wire client's pool tuning, echoed into the
// results file so a benchmark number is reproducible from its report.
type TransportConfig struct {
	Conns int `json:"conns,omitempty"`
}

// PhaseReport is the throughput accounting of one run phase.
type PhaseReport struct {
	DurationSec float64 `json:"duration_sec"`
	Ops         uint64  `json:"ops"`
	Throughput  float64 `json:"throughput_ops_per_sec"`
	// Leaked is the number of jobs still active at the end of the
	// drain phase — their depart failed or the drain deadline hit
	// (drain phase only; nonzero means the service kept state between
	// runs).
	Leaked int `json:"leaked,omitempty"`
}

// OpReport is the measure-phase digest for one op type.
type OpReport struct {
	Latency hist.Summary      `json:"latency"`
	Errors  map[string]uint64 `json:"errors,omitempty"`
}

// ShardSkew summarizes how evenly the splitmix64 routing spread events
// over shards, from the service's per-shard counters.
type ShardSkew struct {
	Shards     int     `json:"shards"`
	MinEvents  int     `json:"min_events"`
	MaxEvents  int     `json:"max_events"`
	MeanEvents float64 `json:"mean_events"`
	// Imbalance is max/mean (1.0 = perfectly even); CV is the
	// coefficient of variation of per-shard event counts.
	Imbalance float64 `json:"imbalance"`
	CV        float64 `json:"cv"`
}

// Report is everything one load run measured; dbpload -o writes it as
// JSON.
type Report struct {
	Config ReportConfig `json:"config"`

	Phases map[string]PhaseReport `json:"phases"`
	// Ops holds measure-phase latency and errors per op type
	// ("arrive", "depart").
	Ops map[string]OpReport `json:"ops"`

	// RequestedRate / AchievedRate are measure-phase ops/s. Achieved is
	// computed over the real wall-clock measure window — which extends
	// past the nominal one when the target cannot keep the open-loop
	// schedule — so achieved well below requested is the saturation
	// ceiling, not an echo of the schedule.
	RequestedRate float64 `json:"requested_rate,omitempty"`
	AchievedRate  float64 `json:"achieved_rate"`

	ShardSkew *ShardSkew   `json:"shard_skew,omitempty"`
	Server    *serve.Stats `json:"server,omitempty"`
	Ramp      *RampResult  `json:"ramp,omitempty"`
	Notes     []string     `json:"notes,omitempty"`
}

// report assembles the Report from per-client results.
func (r *runner) report(results []*clientResult) *Report {
	merged := [numOpKinds]*hist.Hist{hist.New(), hist.New()}
	errs := [numOpKinds]map[string]uint64{{}, {}}
	var warmOps, measOps, drainOps uint64
	var leaked int
	// The drain phase's duration is the wall-clock window from the
	// first client entering its drain to the last finishing — not a
	// per-client maximum, which under-reports the window (and inflates
	// throughput) whenever clients enter the drain at different times.
	// A client's drainStart is also the instant it finished its measure
	// ops: when the target cannot keep schedule, open-loop clients run
	// past the nominal window issuing overdue ops, and the measure
	// phase must be billed over the real window or the reported
	// throughput is just the requested rate echoed back.
	var drainFrom, drainTo, measTo time.Time
	for _, res := range results {
		for k := 0; k < int(numOpKinds); k++ {
			merged[k].Merge(res.meas[k])
			for code, n := range res.errs[k] {
				errs[k][code] += n
			}
		}
		warmOps += res.warmOps
		measOps += res.measOps
		drainOps += res.drainOps
		leaked += res.leaked
		if !res.drainStart.IsZero() && (drainFrom.IsZero() || res.drainStart.Before(drainFrom)) {
			drainFrom = res.drainStart
		}
		if res.drainStart.After(measTo) {
			measTo = res.drainStart
		}
		if res.drainEnd.After(drainTo) {
			drainTo = res.drainEnd
		}
	}
	var drainDur time.Duration
	if !drainFrom.IsZero() {
		drainDur = drainTo.Sub(drainFrom)
	}
	o := r.o
	// The measure window runs to the last client's measure exit (== its
	// drainStart), extended past the nominal window only by genuine
	// overrun.
	measSec := o.Measure.Seconds()
	if over := measTo.Sub(r.measureEnd); over > 0 {
		measSec += over.Seconds()
	}
	rep := &Report{
		Config: ReportConfig{
			Target:     o.Target.Name(),
			Mode:       string(o.Mode),
			Rate:       o.Rate,
			Clients:    o.Clients,
			WarmupSec:  o.Warmup.Seconds(),
			MeasureSec: o.Measure.Seconds(),
			DrainSec:   o.Drain.Seconds(),
			Workload:   o.WorkloadLabel,
			GOMAXPROCS: runtime.GOMAXPROCS(0),
		},
		Phases: map[string]PhaseReport{},
		Ops:    map[string]OpReport{},
	}
	// Targets with transport-level tuning (the wire pool) echo it.
	if tc, ok := o.Target.(interface{ Config() *TransportConfig }); ok {
		rep.Config.Transport = tc.Config()
	}
	if o.Warmup > 0 {
		rep.Phases["warmup"] = PhaseReport{
			DurationSec: o.Warmup.Seconds(),
			Ops:         warmOps,
			Throughput:  float64(warmOps) / o.Warmup.Seconds(),
		}
	}
	rep.Phases["measure"] = PhaseReport{
		DurationSec: measSec,
		Ops:         measOps,
		Throughput:  float64(measOps) / measSec,
	}
	rep.Phases["drain"] = PhaseReport{
		DurationSec: drainDur.Seconds(),
		Ops:         drainOps,
		Throughput:  safeDiv(float64(drainOps), drainDur.Seconds()),
		Leaked:      leaked,
	}
	for k := 0; k < int(numOpKinds); k++ {
		op := OpReport{Latency: merged[k].Summary()}
		if len(errs[k]) > 0 {
			op.Errors = errs[k]
		}
		rep.Ops[opKind(k).name()] = op
	}
	if o.Mode == ModeOpen {
		rep.RequestedRate = o.Rate
	}
	rep.AchievedRate = float64(measOps) / measSec
	return rep
}

// skewOf computes shard skew from the service's per-shard counters.
func skewOf(s serve.Stats) *ShardSkew {
	if len(s.PerShard) == 0 {
		return nil
	}
	sk := &ShardSkew{Shards: len(s.PerShard), MinEvents: math.MaxInt}
	var sum, sumSq float64
	for _, sh := range s.PerShard {
		if sh.Events < sk.MinEvents {
			sk.MinEvents = sh.Events
		}
		if sh.Events > sk.MaxEvents {
			sk.MaxEvents = sh.Events
		}
		sum += float64(sh.Events)
		sumSq += float64(sh.Events) * float64(sh.Events)
	}
	n := float64(len(s.PerShard))
	sk.MeanEvents = sum / n
	if sk.MeanEvents > 0 {
		sk.Imbalance = float64(sk.MaxEvents) / sk.MeanEvents
		variance := sumSq/n - sk.MeanEvents*sk.MeanEvents
		if variance > 0 {
			sk.CV = math.Sqrt(variance) / sk.MeanEvents
		}
	}
	return sk
}

func safeDiv(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// WriteFile writes the report as indented JSON (struct field order is
// fixed and map keys are marshaled sorted, so the output is
// byte-deterministic for identical results).
func (r *Report) WriteFile(path string) error {
	buf, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(buf, '\n'), 0o644)
}
