package load

import (
	"fmt"
	"time"
)

// RampOptions configures the max-sustainable-throughput search.
type RampOptions struct {
	// Start and Max bound the searched rate range (ops/s).
	Start, Max float64
	// SLOp99 is the per-op-type p99 latency ceiling a rate must stay
	// under to count as sustained.
	SLOp99 time.Duration
	// MinAchievedFrac is the fraction of the requested rate the run
	// must actually achieve (default 0.98): an open-loop run that
	// falls behind its own schedule is saturated even if latencies of
	// the ops it did issue look fine.
	MinAchievedFrac float64
	// Probe is the measure window per probe run (default 3s); each
	// probe gets a warmup of half that.
	Probe time.Duration
}

// rampRefine is the number of binary-search refinement probes after
// the doubling phase brackets the limit.
const rampRefine = 3

// RampProbe is one probe run's verdict.
type RampProbe struct {
	Rate     float64 `json:"rate"`
	Achieved float64 `json:"achieved"`
	P99US    float64 `json:"p99_us"` // worst op type
	OK       bool    `json:"ok"`
	Why      string  `json:"why,omitempty"`
}

// RampResult is the outcome of a ramp search.
type RampResult struct {
	SLOp99US       float64     `json:"slo_p99_us"`
	Probes         []RampProbe `json:"probes"`
	MaxSustainable float64     `json:"max_sustainable_ops_per_sec"`
}

// RampSearch finds the highest open-loop rate the target sustains
// under the p99 SLO: geometric doubling from Start until a probe
// fails (or Max passes), then binary-search refinement between the
// last good and first bad rate. base supplies everything but Mode,
// Rate, and IDBase, which the search owns.
func RampSearch(base Options, ro RampOptions) (*RampResult, error) {
	if ro.Start <= 0 || ro.Max < ro.Start {
		return nil, fmt.Errorf("load: ramp needs 0 < Start <= Max (got %g, %g)", ro.Start, ro.Max)
	}
	if ro.SLOp99 <= 0 {
		return nil, fmt.Errorf("load: ramp needs a positive p99 SLO")
	}
	if ro.MinAchievedFrac == 0 {
		ro.MinAchievedFrac = 0.98
	}
	if ro.Probe <= 0 {
		ro.Probe = 3 * time.Second
	}

	res := &RampResult{SLOp99US: float64(ro.SLOp99) / 1e3}
	probeN := 0
	probe := func(rate float64) (RampProbe, error) {
		o := base
		o.Mode = ModeOpen
		o.Rate = rate
		o.Warmup = ro.Probe / 2
		o.Measure = ro.Probe
		// A generous stride keeps every probe's job IDs disjoint from
		// every other probe against the same long-lived service.
		o.IDBase = base.IDBase + int64(probeN+1)*1_000_000_000_000
		probeN++
		rep, err := Run(o)
		if err != nil {
			return RampProbe{}, err
		}
		p := RampProbe{Rate: rate, Achieved: rep.AchievedRate, OK: true}
		for op, or := range rep.Ops {
			if or.Latency.P99US > p.P99US {
				p.P99US = or.Latency.P99US
			}
			if or.Latency.P99US > res.SLOp99US {
				p.OK = false
				p.Why = fmt.Sprintf("%s p99 %.0fus > SLO %.0fus", op, or.Latency.P99US, res.SLOp99US)
			}
		}
		if p.Achieved < ro.MinAchievedFrac*rate {
			p.OK = false
			p.Why = fmt.Sprintf("achieved %.0f < %.0f%% of requested %.0f",
				p.Achieved, ro.MinAchievedFrac*100, rate)
		}
		res.Probes = append(res.Probes, p)
		return p, nil
	}

	// Doubling phase. The last doubling step is clamped to Max, so Max
	// itself is always probed when every smaller rate passed (Start=1000,
	// Max=3000 probes 1000, 2000, 3000 — not 1000, 2000, stop).
	var good, bad float64
	for rate := ro.Start; ; {
		p, err := probe(rate)
		if err != nil {
			return nil, err
		}
		if !p.OK {
			bad = rate
			break
		}
		good = rate
		if rate >= ro.Max {
			break
		}
		if rate *= 2; rate > ro.Max {
			rate = ro.Max
		}
	}
	if good == 0 {
		res.MaxSustainable = 0 // even Start failed
		return res, nil
	}
	if bad == 0 {
		// Sustained everything up to Max (capped by the range, not
		// the service).
		res.MaxSustainable = good
		return res, nil
	}

	// Refinement phase: bisect (good, bad).
	for i := 0; i < rampRefine; i++ {
		mid := (good + bad) / 2
		p, err := probe(mid)
		if err != nil {
			return nil, err
		}
		if p.OK {
			good = mid
		} else {
			bad = mid
		}
	}
	res.MaxSustainable = good
	return res, nil
}
