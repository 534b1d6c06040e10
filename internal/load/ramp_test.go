package load

import (
	"errors"
	"sync"
	"testing"
	"time"

	"dbp/internal/item"
	"dbp/internal/serve"
)

// nullTarget accepts every op instantly — an infinitely fast service,
// so a ramp over it is limited only by the searched range.
type nullTarget struct{}

func (nullTarget) Arrive(item.ID, float64, []float64, *float64) error { return nil }
func (nullTarget) Depart(item.ID, *float64) error                     { return nil }
func (nullTarget) Stats() (serve.Stats, error)                        { return serve.Stats{}, nil }
func (nullTarget) Name() string                                       { return "null" }

// TestRampProbesMax is the regression test for the doubling-phase gap:
// when Max is not Start times a power of two, the last doubling step
// must clamp to Max so the top of the range is actually probed
// (pre-fix the search stopped at 2000 and reported it as the maximum,
// silently never measuring 3000).
func TestRampProbesMax(t *testing.T) {
	res, err := RampSearch(Options{
		Target: nullTarget{},
		Script: testScript(t, 2000),
		Drain:  time.Second,
	}, RampOptions{
		Start:           1000,
		Max:             3000, // not 1000 * 2^k
		SLOp99:          10 * time.Second,
		MinAchievedFrac: 0.5,
		Probe:           200 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	var sawMax bool
	for _, p := range res.Probes {
		if p.Rate > 3000 {
			t.Errorf("probe rate %g exceeds Max 3000", p.Rate)
		}
		if p.Rate == 3000 {
			sawMax = true
		}
	}
	if !sawMax {
		t.Errorf("ramp never probed Max=3000; probes: %+v", res.Probes)
	}
	if res.MaxSustainable != 3000 {
		t.Errorf("MaxSustainable = %g, want 3000 (every rate passes against the null target)",
			res.MaxSustainable)
	}
}

// slowTarget serves every op after a fixed stall — a service with a
// hard capacity of roughly 1/delay ops/s per client.
type slowTarget struct{ delay time.Duration }

func (s slowTarget) Arrive(item.ID, float64, []float64, *float64) error {
	time.Sleep(s.delay)
	return nil
}
func (s slowTarget) Depart(item.ID, *float64) error { time.Sleep(s.delay); return nil }
func (slowTarget) Stats() (serve.Stats, error)      { return serve.Stats{}, nil }
func (slowTarget) Name() string                     { return "slow" }

// TestAchievedRateReflectsSaturation: when the target cannot keep the
// open-loop schedule, the measure window must extend to the real
// wall-clock exit and the achieved rate must report the target's
// ceiling — not echo the requested rate (which is what dividing by the
// nominal window does, since open-loop clients issue every overdue op).
func TestAchievedRateReflectsSaturation(t *testing.T) {
	rep, err := Run(Options{
		Target:  slowTarget{delay: time.Millisecond},
		Script:  testScript(t, 2000),
		Mode:    ModeOpen,
		Rate:    20000, // ~20x what 4 clients at 1ms/op can serve
		Clients: 4,
		Measure: 300 * time.Millisecond,
		Drain:   10 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.AchievedRate > 0.5*rep.RequestedRate {
		t.Errorf("achieved %.0f ops/s echoes the requested 20000 against a ~4000 ops/s target",
			rep.AchievedRate)
	}
	if d := rep.Phases["measure"].DurationSec; d <= 0.3 {
		t.Errorf("measure window %.3fs not extended past the nominal 0.3s despite overrun", d)
	}
}

// failDepartTarget accepts arrivals but refuses every departure, so
// each accepted job is permanently stuck on the service.
type failDepartTarget struct{}

var errStuck = errors.New("depart refused")

func (failDepartTarget) Arrive(item.ID, float64, []float64, *float64) error { return nil }
func (failDepartTarget) Depart(item.ID, *float64) error                     { return errStuck }
func (failDepartTarget) Stats() (serve.Stats, error)                        { return serve.Stats{}, nil }
func (failDepartTarget) Name() string                                       { return "faildepart" }

// TestDrainCountsFailedDeparts is the regression test for the drain
// accounting bug: a job whose Depart fails must stay in the active set
// and be reported as leaked, not silently dropped (pre-fix the drain
// loop deleted it regardless, so Leaked was 0 and drain Ops counted
// failures as successes).
func TestDrainCountsFailedDeparts(t *testing.T) {
	rep, err := Run(Options{
		Target:  failDepartTarget{},
		Script:  testScript(t, 2000),
		Mode:    ModeOpen,
		Rate:    2000,
		Clients: 2,
		Measure: 300 * time.Millisecond,
		Drain:   500 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	d := rep.Phases["drain"]
	if d.Leaked == 0 {
		t.Error("drain reports 0 leaked jobs although every depart failed")
	}
	if d.Ops != 0 {
		t.Errorf("drain reports %d successful departs against a target that refuses all", d.Ops)
	}
	if d.Throughput != 0 {
		t.Errorf("drain throughput %g ops/s with zero successful ops", d.Throughput)
	}
	// The window is wall-clock bounded by the drain budget (plus
	// scheduling slack), not a per-client figure that can exceed it.
	if d.DurationSec > 2*0.5 {
		t.Errorf("drain duration %.3fs far exceeds the 0.5s budget", d.DurationSec)
	}
}

// flakyDepartTarget refuses the first `refusals` departs of one job and
// accepts everything else, recording every depart attempt on that job.
type flakyDepartTarget struct {
	job      item.ID
	refusals int

	mu       sync.Mutex
	attempts int
}

func (*flakyDepartTarget) Arrive(item.ID, float64, []float64, *float64) error { return nil }
func (f *flakyDepartTarget) Depart(id item.ID, _ *float64) error {
	if id != f.job {
		return nil
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	f.attempts++
	if f.attempts <= f.refusals {
		return errStuck
	}
	return nil
}
func (*flakyDepartTarget) Stats() (serve.Stats, error) { return serve.Stats{}, nil }
func (*flakyDepartTarget) Name() string                { return "flakydepart" }

// TestFailedScriptedDepartIsDrained is the regression test for the
// measure-loop half of the drain accounting bug: a job whose scripted
// depart fails mid-run is still on the service, so it must stay in the
// active set — across script epochs — for the drain to retry, and count
// as leaked if the retry fails too (pre-fix the measure loop dropped it
// on any depart, so the drain never saw it and Leaked stayed 0).
func TestFailedScriptedDepartIsDrained(t *testing.T) {
	script := testScript(t, 50)
	var job item.ID
	for _, op := range script.ops {
		if op.Kind == opDepart {
			job = op.ID // epoch 0, IDBase 0: the ID goes out unshifted
			break
		}
	}
	for _, tc := range []struct {
		name         string
		refusals     int
		wantAttempts int // scripted depart + drain retry
		wantLeaked   int
	}{
		{"retry succeeds", 1, 2, 0},
		{"retry fails", 2, 2, 1},
	} {
		t.Run(tc.name, func(t *testing.T) {
			tgt := &flakyDepartTarget{job: job, refusals: tc.refusals}
			rep, err := Run(Options{
				Target:  tgt,
				Script:  script,
				Mode:    modeClosed,
				Clients: 1,
				Measure: 50 * time.Millisecond, // 100 ops per epoch: the script wraps many times
				Drain:   time.Second,
			})
			if err != nil {
				t.Fatal(err)
			}
			if tgt.attempts != tc.wantAttempts {
				t.Errorf("job %d saw %d depart attempts, want %d (scripted + drain retry)",
					job, tgt.attempts, tc.wantAttempts)
			}
			if d := rep.Phases["drain"]; d.Leaked != tc.wantLeaked {
				t.Errorf("drain leaked %d jobs, want %d", d.Leaked, tc.wantLeaked)
			}
		})
	}
}
