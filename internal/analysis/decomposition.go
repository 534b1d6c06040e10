// Package analysis turns the paper's competitive analysis into executable,
// checkable artifacts: the usage-period decomposition of Section IV, the
// subperiod machinery of Section V (item selection, l/h-subperiods,
// supplier bins, Propositions 3–6), the theoretical bounds landscape, and
// the competitive-ratio measurement used by every experiment.
//
// A note on fidelity: Sections IV–V are reproduced exactly as stated and
// verified on real packings (experiment E7). The supplier-period interval
// arithmetic of Sections VI–VII (Definition 1/2, Lemmas 1–4) is proof-
// internal bookkeeping whose numeric constants did not survive the source
// text of the paper available to us; rather than guess them, this package
// verifies their consequences — Theorem 1's (mu+4) bound itself (E1) and
// the propositions — and exposes the measured amortized utilization that
// the lemmas exist to bound.
package analysis

import (
	"fmt"
	"math"

	"dbp/internal/interval"
	"dbp/internal/packing"
)

// BinPeriods is the Section IV decomposition of one bin's usage period
// U_k into V_k and W_k: E_k is the latest closing time of all bins opened
// before b_k (E_1 = U_1^-); V_k = [U_k^-, min(U_k^+, E_k)) is the part of
// the usage period overlapped by earlier bins' horizon, and W_k = U_k \
// V_k is the rest. The W_k are pairwise disjoint and together cover
// exactly span(R), giving FF_total = sum |V_k| + span(R) (eq. (1)).
type BinPeriods struct {
	Bin *packing.ServerRecord
	E   float64
	V   interval.Interval // possibly empty
	W   interval.Interval // possibly empty
}

// Decompose computes the Section IV decomposition for every bin of a
// packing result. Bins must be in opening order (as packing.Result
// guarantees).
type Decomposition struct {
	Result  *packing.Result
	Periods []BinPeriods
}

// Decompose builds the usage-period decomposition of the given run. It
// panics on keep-alive runs: the Section IV identities (sum |W_k| =
// span) assume bins close the instant they empty, which lingering
// servers deliberately violate.
func Decompose(res *packing.Result) *Decomposition {
	if res.KeepAlive > 0 {
		panic("analysis: Decompose requires a close-on-empty run (KeepAlive = 0)")
	}
	d := &Decomposition{Result: res, Periods: make([]BinPeriods, len(res.Bins))}
	latestClose := math.Inf(-1)
	for k := range res.Bins {
		b := &res.Bins[k]
		u := b.UsagePeriod()
		e := u.Lo // E_1 = U_1^- for the first bin
		if k > 0 {
			e = latestClose
		}
		var v, w interval.Interval
		if e <= u.Lo {
			v = interval.Interval{}
			w = u
		} else if e >= u.Hi {
			v = u
			w = interval.Interval{}
		} else {
			v = interval.Interval{Lo: u.Lo, Hi: e}
			w = interval.Interval{Lo: e, Hi: u.Hi}
		}
		d.Periods[k] = BinPeriods{Bin: b, E: e, V: v, W: w}
		if u.Hi > latestClose {
			latestClose = u.Hi
		}
	}
	return d
}

// SumV returns sum over bins of |V_k|.
func (d *Decomposition) SumV() float64 {
	var s float64
	for _, p := range d.Periods {
		s += p.V.Length()
	}
	return s
}

// Verify checks the structural identities of Section IV on this
// decomposition:
//
//  1. V_k and W_k partition U_k (lengths add up; V precedes W).
//  2. The W_k are pairwise disjoint.
//  3. sum |W_k| = span(R).
//  4. FF_total = sum |V_k| + span(R)  (equation (1)).
//
// It returns an error describing the first violated identity.
func (d *Decomposition) Verify() error {
	const tol = 1e-9
	span := d.Result.Items.Span()
	var wset *interval.Set = interval.NewSet()
	for k, p := range d.Periods {
		u := p.Bin.UsagePeriod()
		if math.Abs(p.V.Length()+p.W.Length()-u.Length()) > tol {
			return fmt.Errorf("bin %d: |V|+|W| = %g != |U| = %g", k, p.V.Length()+p.W.Length(), u.Length())
		}
		if !p.V.Empty() && p.V.Lo != u.Lo {
			return fmt.Errorf("bin %d: V must be a prefix of U", k)
		}
		if !p.W.Empty() && p.W.Hi != u.Hi {
			return fmt.Errorf("bin %d: W must be a suffix of U", k)
		}
		if !p.W.Empty() {
			if wset.Overlaps(p.W) {
				return fmt.Errorf("bin %d: W_k overlaps an earlier W", k)
			}
			wset.Add(p.W)
		}
	}
	if math.Abs(wset.Measure()-span) > tol*(1+span) {
		return fmt.Errorf("sum |W_k| = %g != span = %g", wset.Measure(), span)
	}
	if got := d.SumV() + span; math.Abs(got-d.Result.TotalUsage) > tol*(1+got) {
		return fmt.Errorf("sum|V| + span = %g != total usage = %g", got, d.Result.TotalUsage)
	}
	return nil
}
