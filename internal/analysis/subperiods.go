package analysis

import (
	"fmt"
	"math"
	"sort"

	"dbp/internal/interval"
	"dbp/internal/item"
	"dbp/internal/packing"
)

// smallThreshold is the size boundary of Section V: items of size below
// 1/2 are "small", items of size at least 1/2 are "large". During an
// h-subperiod no small item resides in the bin, so every resident is
// large and the bin level is at least 1/2 (Proposition 6).
const smallThreshold = 0.5

// Subperiod is one l- or h-subperiod produced from a bin's V_k period.
type Subperiod struct {
	Interval interval.Interval
	// High marks an h-subperiod (bin level provably >= 1/2); false means
	// an l-subperiod (potentially low utilization, compensated by a
	// supplier bin in the paper's analysis).
	High bool
	// Index is the i of x_{l,i}/x_{h,i} in the paper's numbering: the
	// 0-based position of the selected-item gap this subperiod came from.
	Index int
	// SelectedID is the small item whose arrival starts the period (the
	// paper's p_i), valid for l-subperiods with Index >= 1.
	SelectedID int64
	// SupplierIndex is the index of the supplier bin (the last-opened bin
	// with a lower index that is open at the subperiod's left endpoint),
	// or -1 when not applicable (h-subperiods).
	SupplierIndex int
}

// BinSubperiods is the full Section V output for one bin.
type BinSubperiods struct {
	Bin *packing.ServerRecord
	V   interval.Interval
	// Window is the selection window: the maximum item duration of the
	// instance. The paper normalizes the minimum duration to 1, making
	// this equal to mu; for unnormalized instances the maximum duration
	// is the correct window (it is what bounds how long a small item can
	// linger in a bin).
	Window     float64
	Selected   item.List   // the selected small items, in arrival order
	Subperiods []Subperiod // x_h,0, x_l,1, x_h,1, x_l,2, ... (empty ones omitted)
}

// selectSmallItems runs the Section V item-selection process on the small
// items placed into the bin during its V period, with selection window mu
// (the maximum item duration):
//
//   - start with the first small item placed in the bin during V;
//   - from the current selected item r, if other small items are placed
//     in the bin within duration mu (inclusive) after r's arrival, select
//     the last of them; otherwise select the first small item placed
//     after that window;
//   - stop once a selected item arrives within mu (inclusive) of V's end,
//     or the last small item of V has been selected.
func selectSmallItems(b *packing.ServerRecord, v interval.Interval, mu float64) item.List {
	var cands item.List
	for _, it := range b.Items {
		if it.Size < smallThreshold && v.Contains(it.Arrival) {
			cands = append(cands, it)
		}
	}
	sort.SliceStable(cands, func(i, j int) bool { return cands[i].Arrival < cands[j].Arrival })
	if len(cands) == 0 {
		return nil
	}
	selected := item.List{cands[0]}
	for {
		cur := selected[len(selected)-1]
		// Termination (i): selected item within mu (inclusive) of V's end.
		if v.Hi-cur.Arrival <= mu {
			break
		}
		// Find small items placed in (cur.Arrival, cur.Arrival+mu].
		lastInWindow := -1
		firstAfter := -1
		for i, c := range cands {
			if c.Arrival <= cur.Arrival {
				continue
			}
			if c.Arrival-cur.Arrival <= mu {
				lastInWindow = i
			} else if firstAfter < 0 {
				firstAfter = i
				break
			}
		}
		switch {
		case lastInWindow >= 0:
			selected = append(selected, cands[lastInWindow])
		case firstAfter >= 0:
			selected = append(selected, cands[firstAfter])
		default:
			// Termination (ii): last small item of V already selected.
			return selected
		}
	}
	return selected
}

// splitSubperiods builds the ordered list x_h,0, x_l,1, x_h,1, ... for a
// bin from its selected items: x_0 (before the first selected arrival) is
// entirely an h-subperiod; each x_i between consecutive selected arrivals
// (and after the last one, to V's end) contributes an l-subperiod of
// length at most mu and, if longer than mu, a trailing h-subperiod.
// Empty subperiods are omitted.
func splitSubperiods(v interval.Interval, selected item.List, mu float64) []Subperiod {
	var out []Subperiod
	if len(selected) == 0 {
		if !v.Empty() {
			out = append(out, Subperiod{Interval: v, High: true, Index: 0, SupplierIndex: -1})
		}
		return out
	}
	// x_h,0
	if x0 := (interval.Interval{Lo: v.Lo, Hi: selected[0].Arrival}); !x0.Empty() {
		out = append(out, Subperiod{Interval: x0, High: true, Index: 0, SupplierIndex: -1})
	}
	for i := range selected {
		lo := selected[i].Arrival
		hi := v.Hi
		if i+1 < len(selected) {
			hi = selected[i+1].Arrival
		}
		x := interval.Interval{Lo: lo, Hi: hi}
		if x.Empty() {
			continue
		}
		l := x
		var h interval.Interval
		if x.Length() > mu {
			l = interval.Interval{Lo: lo, Hi: lo + mu}
			h = interval.Interval{Lo: lo + mu, Hi: hi}
		}
		out = append(out, Subperiod{
			Interval:      l,
			High:          false,
			Index:         i + 1,
			SelectedID:    int64(selected[i].ID),
			SupplierIndex: -1,
		})
		if !h.Empty() {
			out = append(out, Subperiod{Interval: h, High: true, Index: i + 1, SupplierIndex: -1})
		}
	}
	return out
}

// SubperiodsOf computes the complete Section V structure for every bin of
// a First Fit run: the V/W decomposition, the selected small items, the
// l/h-subperiods, and each l-subperiod's supplier bin (the last-opened
// lower-indexed bin open at the subperiod's left endpoint).
func SubperiodsOf(res *packing.Result) []BinSubperiods {
	mu := res.Items.MaxDuration()
	dec := Decompose(res)
	out := make([]BinSubperiods, 0, len(res.Bins))
	for k, p := range dec.Periods {
		bs := BinSubperiods{Bin: p.Bin, V: p.V, Window: mu}
		if !p.V.Empty() {
			bs.Selected = selectSmallItems(p.Bin, p.V, mu)
			bs.Subperiods = splitSubperiods(p.V, bs.Selected, mu)
			for i := range bs.Subperiods {
				sp := &bs.Subperiods[i]
				if sp.High {
					continue
				}
				sp.SupplierIndex = supplierAt(res, k, sp.Interval.Lo)
			}
		}
		out = append(out, bs)
	}
	return out
}

// supplierAt returns the index of the supplier bin for an l-subperiod of
// bin k starting at time t: the highest-indexed bin with index < k whose
// usage period contains t, or -1 if none exists (which for l-subperiods
// inside V_k would contradict the definition of V — see VerifySubperiods).
func supplierAt(res *packing.Result, k int, t float64) int {
	for j := k - 1; j >= 0; j-- {
		if res.Bins[j].UsagePeriod().Contains(t) {
			return j
		}
	}
	return -1
}

// VerifySubperiods checks Propositions 3–6 and the supplier-bin facts on
// a First Fit run:
//
//   - P3: every l-subperiod has length <= mu;
//   - P4: a new small item is placed in the bin at the left endpoint of
//     every l-subperiod (with index >= 1);
//   - P5: consecutive l-subperiods of one bin have combined length > mu;
//   - P6: the bin level is at least 1/2 throughout every h-subperiod;
//   - every l-subperiod has a supplier bin, and at the subperiod's start
//     the supplier could not fit the selected item: s(R_i) + s(p_i) > 1.
//
// The subperiods of each bin must also tile V_k exactly.
func VerifySubperiods(res *packing.Result, all []BinSubperiods) error {
	const tol = 1e-9
	for _, bs := range all {
		// Tiling.
		var covered float64
		prevHi := bs.V.Lo
		for _, sp := range bs.Subperiods {
			if math.Abs(sp.Interval.Lo-prevHi) > tol {
				return fmt.Errorf("bin %d: subperiod gap at %g", bs.Bin.Index, prevHi)
			}
			prevHi = sp.Interval.Hi
			covered += sp.Interval.Length()
		}
		if math.Abs(covered-bs.V.Length()) > tol {
			return fmt.Errorf("bin %d: subperiods cover %g of |V| = %g", bs.Bin.Index, covered, bs.V.Length())
		}
		if len(bs.Subperiods) > 0 && math.Abs(prevHi-bs.V.Hi) > tol {
			return fmt.Errorf("bin %d: subperiods end at %g, V ends at %g", bs.Bin.Index, prevHi, bs.V.Hi)
		}

		var prevL *Subperiod
		for i := range bs.Subperiods {
			sp := &bs.Subperiods[i]
			if sp.High {
				if err := verifyHighLevel(bs.Bin, sp.Interval); err != nil {
					return fmt.Errorf("bin %d (P6): %w", bs.Bin.Index, err)
				}
				continue
			}
			// P3.
			if sp.Interval.Length() > bs.Window+tol {
				return fmt.Errorf("bin %d (P3): l-subperiod %v longer than mu %g", bs.Bin.Index, sp.Interval, bs.Window)
			}
			// P4: a small item (p_i, of size pi) arrives at the left endpoint.
			pi := itemSizeAt(bs.Bin, sp.Interval.Lo)
			if pi == 0 {
				return fmt.Errorf("bin %d (P4): no small item placed at %g", bs.Bin.Index, sp.Interval.Lo)
			}
			// P5 for consecutive l-subperiods.
			if prevL != nil && prevL.Index+1 == sp.Index {
				if prevL.Interval.Length()+sp.Interval.Length() <= bs.Window-tol {
					return fmt.Errorf("bin %d (P5): |x_l,%d|+|x_l,%d| = %g <= mu %g",
						bs.Bin.Index, prevL.Index, sp.Index,
						prevL.Interval.Length()+sp.Interval.Length(), bs.Window)
				}
			}
			prevL = sp
			// Supplier bin facts (First Fit runs only).
			if res.Algorithm == "FirstFit" {
				if sp.SupplierIndex < 0 {
					return fmt.Errorf("bin %d: l-subperiod at %g has no supplier bin", bs.Bin.Index, sp.Interval.Lo)
				}
				ri := levelJustBefore(&res.Bins[sp.SupplierIndex], sp.Interval.Lo, sp.SelectedID)
				if ri+pi <= 1+tol {
					// First Fit would have placed p_i in the supplier.
					return fmt.Errorf("bin %d: supplier %d had room (%g + %g <= 1) at %g",
						bs.Bin.Index, sp.SupplierIndex, ri, pi, sp.Interval.Lo)
				}
			}
		}
	}
	return nil
}

// verifyHighLevel checks the bin level stays >= 1/2 across an h-subperiod
// by sampling at the subperiod start and every resident-set change inside.
func verifyHighLevel(b *packing.ServerRecord, h interval.Interval) error {
	pts := []float64{h.Lo}
	for _, it := range b.Items {
		if h.Contains(it.Arrival) {
			pts = append(pts, it.Arrival)
		}
		if h.Contains(it.Departure) {
			pts = append(pts, it.Departure)
		}
	}
	for _, t := range pts {
		if lv := b.LevelAt(t); lv < smallThreshold-1e-9 {
			return fmt.Errorf("level %g < 1/2 at t=%g in h-subperiod %v", lv, t, h)
		}
	}
	return nil
}

// itemSizeAt returns the size of the small item placed in b at t, or 0 if
// there is none.
func itemSizeAt(b *packing.ServerRecord, t float64) float64 {
	for _, it := range b.Items {
		if it.Arrival == t && it.Size < smallThreshold {
			return it.Size
		}
	}
	return 0
}

// levelJustBefore reconstructs the supplier bin's level at time t counting
// only items that arrived before the selected item (the paper's R_i: the
// items in the supplier bin at the moment p_i was placed).
func levelJustBefore(b *packing.ServerRecord, t float64, selectedID int64) float64 {
	var lv float64
	for _, it := range b.Items {
		if !it.Interval().Contains(t) {
			continue
		}
		if it.Arrival < t || (it.Arrival == t && int64(it.ID) < selectedID) {
			lv += it.Size
		}
	}
	return lv
}
