package packing

import (
	"fmt"
	"math"
	"strings"

	"dbp/internal/bins"
	"dbp/internal/item"
)

// Result is the complete outcome of one packing run: the objective values,
// a record of every server, sufficient to reconstruct the state of every
// server at any time (used by the analysis package to re-derive the
// paper's proof decomposition on concrete runs), and Server, each item's
// server by its position in Items.
type Result struct {
	Algorithm string
	Items     item.List
	// Bins records every server the run opened, in opening order.
	Bins []ServerRecord
	// Server[i] is the index of the bin that served Items[i].
	Server []int
	// TotalUsage is the MinUsageTime objective: sum over bins of usage
	// period length (server renting time under pay-as-you-go billing).
	TotalUsage float64
	// MaxConcurrentOpen is the classical DBP objective: the peak number of
	// simultaneously open bins (lingering bins count: they are rented).
	MaxConcurrentOpen int
	// KeepAlive is the keep-alive duration the run used (0 = the paper's
	// model: bins close the instant they empty).
	KeepAlive float64
}

// NumBins returns the total number of bins opened during the run.
func (r *Result) NumBins() int { return len(r.Bins) }

// Verify re-checks the physical validity of the packing from the server
// records, independently of the simulator's bookkeeping: every record at
// its own Index, every item placed exactly once, capacity respected in
// every server on every segment of its timeline, usage periods spanning
// exactly their items' activity, and the recomputed objectives matching
// the reported ones. Tests call this after every run; it is the ground
// truth the experiments rest on.
func (r *Result) Verify() error {
	placed := make(map[item.ID]int)
	var usage float64
	for k, b := range r.Bins {
		if b.Index != k {
			return fmt.Errorf("bin at position %d has index %d", k, b.Index)
		}
		if len(b.Items) == 0 {
			return fmt.Errorf("bin %d served no items", b.Index)
		}
		var lo, hi = math.Inf(1), math.Inf(-1)
		dim := 1
		for _, it := range b.Items {
			if prev, dup := placed[it.ID]; dup {
				return fmt.Errorf("item %d placed in bins %d and %d", it.ID, prev, b.Index)
			}
			placed[it.ID] = b.Index
			lo = math.Min(lo, it.Arrival)
			hi = math.Max(hi, it.Departure)
			dim = max(dim, it.Dim())
		}
		wantHi := hi + r.KeepAlive // bins linger keepAlive past their last departure
		// Both endpoints tolerate float accumulation error; an exact Lo
		// comparison would false-fail legitimate packings whose arrival
		// times are not exactly representable.
		if math.Abs(b.UsagePeriod().Lo-lo) > 1e-9 || math.Abs(b.UsagePeriod().Hi-wantHi) > 1e-9 {
			return fmt.Errorf("bin %d usage period %v does not match items' hull [%g, %g)", b.Index, b.UsagePeriod(), lo, wantHi)
		}
		if err := checkCapacity(&b, dim); err != nil {
			return err
		}
		usage += b.Usage()
	}
	for i, it := range r.Items {
		idx, ok := placed[it.ID]
		if !ok {
			return fmt.Errorf("item %d never placed", it.ID)
		}
		if i < len(r.Server) && r.Server[i] != idx {
			return fmt.Errorf("item %d has server %d, but bin %d holds it", it.ID, r.Server[i], idx)
		}
	}
	if len(r.Server) != len(r.Items) {
		return fmt.Errorf("%d server entries for %d items", len(r.Server), len(r.Items))
	}
	if len(placed) != len(r.Items) {
		return fmt.Errorf("placed %d items, instance has %d", len(placed), len(r.Items))
	}
	if math.Abs(usage-r.TotalUsage) > 1e-6*(1+math.Abs(usage)) {
		return fmt.Errorf("recomputed usage %g != reported %g", usage, r.TotalUsage)
	}
	return nil
}

// checkCapacity sums the server's per-dimension level on every segment of
// its items' timeline, in placement order, and reports the first segment
// that exceeds the capacity.
func checkCapacity(b *ServerRecord, dim int) error {
	var err error
	lv := make([]float64, dim)
	b.Items.Segments(func(t, _ float64, active []int) {
		if err != nil {
			return
		}
		clear(lv)
		for _, i := range active {
			for d, s := range b.Items[i].SizeVec() {
				lv[d] += s
			}
		}
		for d := range lv {
			if lv[d] > b.Capacity+bins.Eps {
				err = fmt.Errorf("bin %d over capacity in dim %d at t=%g: level %g", b.Index, d, t, lv[d])
				return
			}
		}
	})
	return err
}

// String renders a one-line summary of the run.
func (r *Result) String() string {
	return fmt.Sprintf("%s: %d items, %d bins, usage %.6g, peak open %d",
		r.Algorithm, len(r.Items), r.NumBins(), r.TotalUsage, r.MaxConcurrentOpen)
}

// Describe renders a multi-line report of the packing, bin by bin, for the
// CLI tools and examples.
func (r *Result) Describe() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "%s\n", r.String())
	for _, b := range r.Bins {
		fmt.Fprintf(&sb, "  bin %3d  usage %v (%.6g)  items:", b.Index, b.UsagePeriod(), b.Usage())
		for _, it := range b.Items {
			fmt.Fprintf(&sb, " %d(%.3g)", it.ID, it.Size)
		}
		sb.WriteByte('\n')
	}
	return sb.String()
}
