package packing

import (
	"fmt"
	"math"
	"slices"
	"strings"

	"dbp/internal/bins"
	"dbp/internal/fanout"
	"dbp/internal/item"
)

// Result is the complete outcome of one packing run: the objective values,
// a record of every server, sufficient to reconstruct the state of every
// server at any time (used by the analysis package to re-derive the
// paper's proof decomposition on concrete runs), and Server, each item's
// server by its position in Items. A Result copies no item: Items is the
// run's own list, and every record reads its items from it by position,
// so a Result aliases its input, which must not change while the Result
// is read.
type Result struct {
	Algorithm string
	Items     item.List
	// Bins records every server the run opened, in opening order; each
	// holds the positions in Items of the items it served.
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
// its own Index, every item placed exactly once (each record's positions
// in range, in no other record and agreeing with Server), capacity
// respected in every server on every segment of its timeline, usage
// periods spanning exactly their items' activity, and the recomputed
// objectives matching the reported ones. Tests call this after every run;
// it is the ground truth the experiments rest on.
//
// The servers are checked in parallel, in contiguous chunks of about
// 4,096 items on at most GOMAXPROCS goroutines (a Result of one chunk on
// the caller's), each worker reusing one scratch. The error is
// the one a loop over the servers in order reports: that of the
// lowest-indexed failing server, with the same text.
func (r *Result) Verify() error {
	if len(r.Server) != len(r.Items) {
		return fmt.Errorf("%d server entries for %d items", len(r.Server), len(r.Items))
	}
	bounds := chunkBounds(r.Bins)
	chunks := len(bounds) - 1
	// placed[p]: Items[p] is in bin Server[p]. Only the chunk holding that
	// bin reads or writes it before the fan-out returns.
	placed := make([]bool, len(r.Items))
	scratch := make([]verifyScratch, fanout.Workers(chunks))
	err := fanout.Each(chunks, func(w, c int) error {
		for k := bounds[c]; k < bounds[c+1]; k++ {
			if err := r.checkServer(k, placed, &scratch[w]); err != nil {
				return err
			}
		}
		return nil
	})
	if m, ok := err.(*misplaced); ok && m.server < m.bin && placed[m.pos] {
		// Every server below m.bin passed, bin m.server among them, so it
		// holds the item too.
		return fmt.Errorf("item %d placed in bins %d and %d", r.Items[m.pos].ID, m.server, m.bin)
	}
	if err != nil {
		return err
	}
	for i, it := range r.Items {
		if !placed[i] {
			return fmt.Errorf("item %d never placed", it.ID)
		}
	}
	var usage float64
	for k := range r.Bins {
		usage += r.Bins[k].Usage()
	}
	if math.Abs(usage-r.TotalUsage) > 1e-6*(1+math.Abs(usage)) {
		return fmt.Errorf("recomputed usage %g != reported %g", usage, r.TotalUsage)
	}
	return nil
}

// verifyChunk is the number of items from which Verify closes a chunk of
// servers: a chunk is a few hundred microseconds of checking, and a
// Result of fewer items is one chunk, checked on the caller's goroutine.
const verifyChunk = 4096

// chunkBounds cuts servers into Verify's chunks: chunk c is the servers
// from bounds[c] to bounds[c+1], and a chunk closes once it holds
// verifyChunk items.
func chunkBounds(servers []ServerRecord) (bounds []int) {
	bounds, size := []int{0}, 0
	for k := range servers {
		if size += len(servers[k].Pos); size >= verifyChunk && k+1 < len(servers) {
			bounds, size = append(bounds, k+1), 0
		}
	}
	return append(bounds, len(servers))
}

// verifyScratch is one Verify worker's memory, reused server by server:
// the capacity sweep's keys and active set, and its levels.
type verifyScratch struct {
	sweep item.Sweep
	level []float64
}

// misplaced is the error of a bin that holds the position pos while
// Server[pos] names another bin, server. A loop over the servers in order
// reports it as a double placement if server is an earlier bin and holds
// pos too, which Verify tells only once every chunk has marked its items.
type misplaced struct {
	pos         int32
	server, bin int
	id          item.ID
}

func (m *misplaced) Error() string {
	return fmt.Sprintf("item %d has server %d, but bin %d holds it", m.id, m.server, m.bin)
}

// checkServer checks Bins[k] and marks its items in placed.
func (r *Result) checkServer(k int, placed []bool, s *verifyScratch) error {
	b := &r.Bins[k]
	if b.Index != k {
		return fmt.Errorf("bin at position %d has index %d", k, b.Index)
	}
	if len(b.Pos) == 0 {
		return fmt.Errorf("bin %d served no items", k)
	}
	var lo, hi = math.Inf(1), math.Inf(-1)
	dim := 1
	for _, p := range b.Pos {
		if p < 0 || int(p) >= len(r.Items) {
			return fmt.Errorf("bin %d holds position %d, outside the %d items", k, p, len(r.Items))
		}
		it := &r.Items[p]
		if r.Server[p] != k {
			return &misplaced{p, r.Server[p], k, it.ID}
		}
		if placed[p] {
			return fmt.Errorf("item %d placed in bins %d and %d", it.ID, k, k)
		}
		placed[p] = true
		lo = math.Min(lo, it.Arrival)
		hi = math.Max(hi, it.Departure)
		dim = max(dim, it.Dim())
	}
	wantHi := hi + r.KeepAlive // bins linger keepAlive past their last departure
	// Both endpoints tolerate float accumulation error; an exact Lo
	// comparison would false-fail legitimate packings whose arrival
	// times are not exactly representable.
	if math.Abs(b.UsagePeriod().Lo-lo) > 1e-9 || math.Abs(b.UsagePeriod().Hi-wantHi) > 1e-9 {
		return fmt.Errorf("bin %d usage period %v does not match items' hull [%g, %g)", k, b.UsagePeriod(), lo, wantHi)
	}
	return s.checkCapacity(b, r.Items, dim)
}

// checkCapacity sums the server's per-dimension level on every segment of
// its items' timeline, in placement order, and reports the first segment
// that exceeds the capacity.
func (s *verifyScratch) checkCapacity(b *ServerRecord, items item.List, dim int) error {
	var err error
	lv := slices.Grow(s.level[:0], dim)[:dim]
	s.level = lv
	s.sweep.Segments(items, b.Pos, func(t, _ float64, active []int) {
		if err != nil {
			return
		}
		clear(lv)
		for _, j := range active {
			it := &items[b.Pos[j]]
			if len(it.Sizes) == 0 {
				lv[0] += it.Size
				continue
			}
			for d, x := range it.Sizes {
				lv[d] += x
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
		for j := range b.Pos {
			it := b.Item(j)
			fmt.Fprintf(&sb, " %d(%.3g)", it.ID, it.Size)
		}
		sb.WriteByte('\n')
	}
	return sb.String()
}
