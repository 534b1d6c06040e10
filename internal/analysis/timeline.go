package analysis

import (
	"fmt"
	"strings"

	"dbp/internal/packing"
)

// RenderTimeline draws an ASCII Gantt chart of a packing run: one row per
// bin, time on the horizontal axis, '#' where the bin holds items, '.'
// where it lingers empty (keep-alive), and spaces where it is closed.
// width is the number of character columns for the time axis (minimum
// 10). It is the visualization behind cmd/dbpsim's -gantt flag and makes
// the usage-period structure of Sections IV–V visible at a glance.
func RenderTimeline(res *packing.Result, width int) string {
	if width < 10 {
		width = 10
	}
	if len(res.Bins) == 0 {
		return "(empty packing)\n"
	}
	period := res.Items.PackingPeriod()
	lo := period.Lo
	hi := period.Hi + res.KeepAlive
	if hi <= lo {
		hi = lo + 1
	}
	scale := float64(width) / (hi - lo)
	col := func(t float64) int {
		c := int((t - lo) * scale)
		if c < 0 {
			c = 0
		}
		if c >= width {
			c = width - 1
		}
		return c
	}

	var sb strings.Builder
	fmt.Fprintf(&sb, "time %-*s\n", width, fmt.Sprintf("[%.4g .. %.4g)", lo, hi))
	for _, b := range res.Bins {
		row := make([]byte, width)
		for i := range row {
			row[i] = ' '
		}
		u := b.UsagePeriod()
		for c := col(u.Lo); c <= col(u.Hi-1e-12); c++ {
			row[c] = '.'
		}
		// Overlay occupied stretches from the items.
		for j := range b.Pos {
			it := b.Item(j)
			for c := col(it.Arrival); c <= col(it.Departure-1e-12); c++ {
				row[c] = '#'
			}
		}
		fmt.Fprintf(&sb, "bin %3d |%s| %.4g\n", b.Index, row, b.Usage())
	}
	fmt.Fprintf(&sb, "usage %.6g over %d bins; '#' occupied, '.' lingering\n", res.TotalUsage, res.NumBins())
	return sb.String()
}
