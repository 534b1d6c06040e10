package analysis

import (
	"fmt"
	"sort"
	"strings"

	"dbp/internal/packing"
)

// EventLog renders a chronological, human-readable audit trail of a
// packing run: every server opening, placement, departure and closing,
// with the bin level after each event. It is the debugging companion to
// RenderTimeline — what the Gantt chart shows spatially, the log shows
// causally.
func EventLog(res *packing.Result) string {
	type ev struct {
		t    float64
		kind int // 0 depart, 1 close, 2 open, 3 place — renders in a stable, causal order
		bin  int
		id   int64
		size float64
	}
	var evs []ev
	for _, b := range res.Bins {
		u := b.UsagePeriod()
		evs = append(evs, ev{t: u.Lo, kind: 2, bin: b.Index})
		evs = append(evs, ev{t: u.Hi, kind: 1, bin: b.Index})
		for _, it := range b.Items {
			evs = append(evs, ev{t: it.Arrival, kind: 3, bin: b.Index, id: int64(it.ID), size: it.Size})
			evs = append(evs, ev{t: it.Departure, kind: 0, bin: b.Index, id: int64(it.ID), size: it.Size})
		}
	}
	sort.SliceStable(evs, func(i, j int) bool {
		if evs[i].t != evs[j].t {
			return evs[i].t < evs[j].t
		}
		if evs[i].kind != evs[j].kind {
			return evs[i].kind < evs[j].kind
		}
		return evs[i].id < evs[j].id
	})

	var sb strings.Builder
	fmt.Fprintf(&sb, "event log: %s\n", res.String())
	for _, e := range evs {
		switch e.kind {
		case 2:
			fmt.Fprintf(&sb, "t=%-10.4g open   bin %d\n", e.t, e.bin)
		case 3:
			fmt.Fprintf(&sb, "t=%-10.4g place  item %d (%.3g) -> bin %d (level %.3g)\n",
				e.t, e.id, e.size, e.bin, res.Bins[e.bin].LevelAt(e.t))
		case 0:
			fmt.Fprintf(&sb, "t=%-10.4g depart item %d (%.3g) <- bin %d\n", e.t, e.id, e.size, e.bin)
		case 1:
			fmt.Fprintf(&sb, "t=%-10.4g close  bin %d\n", e.t, e.bin)
		}
	}
	return sb.String()
}
