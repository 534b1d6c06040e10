package analysis

import (
	"math"
	"strings"
	"testing"

	"dbp/internal/item"
	"dbp/internal/packing"
)

func TestRenderTimelineBasic(t *testing.T) {
	l := item.List{
		mk(1, 0.9, 0, 4),
		mk(2, 0.9, 2, 6),
	}
	res := packing.MustRun(packing.NewFirstFit(), l, nil)
	out := RenderTimeline(res, 40)
	if !strings.Contains(out, "bin   0") || !strings.Contains(out, "bin   1") {
		t.Fatalf("missing bin rows:\n%s", out)
	}
	if !strings.Contains(out, "#") {
		t.Fatalf("no occupancy marks:\n%s", out)
	}
	if !strings.Contains(out, "usage 8") {
		t.Fatalf("missing usage summary:\n%s", out)
	}
}

func TestRenderTimelineEmpty(t *testing.T) {
	res := packing.MustRun(packing.NewFirstFit(), item.List{}, nil)
	if out := RenderTimeline(res, 40); !strings.Contains(out, "empty") {
		t.Fatalf("empty rendering: %q", out)
	}
}

func TestRenderTimelineShowsLingering(t *testing.T) {
	l := item.List{mk(1, 0.9, 0, 2)}
	res := packing.MustRun(packing.NewFirstFit(), l, &packing.Options{KeepAlive: 2})
	out := RenderTimeline(res, 40)
	if !strings.Contains(out, ".") {
		t.Fatalf("lingering tail not rendered:\n%s", out)
	}
}

func TestRenderTimelineMinWidth(t *testing.T) {
	l := item.List{mk(1, 0.9, 0, 1)}
	res := packing.MustRun(packing.NewFirstFit(), l, nil)
	if out := RenderTimeline(res, 1); out == "" {
		t.Fatal("min width rendering failed")
	}
}

func TestLevelHistogramMassAndPlacement(t *testing.T) {
	// One bin at level 0.75 for its whole life: all mass in bucket 7 of 10.
	l := item.List{mk(1, 0.75, 0, 4)}
	res := packing.MustRun(packing.NewFirstFit(), l, nil)
	hist := LevelHistogram(res, 10)
	var total float64
	for i, h := range hist {
		total += h
		if i != 7 && h != 0 {
			t.Fatalf("unexpected mass %g in bucket %d", h, i)
		}
	}
	if math.Abs(total-1) > 1e-9 {
		t.Fatalf("histogram mass %g != 1", total)
	}
	if hist[7] != 1 {
		t.Fatalf("bucket 7 = %g, want 1", hist[7])
	}
}

func TestLevelHistogramSteps(t *testing.T) {
	// Level 0.3 on [0,2), 0.8 on [2,4) -> half the mass in each bucket.
	l := item.List{
		mk(1, 0.3, 0, 4),
		mk(2, 0.5, 2, 4),
	}
	res := packing.MustRun(packing.NewFirstFit(), l, nil)
	hist := LevelHistogram(res, 10)
	if math.Abs(hist[3]-0.5) > 1e-9 || math.Abs(hist[8]-0.5) > 1e-9 {
		t.Fatalf("hist = %v", hist)
	}
}

func TestEventLog(t *testing.T) {
	l := item.List{
		mk(1, 0.5, 0, 2),
		mk(2, 0.5, 1, 3),
	}
	res := packing.MustRun(packing.NewFirstFit(), l, nil)
	out := EventLog(res)
	for _, want := range []string{"open   bin 0", "place  item 1", "place  item 2", "depart item 1", "close  bin 0"} {
		if !strings.Contains(out, want) {
			t.Fatalf("missing %q in:\n%s", want, out)
		}
	}
	// Chronology: open before place before depart before close.
	if strings.Index(out, "open   bin 0") > strings.Index(out, "place  item 1") {
		t.Fatal("open must precede first placement")
	}
	if strings.Index(out, "depart item 2") > strings.Index(out, "close  bin 0") {
		t.Fatal("last departure must precede close")
	}
}
