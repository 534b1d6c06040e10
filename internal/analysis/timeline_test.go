package analysis

import (
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
