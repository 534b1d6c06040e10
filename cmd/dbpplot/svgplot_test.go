package main

import (
	"encoding/xml"
	"strings"
	"testing"

	"dbp/internal/item"
	"dbp/internal/packing"
)

func wellFormed(t *testing.T, svg string) {
	t.Helper()
	dec := xml.NewDecoder(strings.NewReader(svg))
	for {
		_, err := dec.Token()
		if err != nil {
			if err.Error() == "EOF" {
				return
			}
			t.Fatalf("SVG not well-formed: %v\n%s", err, svg)
		}
	}
}

func TestPlotRender(t *testing.T) {
	p := &Plot{
		Title:  "ratio vs n",
		XLabel: "n",
		YLabel: "ratio",
		Series: []Series{
			{Name: "NextFit", X: []float64{4, 16, 64}, Y: []float64{3.2, 8, 12.8}},
			{Name: "FirstFit", X: []float64{4, 16, 64}, Y: []float64{1, 1, 1}},
		},
	}
	svg := p.Render()
	wellFormed(t, svg)
	for _, want := range []string{"polyline", "NextFit", "FirstFit", "ratio vs n", "circle"} {
		if !strings.Contains(svg, want) {
			t.Fatalf("missing %q", want)
		}
	}
}

func TestPlotLogX(t *testing.T) {
	p := &Plot{
		LogX: true,
		Series: []Series{
			{Name: "s", X: []float64{1, 10, 100, 1000}, Y: []float64{1, 2, 3, 4}},
		},
	}
	svg := p.Render()
	wellFormed(t, svg)
	// Log spacing: the gap between x(1) and x(10) equals x(10) to x(100).
	// Extract circle cx values.
	var cx []string
	for _, line := range strings.Split(svg, "\n") {
		if strings.HasPrefix(line, "<circle") {
			parts := strings.Split(line, `"`)
			cx = append(cx, parts[1])
		}
	}
	if len(cx) != 4 {
		t.Fatalf("expected 4 points, got %d", len(cx))
	}
}

func TestPlotEmpty(t *testing.T) {
	p := &Plot{Title: "empty"}
	wellFormed(t, p.Render())
}

func TestPlotEscapesXML(t *testing.T) {
	p := &Plot{Title: `a < b & "c"`, Series: []Series{{Name: "<s>", X: []float64{0, 1}, Y: []float64{0, 1}}}}
	svg := p.Render()
	wellFormed(t, svg)
	if strings.Contains(svg, "a < b &") {
		t.Fatal("title not escaped")
	}
}

func TestGantt(t *testing.T) {
	l := item.List{
		{ID: 1, Size: 0.9, Arrival: 0, Departure: 4},
		{ID: 2, Size: 0.9, Arrival: 2, Departure: 6},
	}
	res := packing.MustRun(packing.NewFirstFit(), l, nil)
	svg := Gantt(res, 0)
	wellFormed(t, svg)
	if strings.Count(svg, "<rect") < 4 { // background + 2 usage + 2 items
		t.Fatalf("too few rects:\n%s", svg)
	}
	// Keep-alive run shows gray lingering beyond the items.
	ka := packing.MustRun(packing.NewFirstFit(), l, &packing.Options{KeepAlive: 2})
	wellFormed(t, Gantt(ka, 600))
}
