package main

// This file renders self-contained SVG line charts and Gantt charts with
// no dependencies: main turns experiment series (Next Fit ratio vs n,
// keep-alive vs bill, ...) into the figures a paper reproduction ships.

import (
	"fmt"
	"math"
	"strings"

	"dbp/internal/packing"
)

// Series is one named line in a chart.
type Series struct {
	Name string
	X, Y []float64
}

// Plot is a 2-D line chart.
type Plot struct {
	Title  string
	XLabel string
	YLabel string
	// LogX draws the x axis on a log10 scale (n sweeps span decades).
	LogX   bool
	Series []Series
	W, H   int // canvas size; 0 means 720x440
}

// palette holds distinguishable stroke colors; series cycle through it.
var palette = []string{"#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b", "#17becf"}

const margin = 56.0

// Render produces the SVG document.
func (p *Plot) Render() string {
	w, h := float64(p.W), float64(p.H)
	if w == 0 {
		w = 720
	}
	if h == 0 {
		h = 440
	}
	xmin, xmax, ymin, ymax := p.bounds()
	tx := func(x float64) float64 {
		if p.LogX {
			x = math.Log10(x)
		}
		lo, hi := xmin, xmax
		if p.LogX {
			lo, hi = math.Log10(xmin), math.Log10(xmax)
		}
		if hi == lo {
			return margin
		}
		return margin + (x-lo)/(hi-lo)*(w-2*margin)
	}
	ty := func(y float64) float64 {
		if ymax == ymin {
			return h - margin
		}
		return h - margin - (y-ymin)/(ymax-ymin)*(h-2*margin)
	}

	var sb strings.Builder
	fmt.Fprintf(&sb, `<svg xmlns="http://www.w3.org/2000/svg" width="%g" height="%g" viewBox="0 0 %g %g">`+"\n", w, h, w, h)
	fmt.Fprintf(&sb, `<rect width="%g" height="%g" fill="white"/>`+"\n", w, h)
	fmt.Fprintf(&sb, `<text x="%g" y="24" text-anchor="middle" font-family="sans-serif" font-size="16">%s</text>`+"\n", w/2, esc(p.Title))

	// Axes.
	fmt.Fprintf(&sb, `<line x1="%g" y1="%g" x2="%g" y2="%g" stroke="black"/>`+"\n", margin, h-margin, w-margin, h-margin)
	fmt.Fprintf(&sb, `<line x1="%g" y1="%g" x2="%g" y2="%g" stroke="black"/>`+"\n", margin, margin, margin, h-margin)
	fmt.Fprintf(&sb, `<text x="%g" y="%g" text-anchor="middle" font-family="sans-serif" font-size="12">%s</text>`+"\n", w/2, h-12, esc(p.XLabel))
	fmt.Fprintf(&sb, `<text x="16" y="%g" text-anchor="middle" font-family="sans-serif" font-size="12" transform="rotate(-90 16 %g)">%s</text>`+"\n", h/2, h/2, esc(p.YLabel))

	// Ticks: 5 per axis.
	for i := 0; i <= 4; i++ {
		fy := ymin + (ymax-ymin)*float64(i)/4
		y := ty(fy)
		fmt.Fprintf(&sb, `<line x1="%g" y1="%g" x2="%g" y2="%g" stroke="#ccc"/>`+"\n", margin, y, w-margin, y)
		fmt.Fprintf(&sb, `<text x="%g" y="%g" text-anchor="end" font-family="sans-serif" font-size="10">%.3g</text>`+"\n", margin-6, y+3, fy)

		var fx float64
		if p.LogX {
			fx = math.Pow(10, math.Log10(xmin)+(math.Log10(xmax)-math.Log10(xmin))*float64(i)/4)
		} else {
			fx = xmin + (xmax-xmin)*float64(i)/4
		}
		x := tx(fx)
		fmt.Fprintf(&sb, `<text x="%g" y="%g" text-anchor="middle" font-family="sans-serif" font-size="10">%.3g</text>`+"\n", x, h-margin+16, fx)
	}

	// Series.
	for si, s := range p.Series {
		color := palette[si%len(palette)]
		var pts []string
		for i := range s.X {
			pts = append(pts, fmt.Sprintf("%.2f,%.2f", tx(s.X[i]), ty(s.Y[i])))
		}
		fmt.Fprintf(&sb, `<polyline fill="none" stroke="%s" stroke-width="2" points="%s"/>`+"\n", color, strings.Join(pts, " "))
		for i := range s.X {
			fmt.Fprintf(&sb, `<circle cx="%.2f" cy="%.2f" r="3" fill="%s"/>`+"\n", tx(s.X[i]), ty(s.Y[i]), color)
		}
		// Legend entry.
		ly := margin + float64(si)*18
		fmt.Fprintf(&sb, `<line x1="%g" y1="%g" x2="%g" y2="%g" stroke="%s" stroke-width="2"/>`+"\n", w-margin-140, ly, w-margin-116, ly, color)
		fmt.Fprintf(&sb, `<text x="%g" y="%g" font-family="sans-serif" font-size="11">%s</text>`+"\n", w-margin-110, ly+4, esc(s.Name))
	}
	sb.WriteString("</svg>\n")
	return sb.String()
}

func (p *Plot) bounds() (xmin, xmax, ymin, ymax float64) {
	xmin, ymin = math.Inf(1), math.Inf(1)
	xmax, ymax = math.Inf(-1), math.Inf(-1)
	for _, s := range p.Series {
		for i := range s.X {
			xmin, xmax = math.Min(xmin, s.X[i]), math.Max(xmax, s.X[i])
			ymin, ymax = math.Min(ymin, s.Y[i]), math.Max(ymax, s.Y[i])
		}
	}
	if math.IsInf(xmin, 1) {
		return 0, 1, 0, 1
	}
	// Pad y a little so lines do not hug the frame.
	pad := (ymax - ymin) * 0.05
	if pad == 0 {
		pad = 1
	}
	ymin -= pad
	ymax += pad
	if ymin > 0 && ymin < pad*2 {
		ymin = 0
	}
	return xmin, xmax, ymin, ymax
}

// Gantt renders a packing run as an SVG Gantt chart: one row per bin,
// occupied stretches in color, lingering (keep-alive) tails in gray.
func Gantt(res *packing.Result, width int) string {
	if width == 0 {
		width = 900
	}
	rowH, top := 14.0, 40.0
	w := float64(width)
	h := top + rowH*float64(len(res.Bins)) + 30
	period := res.Items.PackingPeriod()
	lo, hi := period.Lo, period.Hi+res.KeepAlive
	if hi <= lo {
		hi = lo + 1
	}
	tx := func(t float64) float64 { return margin + (t-lo)/(hi-lo)*(w-2*margin) }

	var sb strings.Builder
	fmt.Fprintf(&sb, `<svg xmlns="http://www.w3.org/2000/svg" width="%g" height="%g" viewBox="0 0 %g %g">`+"\n", w, h, w, h)
	fmt.Fprintf(&sb, `<rect width="%g" height="%g" fill="white"/>`+"\n", w, h)
	fmt.Fprintf(&sb, `<text x="%g" y="20" text-anchor="middle" font-family="sans-serif" font-size="14">%s</text>`+"\n",
		w/2, esc(fmt.Sprintf("%s — usage %.5g over %d bins", res.Algorithm, res.TotalUsage, res.NumBins())))
	for k, b := range res.Bins {
		y := top + float64(k)*rowH
		u := b.UsagePeriod()
		fmt.Fprintf(&sb, `<rect x="%.2f" y="%.2f" width="%.2f" height="%.2f" fill="#dddddd"/>`+"\n",
			tx(u.Lo), y, tx(u.Hi)-tx(u.Lo), rowH-3)
		for _, it := range b.Items {
			fmt.Fprintf(&sb, `<rect x="%.2f" y="%.2f" width="%.2f" height="%.2f" fill="%s" fill-opacity="0.8"/>`+"\n",
				tx(it.Arrival), y, tx(it.Departure)-tx(it.Arrival), rowH-3, palette[k%len(palette)])
		}
		fmt.Fprintf(&sb, `<text x="%g" y="%.2f" text-anchor="end" font-family="sans-serif" font-size="9">%d</text>`+"\n",
			margin-4, y+rowH-5, b.Index)
	}
	sb.WriteString("</svg>\n")
	return sb.String()
}

func esc(s string) string {
	r := strings.NewReplacer("&", "&amp;", "<", "&lt;", ">", "&gt;", `"`, "&quot;")
	return r.Replace(s)
}
