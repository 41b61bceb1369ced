// Package svgchart renders experiment results as standalone SVG figures
// using only the standard library, so the harness can regenerate the
// paper's charts as images (grouped bars for Figs 9/11/12, stacked bars
// for Fig 10, line series for Figs 2/13).
package svgchart

import (
	"fmt"
	"io"
	"math"
	"strings"
)

// Geometry defaults.
const (
	defaultWidth   = 800
	defaultHeight  = 420
	marginLeft     = 60
	marginRight    = 20
	marginTop      = 40
	marginBottom   = 70
	legendRowH     = 16
	axisTickTarget = 5
)

// Series palette: colorblind-safe, print-friendly.
var palette = []string{
	"#4477AA", "#EE6677", "#228833", "#CCBB44", "#66CCEE", "#AA3377", "#BBBBBB",
}

// Chart is the shared canvas state.
type Chart struct {
	Title  string
	YLabel string
	Width  int
	Height int
}

func (c *Chart) dims() (w, h int) {
	w, h = c.Width, c.Height
	if w <= 0 {
		w = defaultWidth
	}
	if h <= 0 {
		h = defaultHeight
	}
	return w, h
}

// escaper is shared: a Replacer is safe for concurrent use, and building
// one per call cost a lookup table per label drawn.
var escaper = strings.NewReplacer("&", "&amp;", "<", "&lt;", ">", "&gt;", `"`, "&quot;")

// esc escapes text for SVG.
func esc(s string) string { return escaper.Replace(s) }

// niceMax rounds a data maximum up to a pleasant axis bound.
func niceMax(v float64) float64 {
	if v <= 0 {
		return 1
	}
	mag := math.Pow(10, math.Floor(math.Log10(v)))
	for _, m := range []float64{1, 2, 2.5, 5, 10} {
		if v <= m*mag {
			return m * mag
		}
	}
	return 10 * mag
}

// header emits the SVG preamble, title and axes frame, returning the plot
// rectangle.
func (c *Chart) header(w io.Writer) (x0, y0, x1, y1 int) {
	width, height := c.dims()
	fmt.Fprintf(w, `<svg xmlns="http://www.w3.org/2000/svg" width="%d" height="%d" viewBox="0 0 %d %d">`+"\n",
		width, height, width, height)
	fmt.Fprintf(w, `<rect width="%d" height="%d" fill="white"/>`+"\n", width, height)
	if c.Title != "" {
		fmt.Fprintf(w, `<text x="%d" y="24" font-family="sans-serif" font-size="16" text-anchor="middle">%s</text>`+"\n",
			width/2, esc(c.Title))
	}
	return marginLeft, marginTop, width - marginRight, height - marginBottom
}

// yAxis draws the left axis with ticks for [0, maxV], returning a mapper
// from value to pixel y.
func (c *Chart) yAxis(w io.Writer, x0, y0, x1, y1 int, maxV float64) func(float64) float64 {
	fmt.Fprintf(w, `<line x1="%d" y1="%d" x2="%d" y2="%d" stroke="black"/>`+"\n", x0, y0, x0, y1)
	fmt.Fprintf(w, `<line x1="%d" y1="%d" x2="%d" y2="%d" stroke="black"/>`+"\n", x0, y1, x1, y1)
	toY := func(v float64) float64 {
		return float64(y1) - v/maxV*float64(y1-y0)
	}
	step := maxV / axisTickTarget
	for i := 0; i <= axisTickTarget; i++ {
		v := step * float64(i)
		y := toY(v)
		fmt.Fprintf(w, `<line x1="%d" y1="%.1f" x2="%d" y2="%.1f" stroke="#ddd"/>`+"\n", x0, y, x1, y)
		fmt.Fprintf(w, `<text x="%d" y="%.1f" font-family="sans-serif" font-size="11" text-anchor="end">%s</text>`+"\n",
			x0-6, y+4, esc(trimFloat(v)))
	}
	if c.YLabel != "" {
		fmt.Fprintf(w, `<text x="14" y="%d" font-family="sans-serif" font-size="12" text-anchor="middle" transform="rotate(-90 14 %d)">%s</text>`+"\n",
			(y0+y1)/2, (y0+y1)/2, esc(c.YLabel))
	}
	return toY
}

func trimFloat(v float64) string {
	s := fmt.Sprintf("%.2f", v)
	s = strings.TrimRight(s, "0")
	return strings.TrimRight(s, ".")
}

// legend draws series swatches across the top of the plot area.
func legend(w io.Writer, x0 int, names []string) {
	x := x0
	y := marginTop - 10
	for i, n := range names {
		fmt.Fprintf(w, `<rect x="%d" y="%d" width="10" height="10" fill="%s"/>`+"\n",
			x, y-9, palette[i%len(palette)])
		fmt.Fprintf(w, `<text x="%d" y="%d" font-family="sans-serif" font-size="11">%s</text>`+"\n",
			x+14, y, esc(n))
		x += 14 + 7*len(n) + 18
	}
}

// xLabel writes a rotated category label.
func xLabel(w io.Writer, x, y float64, s string) {
	fmt.Fprintf(w, `<text x="%.1f" y="%.1f" font-family="sans-serif" font-size="11" text-anchor="end" transform="rotate(-35 %.1f %.1f)">%s</text>`+"\n",
		x, y, x, y, esc(s))
}

// GroupedBars is a categories × series bar chart (Fig 9/11/12 layout).
type GroupedBars struct {
	Chart
	Categories []string
	Series     []string
	// Values[s][c] is series s at category c.
	Values [][]float64
}

// Render writes the SVG.
func (g *GroupedBars) Render(w io.Writer) error {
	if len(g.Categories) == 0 || len(g.Series) == 0 {
		return fmt.Errorf("svgchart: empty chart")
	}
	for s := range g.Values {
		if len(g.Values[s]) != len(g.Categories) {
			return fmt.Errorf("svgchart: series %d has %d values for %d categories",
				s, len(g.Values[s]), len(g.Categories))
		}
	}
	x0, y0, x1, y1 := g.header(w)
	maxV := 0.0
	for _, vs := range g.Values {
		for _, v := range vs {
			if v > maxV {
				maxV = v
			}
		}
	}
	maxV = niceMax(maxV)
	toY := g.yAxis(w, x0, y0, x1, y1, maxV)
	legend(w, x0, g.Series)

	catW := float64(x1-x0) / float64(len(g.Categories))
	barW := catW * 0.8 / float64(len(g.Series))
	for c, cat := range g.Categories {
		base := float64(x0) + catW*float64(c) + catW*0.1
		for s := range g.Series {
			v := g.Values[s][c]
			x := base + barW*float64(s)
			y := toY(v)
			fmt.Fprintf(w, `<rect x="%.1f" y="%.1f" width="%.1f" height="%.1f" fill="%s"/>`+"\n",
				x, y, barW, float64(y1)-y, palette[s%len(palette)])
		}
		xLabel(w, base+catW*0.4, float64(y1)+16, cat)
	}
	fmt.Fprintln(w, "</svg>")
	return nil
}

// StackedBars is a categories × layers stacked chart (Fig 10 layout);
// groups of stacks per category are supported via composite labels.
type StackedBars struct {
	Chart
	Categories []string
	Layers     []string
	// Values[l][c] is layer l's height at category c.
	Values [][]float64
}

// Render writes the SVG.
func (s *StackedBars) Render(w io.Writer) error {
	if len(s.Categories) == 0 || len(s.Layers) == 0 {
		return fmt.Errorf("svgchart: empty chart")
	}
	for l := range s.Values {
		if len(s.Values[l]) != len(s.Categories) {
			return fmt.Errorf("svgchart: layer %d has %d values for %d categories",
				l, len(s.Values[l]), len(s.Categories))
		}
	}
	x0, y0, x1, y1 := s.header(w)
	maxV := 0.0
	for c := range s.Categories {
		total := 0.0
		for l := range s.Layers {
			total += s.Values[l][c]
		}
		if total > maxV {
			maxV = total
		}
	}
	maxV = niceMax(maxV)
	toY := s.yAxis(w, x0, y0, x1, y1, maxV)
	legend(w, x0, s.Layers)

	catW := float64(x1-x0) / float64(len(s.Categories))
	barW := catW * 0.6
	for c, cat := range s.Categories {
		x := float64(x0) + catW*float64(c) + catW*0.2
		cum := 0.0
		for l := range s.Layers {
			v := s.Values[l][c]
			yTop := toY(cum + v)
			yBot := toY(cum)
			fmt.Fprintf(w, `<rect x="%.1f" y="%.1f" width="%.1f" height="%.1f" fill="%s"/>`+"\n",
				x, yTop, barW, yBot-yTop, palette[l%len(palette)])
			cum += v
		}
		xLabel(w, x+barW/2, float64(y1)+16, cat)
	}
	fmt.Fprintln(w, "</svg>")
	return nil
}

// Lines is an x/y multi-series line chart (Fig 2/13 layout). X positions
// are categorical (evenly spaced, labeled).
type Lines struct {
	Chart
	XLabels []string
	Series  []string
	// Values[s][x] is series s at x position x.
	Values [][]float64
}

// Render writes the SVG.
func (l *Lines) Render(w io.Writer) error {
	if len(l.XLabels) == 0 || len(l.Series) == 0 {
		return fmt.Errorf("svgchart: empty chart")
	}
	for s := range l.Values {
		if len(l.Values[s]) != len(l.XLabels) {
			return fmt.Errorf("svgchart: series %d has %d values for %d x positions",
				s, len(l.Values[s]), len(l.XLabels))
		}
	}
	x0, y0, x1, y1 := l.header(w)
	maxV := 0.0
	for _, vs := range l.Values {
		for _, v := range vs {
			if v > maxV {
				maxV = v
			}
		}
	}
	maxV = niceMax(maxV)
	toY := l.yAxis(w, x0, y0, x1, y1, maxV)
	legend(w, x0, l.Series)

	stepX := float64(x1-x0) / float64(len(l.XLabels)-1+1)
	toX := func(i int) float64 { return float64(x0) + stepX*(float64(i)+0.5) }
	for s := range l.Series {
		var pts []string
		for i, v := range l.Values[s] {
			pts = append(pts, fmt.Sprintf("%.1f,%.1f", toX(i), toY(v)))
		}
		fmt.Fprintf(w, `<polyline points="%s" fill="none" stroke="%s" stroke-width="2"/>`+"\n",
			strings.Join(pts, " "), palette[s%len(palette)])
		for i, v := range l.Values[s] {
			fmt.Fprintf(w, `<circle cx="%.1f" cy="%.1f" r="3" fill="%s"/>`+"\n",
				toX(i), toY(v), palette[s%len(palette)])
		}
	}
	for i, lab := range l.XLabels {
		xLabel(w, toX(i)+8, float64(y1)+16, lab)
	}
	fmt.Fprintln(w, "</svg>")
	return nil
}
