package svgchart

import (
	"strings"
	"testing"
)

func TestGroupedBarsRender(t *testing.T) {
	g := &GroupedBars{
		Chart:      Chart{Title: "Fig 9", YLabel: "speedup"},
		Categories: []string{"jacobi", "sssp"},
		Series:     []string{"p2p", "finepack"},
		Values:     [][]float64{{3.6, 0.5}, {3.5, 2.9}},
	}
	var sb strings.Builder
	if err := g.Render(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{"<svg", "</svg>", "Fig 9", "jacobi", "sssp",
		"p2p", "finepack", "speedup", "<rect"} {
		if !strings.Contains(out, want) {
			t.Fatalf("missing %q in output", want)
		}
	}
	// 2 categories × 2 series bars plus background rect and legend boxes.
	if n := strings.Count(out, "<rect"); n < 5 {
		t.Fatalf("rect count = %d", n)
	}
}

func TestGroupedBarsValidation(t *testing.T) {
	g := &GroupedBars{Categories: []string{"a"}, Series: []string{"s"},
		Values: [][]float64{{1, 2}}}
	if err := g.Render(&strings.Builder{}); err == nil {
		t.Fatal("mismatched values accepted")
	}
	empty := &GroupedBars{}
	if err := empty.Render(&strings.Builder{}); err == nil {
		t.Fatal("empty chart accepted")
	}
}

func TestStackedBarsRender(t *testing.T) {
	s := &StackedBars{
		Chart:      Chart{Title: "Fig 10"},
		Categories: []string{"jacobi/dma", "jacobi/p2p"},
		Layers:     []string{"useful", "protocol", "wasted"},
		Values: [][]float64{
			{0.99, 0.99},
			{0.01, 0.20},
			{0.00, 0.00},
		},
	}
	var sb strings.Builder
	if err := s.Render(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	if !strings.Contains(out, "useful") || !strings.Contains(out, "wasted") {
		t.Fatal("legend missing")
	}
	bad := &StackedBars{Categories: []string{"a"}, Layers: []string{"l"},
		Values: [][]float64{{1, 2}}}
	if err := bad.Render(&strings.Builder{}); err == nil {
		t.Fatal("mismatched layers accepted")
	}
}

func TestLinesRender(t *testing.T) {
	l := &Lines{
		Chart:   Chart{Title: "Fig 2", YLabel: "goodput"},
		XLabels: []string{"4B", "32B", "128B", "4KB"},
		Series:  []string{"pcie", "nvlink"},
		Values: [][]float64{
			{0.13, 0.55, 0.83, 0.99},
			{0.08, 0.40, 0.73, 0.89},
		},
	}
	var sb strings.Builder
	if err := l.Render(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	if strings.Count(out, "<polyline") != 2 {
		t.Fatalf("polyline count = %d, want 2", strings.Count(out, "<polyline"))
	}
	if strings.Count(out, "<circle") != 8 {
		t.Fatalf("circle count = %d, want 8", strings.Count(out, "<circle"))
	}
	bad := &Lines{XLabels: []string{"a"}, Series: []string{"s"},
		Values: [][]float64{{1, 2}}}
	if err := bad.Render(&strings.Builder{}); err == nil {
		t.Fatal("mismatched series accepted")
	}
}

func TestEscaping(t *testing.T) {
	g := &GroupedBars{
		Chart:      Chart{Title: `<&">`},
		Categories: []string{"a<b"},
		Series:     []string{"s&t"},
		Values:     [][]float64{{1}},
	}
	var sb strings.Builder
	if err := g.Render(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	if strings.Contains(out, "a<b") || strings.Contains(out, "s&t") {
		t.Fatal("unescaped text in SVG")
	}
	if !strings.Contains(out, "a&lt;b") {
		t.Fatal("escape missing")
	}
}

// TestEscNoAllocWithoutSpecials pins that escaping plain text allocates
// nothing: the replacer is built once, not per label.
func TestEscNoAllocWithoutSpecials(t *testing.T) {
	var out string
	allocs := testing.AllocsPerRun(100, func() { out = esc("finepack p2p 1.81x") })
	if allocs != 0 {
		t.Fatalf("esc of plain text allocates %.0f objects, want 0", allocs)
	}
	if out != "finepack p2p 1.81x" {
		t.Fatalf("esc changed plain text to %q", out)
	}
	if got, want := esc(`a&b<c>"d"`), "a&amp;b&lt;c&gt;&quot;d&quot;"; got != want {
		t.Fatalf("esc = %q, want %q", got, want)
	}
}

func TestNiceMax(t *testing.T) {
	cases := []struct{ in, want float64 }{
		{0, 1}, {-3, 1}, {0.9, 1}, {1.7, 2}, {2.3, 2.5}, {4.2, 5}, {7.5, 10}, {42, 50},
	}
	for _, c := range cases {
		if got := niceMax(c.in); got != c.want {
			t.Errorf("niceMax(%v) = %v, want %v", c.in, got, c.want)
		}
	}
}

func TestDimsDefaults(t *testing.T) {
	c := &Chart{}
	w, h := c.dims()
	if w != defaultWidth || h != defaultHeight {
		t.Fatalf("dims = %d×%d", w, h)
	}
	c.Width, c.Height = 100, 50
	if w, h := c.dims(); w != 100 || h != 50 {
		t.Fatalf("explicit dims = %d×%d", w, h)
	}
}
