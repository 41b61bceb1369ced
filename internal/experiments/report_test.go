package experiments

import (
	"context"
	"strings"
	"testing"
)

func TestWriteReportComplete(t *testing.T) {
	s := ablationSuite()
	var sb strings.Builder
	if err := s.WriteReport(context.Background(), &sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, section := range []string{
		"Fig 2", "Fig 4", "Fig 9", "Fig 10", "Fig 11", "Fig 12", "Fig 13",
		"Table II", "config-packet", "write combining", "GPS", "16 GPUs",
		"UM / remote-read", "Overlap", "queue entries", "open windows",
		"flush timeout", "flit-based", "Strong scaling", "Topology crossover",
	} {
		if !strings.Contains(out, section) {
			t.Errorf("report missing section %q", section)
		}
	}
	if strings.Count(out, "```")%2 != 0 {
		t.Fatal("unbalanced code fences")
	}
	if !strings.HasPrefix(out, "# FinePack experiment report") {
		t.Fatal("missing title")
	}
}

func TestSVGBuilders(t *testing.T) {
	s := Quick()
	var sb strings.Builder

	if err := Fig2SVG(Fig2(), &sb); err != nil {
		t.Fatal(err)
	}
	f4, err := s.Fig4()
	if err != nil {
		t.Fatal(err)
	}
	if err := Fig4SVG(f4, &sb); err != nil {
		t.Fatal(err)
	}
	f9, _, err := s.Fig9()
	if err != nil {
		t.Fatal(err)
	}
	if err := Fig9SVG(f9, &sb); err != nil {
		t.Fatal(err)
	}
	f10, err := s.Fig10()
	if err != nil {
		t.Fatal(err)
	}
	if err := Fig10SVG(f10, &sb); err != nil {
		t.Fatal(err)
	}
	f11, _, err := s.Fig11()
	if err != nil {
		t.Fatal(err)
	}
	if err := Fig11SVG(f11, &sb); err != nil {
		t.Fatal(err)
	}
	f12, _, err := s.Fig12()
	if err != nil {
		t.Fatal(err)
	}
	if err := Fig12SVG(f12, &sb); err != nil {
		t.Fatal(err)
	}
	f13, err := s.Fig13()
	if err != nil {
		t.Fatal(err)
	}
	if err := Fig13SVG(f13, &sb); err != nil {
		t.Fatal(err)
	}
	scal, err := s.Scaling()
	if err != nil {
		t.Fatal(err)
	}
	if err := ScalingSVG(scal, &sb); err != nil {
		t.Fatal(err)
	}
	if n := strings.Count(sb.String(), "</svg>"); n != 8 {
		t.Fatalf("rendered %d SVGs, want 8", n)
	}
	if err := Fig4SVG(nil, &sb); err == nil {
		t.Fatal("empty Fig 4 accepted")
	}
}
