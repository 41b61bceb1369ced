package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"finepack/internal/des"
	"finepack/internal/experiments"
	"finepack/internal/faults"
)

func TestRunDispatchCheapExperiments(t *testing.T) {
	s := experiments.Quick()
	for _, name := range []string{"fig2", "tab2", "nvlink-fp", "alt-design"} {
		if err := run(s, name); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
	}
}

func TestSVGOutput(t *testing.T) {
	dir := t.TempDir()
	svgDir = dir
	defer func() { svgDir = "" }()
	if err := run(experiments.Quick(), "fig2"); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(filepath.Join(dir, "fig2.svg"))
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(raw), "<svg") || !strings.Contains(string(raw), "</svg>") {
		t.Fatal("not an SVG document")
	}
}

func TestRunUnknownExperiment(t *testing.T) {
	if err := run(experiments.Quick(), "fig99"); err == nil {
		t.Fatal("unknown experiment accepted")
	}
}

func TestParseDegrade(t *testing.T) {
	cases := []struct {
		spec string
		want faults.Degradation
		err  bool
	}{
		{spec: "0:1:0.5", want: faults.Degradation{
			Link: faults.Link{Src: 0, Dst: 1}, BandwidthFraction: 0.5}},
		{spec: "*:2:0.25@10", want: faults.Degradation{
			Link: faults.Link{Src: -1, Dst: 2}, At: 10 * des.Microsecond,
			BandwidthFraction: 0.25}},
		{spec: "0:1", err: true},
		{spec: "x:1:0.5", err: true},
		{spec: "0:y:0.5", err: true},
		{spec: "0:1:zz", err: true},
		{spec: "0:1:0.5@oops", err: true},
		{spec: "0:1:0.5@-2", err: true},
	}
	for _, c := range cases {
		got, err := parseDegrade(c.spec)
		if c.err {
			if err == nil {
				t.Errorf("parseDegrade(%q) accepted", c.spec)
			}
			continue
		}
		if err != nil {
			t.Errorf("parseDegrade(%q): %v", c.spec, err)
		} else if got != c.want {
			t.Errorf("parseDegrade(%q) = %+v, want %+v", c.spec, got, c.want)
		}
	}
}

func TestBERSweepCLI(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation-backed CLI paths skipped in -short mode")
	}
	s := experiments.Quick()
	s.Cfg.Faults.Seed = 7
	if err := run(s, "ber-sweep"); err != nil {
		t.Fatal(err)
	}
}

func TestRunFiguresQuickScale(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation-backed CLI paths skipped in -short mode")
	}
	s := experiments.Quick()
	chart = true
	defer func() { chart = false }()
	for _, name := range []string{"fig4", "fig9", "fig10", "fig11", "wc", "gps", "diag"} {
		if err := run(s, name); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
	}
}

// TestUsageMatchesDispatch keeps the hand-written usage text in step with
// the verbs run knows: every verb it lists dispatches, and every verb the
// experiments index and flagVerbs define is listed.
func TestUsageMatchesDispatch(t *testing.T) {
	_, list, ok := strings.Cut(usageText, "experiments:\n")
	if !ok {
		t.Fatal("usage text has no experiments section")
	}
	list, _, _ = strings.Cut(list, "\n\n")
	listed := map[string]bool{}
	for _, line := range strings.Split(list, "\n") {
		// Verb lines indent by two spaces; continuation lines by more.
		if rest, ok := strings.CutPrefix(line, "  "); ok && rest != "" && rest[0] != ' ' {
			verb := strings.Fields(rest)[0]
			listed[verb] = true
			if dispatch(verb) == nil {
				t.Errorf("usage lists %q, which does not dispatch", verb)
			}
		}
	}
	var verbs []string
	for _, e := range experiments.Experiments() {
		if e.Verb != "" {
			verbs = append(verbs, e.Verb)
		}
	}
	for v := range flagVerbs {
		verbs = append(verbs, v)
	}
	for _, v := range verbs {
		if !listed[v] {
			t.Errorf("verb %q is missing from the usage text", v)
		}
	}
}

// captureStdout runs f with os.Stdout redirected to a file and returns
// what f wrote.
func captureStdout(t *testing.T, f func() error) []byte {
	t.Helper()
	out, err := os.Create(filepath.Join(t.TempDir(), "stdout"))
	if err != nil {
		t.Fatal(err)
	}
	defer out.Close()
	saved := os.Stdout
	os.Stdout = out
	err = f()
	os.Stdout = saved
	if err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(out.Name())
	if err != nil {
		t.Fatal(err)
	}
	return raw
}

// TestStreamHonorsFaultFlags checks that stream simulates under the
// suite's config, as every other verb does: a link degraded to 10% of
// its bandwidth must slow the streamed run down.
func TestStreamHonorsFaultFlags(t *testing.T) {
	profile := filepath.Join(t.TempDir(), "p.json")
	if err := os.WriteFile(profile, []byte(`{"name":"x","gpus":4,"iterations":2,"seed":3,`+
		`"compute_ops_per_iter":1e6,"warps_per_gpu_iter":64}`), 0o644); err != nil {
		t.Fatal(err)
	}
	streamSynth, streamParadigm, jsonOut = profile, "finepack", true
	defer func() { streamSynth, streamParadigm, jsonOut = "", "", false }()
	streamTime := func(s *experiments.Suite) des.Time {
		var doc struct {
			Data struct{ Time des.Time }
		}
		raw := captureStdout(t, func() error { return run(s, "stream") })
		if err := json.Unmarshal(raw, &doc); err != nil {
			t.Fatalf("stream output %q: %v", raw, err)
		}
		return doc.Data.Time
	}
	clean := streamTime(experiments.Quick())
	degraded := experiments.Quick()
	d, err := parseDegrade("*:*:0.1")
	if err != nil {
		t.Fatal(err)
	}
	degraded.Cfg.Faults.Degradations = []faults.Degradation{d}
	if slow := streamTime(degraded); slow <= clean {
		t.Fatalf("degraded stream took %v, clean %v: -degrade ignored", slow, clean)
	}
}
