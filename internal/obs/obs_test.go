package obs

import (
	"bytes"
	"encoding/json"
	"slices"
	"strings"
	"testing"

	"finepack/internal/des"
)

// populate drives every hook once with fixed inputs so tests exercise all
// event shapes.
func populate(r *Recorder) {
	r.EventFired(10)
	r.EventFired(20)
	r.MessageDelivered(0, 1, 96, 1000, 2500)
	r.MessageDelivered(1, 0, 32, 2000, 2600)
	r.ReplayScheduled(0, 1, 96, 2, 3000)
	r.LinkReset(4000, 3)
	r.ComputePhase(0, 1, 0, 5*des.Microsecond)
	r.PacketEmitted(0, 1, "size", 8, 2, 96, 1500)
	r.PacketEmitted(0, 1, "timeout", 1, 1, 24, 2500)
	r.WarpCoalesced(1, 32, 4)
	for i := des.Time(0); i < 3; i++ {
		at := i * des.Microsecond
		r.SampleEgressUtilization(0, at, float64(i)*0.25)
		r.SampleEgressUtilization(1, at, float64(i)*0.5)
		r.SampleIngressUtilization(0, at, 0.1)
		r.SampleQueueDepth(0, at, int(i)*3)
		r.SampleCreditStalls(1, at, int(i))
		r.SampleSchedulerEvents(at, uint64(i)*100)
	}
}

func TestNilRecorderIsSafe(t *testing.T) {
	var r *Recorder
	populate(r)
	if r.Enabled() {
		t.Fatal("nil recorder reports enabled")
	}
	if r.SampleEvery() != des.Microsecond {
		t.Fatalf("nil SampleEvery = %v", r.SampleEvery())
	}
	if r.DroppedEvents() != 0 || r.EventCount() != 0 || r.SeriesList() != nil || r.Metrics() != nil {
		t.Fatal("nil recorder leaked state")
	}
	if err := r.WriteTrace(&bytes.Buffer{}); err == nil {
		t.Fatal("nil WriteTrace succeeded")
	}
	if err := r.WriteMetrics(&bytes.Buffer{}); err == nil {
		t.Fatal("nil WriteMetrics succeeded")
	}
	if err := r.WriteTimelineSVG(&bytes.Buffer{}); err == nil {
		t.Fatal("nil WriteTimelineSVG succeeded")
	}
}

func TestTraceIsValidJSONAndDeterministic(t *testing.T) {
	render := func() []byte {
		r := New(Config{})
		populate(r)
		var buf bytes.Buffer
		if err := r.WriteTrace(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	a, b := render(), render()
	if !bytes.Equal(a, b) {
		t.Fatal("identical recordings serialized differently")
	}
	var events []map[string]any
	if err := json.Unmarshal(a, &events); err != nil {
		t.Fatalf("trace is not a JSON array: %v", err)
	}
	if len(events) == 0 {
		t.Fatal("empty trace")
	}
	phases := map[string]int{}
	for _, e := range events {
		ph, _ := e["ph"].(string)
		phases[ph]++
		if _, ok := e["name"].(string); !ok {
			t.Fatalf("event without name: %v", e)
		}
	}
	for _, ph := range []string{"M", "X", "i", "C"} {
		if phases[ph] == 0 {
			t.Errorf("no %q events in trace", ph)
		}
	}
}

func TestTraceTimestampsExactMicros(t *testing.T) {
	r := New(Config{})
	// 1234567 ps = 1.234567 µs — must appear with all six fractional digits.
	r.MessageDelivered(0, 1, 64, 1234567, 2234567)
	var buf bytes.Buffer
	if err := r.WriteTrace(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), `"ts":1.234567`) {
		t.Fatalf("expected exact decimal ts, got:\n%s", buf.String())
	}
}

func TestMaxEventsCapCountsDrops(t *testing.T) {
	r := New(Config{MaxEvents: 2})
	populate(r)
	if r.EventCount() != 2 {
		t.Fatalf("EventCount = %d, want 2", r.EventCount())
	}
	if r.DroppedEvents() == 0 {
		t.Fatal("no drops recorded past the cap")
	}
	var buf bytes.Buffer
	if err := r.WriteMetrics(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "finepack_trace_dropped_events_total") {
		t.Fatal("dropped-events counter missing from exposition")
	}
}

func TestMetricsExpositionRoundTrips(t *testing.T) {
	r := New(Config{})
	populate(r)
	var buf bytes.Buffer
	if err := r.WriteMetrics(&buf); err != nil {
		t.Fatal(err)
	}
	parsed, err := ParseExposition(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatalf("exposition does not parse: %v", err)
	}
	var again bytes.Buffer
	if err := parsed.Write(&again); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), again.Bytes()) {
		t.Fatalf("round-trip changed bytes:\n--- wrote\n%s\n--- reparsed\n%s", buf.String(), again.String())
	}
	for _, want := range []string{
		"# TYPE finepack_messages_delivered_total counter",
		"# TYPE finepack_link_egress_utilization gauge",
		"# TYPE finepack_message_wire_bytes histogram",
		`finepack_queue_flushes_total{gpu="0",cause="size"} 1`,
		`finepack_message_wire_bytes_bucket{le="+Inf"} 2`,
	} {
		if !strings.Contains(buf.String(), want) {
			t.Errorf("exposition missing %q", want)
		}
	}
}

func TestMetricsFamiliesSorted(t *testing.T) {
	r := New(Config{})
	populate(r)
	var buf bytes.Buffer
	if err := r.WriteMetrics(&buf); err != nil {
		t.Fatal(err)
	}
	var prev string
	for _, line := range strings.Split(buf.String(), "\n") {
		if !strings.HasPrefix(line, "# HELP ") {
			continue
		}
		name := strings.SplitN(line[len("# HELP "):], " ", 2)[0]
		if name < prev {
			t.Fatalf("families out of order: %q after %q", name, prev)
		}
		prev = name
	}
}

// TestSamplesSortedBySignature pins the sample order within a family: by
// the rendered label signature, not label by label. Key "a!" renders as
// "a!=" and sorts before "a=", although "a" < "a!" as keys.
func TestSamplesSortedBySignature(t *testing.T) {
	reg := NewRegistry()
	for _, k := range []string{"b", "a", "a!"} {
		reg.Counter("c_total", "h", Label{k, "1"})
		reg.Gauge("g", "h", Label{k, "1"})
		reg.Histogram("h", "h", []float64{1}, Label{k, "1"})
	}
	want := []string{"a!", "a", "b"}
	for _, f := range reg.Snapshot().Families {
		var keys []string // one per series: a histogram's _count sample
		for _, smp := range f.Samples {
			if smp.Name == f.Name || smp.Name == f.Name+"_count" {
				keys = append(keys, smp.Labels[0].Key)
			}
		}
		if !slices.Equal(keys, want) {
			t.Errorf("%s %s: sample label keys %q, want %q", f.Type, f.Name, keys, want)
		}
	}
}

func TestLabelValueEscapingRoundTrips(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("weird_total", "has escapes",
		Label{"k", "a\\b\"c\nd"}).Add(7)
	var buf bytes.Buffer
	if err := reg.Snapshot().Write(&buf); err != nil {
		t.Fatal(err)
	}
	parsed, err := ParseExposition(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	got := parsed.Families[0].Samples[0].Labels[0].Value
	if got != "a\\b\"c\nd" {
		t.Fatalf("label value round-trip = %q", got)
	}
	var again bytes.Buffer
	if err := parsed.Write(&again); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), again.Bytes()) {
		t.Fatal("escaped exposition round-trip changed bytes")
	}
}

func TestTimelineSVG(t *testing.T) {
	r := New(Config{})
	populate(r)
	var buf bytes.Buffer
	if err := r.WriteTimelineSVG(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.HasPrefix(out, "<svg") || !strings.Contains(out, "</svg>") {
		t.Fatal("timeline output is not an SVG document")
	}
	if !strings.Contains(out, "egress util gpu 1") {
		t.Fatal("legend missing egress series")
	}
	empty := New(Config{})
	if err := empty.WriteTimelineSVG(&bytes.Buffer{}); err == nil {
		t.Fatal("expected error with no samples")
	}
}

func TestSeriesAccumulate(t *testing.T) {
	r := New(Config{})
	populate(r)
	list := r.SeriesList()
	if len(list) != 6 {
		t.Fatalf("series count = %d, want 6", len(list))
	}
	for _, s := range list {
		if len(s.T) != 3 || len(s.V) != 3 {
			t.Fatalf("series %q has %d/%d samples, want 3", s.Name, len(s.T), len(s.V))
		}
	}
	if list[0].Name != "egress util gpu 0" {
		t.Fatalf("first series = %q", list[0].Name)
	}
}

func TestRegistryDedupesHandles(t *testing.T) {
	reg := NewRegistry()
	a := reg.Counter("c_total", "h", Label{"x", "1"})
	b := reg.Counter("c_total", "h", Label{"x", "1"})
	if a != b {
		t.Fatal("same (name, labels) produced distinct counters")
	}
	c := reg.Counter("c_total", "h", Label{"x", "2"})
	if a == c {
		t.Fatal("different labels shared a counter")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("type mismatch did not panic")
		}
	}()
	reg.Gauge("c_total", "h")
}

// TestProgressCallback pins the progress tap: invoked once per
// SampleSchedulerEvents call with the exact (time, fired) pair, never on
// other samples, and absent by default. The callback must also leave the
// recorded artifacts untouched — it is a pure tap for the serve layer.
func TestProgressCallback(t *testing.T) {
	type beat struct {
		at     des.Time
		events uint64
	}
	var beats []beat
	r := New(Config{Progress: func(at des.Time, events uint64) {
		beats = append(beats, beat{at, events})
	}})
	r.SampleEgressUtilization(0, des.Microsecond, 0.5)
	r.SampleQueueDepth(0, des.Microsecond, 3)
	if len(beats) != 0 {
		t.Fatalf("progress fired on non-scheduler samples: %v", beats)
	}
	r.SampleSchedulerEvents(des.Microsecond, 100)
	r.SampleSchedulerEvents(2*des.Microsecond, 250)
	want := []beat{{des.Microsecond, 100}, {2 * des.Microsecond, 250}}
	if len(beats) != len(want) {
		t.Fatalf("got %d beats, want %d", len(beats), len(want))
	}
	for i := range want {
		if beats[i] != want[i] {
			t.Fatalf("beat %d = %+v, want %+v", i, beats[i], want[i])
		}
	}

	// Identical runs with and without the callback serialize identically.
	plain := New(Config{})
	populate(plain)
	tapped := New(Config{Progress: func(des.Time, uint64) {}})
	populate(tapped)
	var a, b bytes.Buffer
	if err := plain.WriteTrace(&a); err != nil {
		t.Fatal(err)
	}
	if err := tapped.WriteTrace(&b); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatal("progress callback changed the recorded trace")
	}
}
