package obs

import (
	"bufio"
	"fmt"
	"io"
	"slices"
	"strconv"
	"strings"

	"finepack/internal/stats"
)

// Label is one metric dimension. Labels keep their registration order in
// the exposition output; ordering across samples is by the rendered label
// string, which is deterministic.
type Label struct {
	Key, Value string
}

// Counter is a monotonically increasing uint64 metric.
type Counter struct {
	labels []Label
	sig    string
	v      uint64
}

// Inc adds one.
func (c *Counter) Inc() { c.v++ }

// Add adds n.
func (c *Counter) Add(n uint64) { c.v += n }

// Value returns the current count.
func (c *Counter) Value() uint64 { return c.v }

// set overwrites the value; used when folding Recorder-held tallies in.
func (c *Counter) set(n uint64) { c.v = n }

// Gauge is a last-value float64 metric.
type Gauge struct {
	labels []Label
	sig    string
	v      float64
}

// Set overwrites the value.
func (g *Gauge) Set(v float64) { g.v = v }

// Value returns the current value.
func (g *Gauge) Value() float64 { return g.v }

// Histogram is a fixed-bucket histogram metric backed by
// stats.FixedHistogram.
type Histogram struct {
	labels []Label
	sig    string
	h      *stats.FixedHistogram
}

// Observe records one observation.
func (h *Histogram) Observe(v float64) { h.h.Observe(v) }

// Total returns the observation count.
func (h *Histogram) Total() uint64 { return h.h.Total() }

type family struct {
	name, help, typ string
	counters        []*Counter
	gauges          []*Gauge
	hists           []*Histogram
}

// Registry holds metric families. Families and their children live in
// slices — lookup is a linear scan — so no export path ever iterates a map.
type Registry struct {
	families []*family
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry { return &Registry{} }

func (r *Registry) family(name, help, typ string) *family {
	for _, f := range r.families {
		if f.name == name {
			if f.typ != typ {
				panic(fmt.Sprintf("obs: metric %q registered as %s and %s", name, f.typ, typ))
			}
			return f
		}
	}
	f := &family{name: name, help: help, typ: typ}
	r.families = append(r.families, f)
	return f
}

func labelsEqual(a, b []Label) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// Counter returns the counter for (name, labels), registering it on first
// use.
func (r *Registry) Counter(name, help string, labels ...Label) *Counter {
	f := r.family(name, help, "counter")
	for _, c := range f.counters {
		if labelsEqual(c.labels, labels) {
			return c
		}
	}
	c := &Counter{labels: labels, sig: labelSig(labels)}
	f.counters = append(f.counters, c)
	return c
}

// Gauge returns the gauge for (name, labels), registering it on first use.
func (r *Registry) Gauge(name, help string, labels ...Label) *Gauge {
	f := r.family(name, help, "gauge")
	for _, g := range f.gauges {
		if labelsEqual(g.labels, labels) {
			return g
		}
	}
	g := &Gauge{labels: labels, sig: labelSig(labels)}
	f.gauges = append(f.gauges, g)
	return g
}

// Histogram returns the histogram for (name, labels), registering it with
// the given bucket bounds on first use.
func (r *Registry) Histogram(name, help string, bounds []float64, labels ...Label) *Histogram {
	f := r.family(name, help, "histogram")
	for _, h := range f.hists {
		if labelsEqual(h.labels, labels) {
			return h
		}
	}
	h := &Histogram{labels: labels, sig: labelSig(labels), h: stats.NewFixedHistogram(bounds...)}
	f.hists = append(f.hists, h)
	return h
}

// Exposition is a parsed (or to-be-written) Prometheus text exposition.
// Write renders it; ParseExposition inverts Write byte-for-byte for any
// exposition this package produces.
type Exposition struct {
	Families []ExpoFamily
}

// ExpoFamily is one metric family.
type ExpoFamily struct {
	Name, Help, Type string
	Samples          []ExpoSample
}

// ExpoSample is one sample line. Value is kept as its exact rendered string
// so round-trips preserve bytes.
type ExpoSample struct {
	Name   string
	Labels []Label
	Value  string
}

func formatFloat(v float64) string {
	return strconv.FormatFloat(v, 'g', -1, 64)
}

func itoa(v int) string { return strconv.Itoa(v) }

// labelSig renders labels into the string samples sort by. Each series
// stores its signature at registration, so sorting builds no strings.
func labelSig(labels []Label) string {
	var b strings.Builder
	for _, l := range labels {
		b.WriteString(l.Key)
		b.WriteByte('=')
		b.WriteString(l.Value)
		b.WriteByte('\xff')
	}
	return b.String()
}

// Snapshot renders the registry into an Exposition with families sorted by
// name and samples sorted by label signature.
func (r *Registry) Snapshot() *Exposition {
	fams := make([]*family, len(r.families))
	copy(fams, r.families)
	slices.SortFunc(fams, func(a, b *family) int { return strings.Compare(a.name, b.name) })
	e := &Exposition{}
	for _, f := range fams {
		ef := ExpoFamily{Name: f.name, Help: f.help, Type: f.typ}
		switch f.typ {
		case "counter":
			cs := make([]*Counter, len(f.counters))
			copy(cs, f.counters)
			slices.SortFunc(cs, func(a, b *Counter) int { return strings.Compare(a.sig, b.sig) })
			for _, c := range cs {
				ef.Samples = append(ef.Samples, ExpoSample{
					Name: f.name, Labels: c.labels, Value: strconv.FormatUint(c.v, 10),
				})
			}
		case "gauge":
			gs := make([]*Gauge, len(f.gauges))
			copy(gs, f.gauges)
			slices.SortFunc(gs, func(a, b *Gauge) int { return strings.Compare(a.sig, b.sig) })
			for _, g := range gs {
				ef.Samples = append(ef.Samples, ExpoSample{
					Name: f.name, Labels: g.labels, Value: formatFloat(g.v),
				})
			}
		case "histogram":
			hs := make([]*Histogram, len(f.hists))
			copy(hs, f.hists)
			slices.SortFunc(hs, func(a, b *Histogram) int { return strings.Compare(a.sig, b.sig) })
			for _, h := range hs {
				bounds := h.h.Bounds()
				for i, b := range bounds {
					ef.Samples = append(ef.Samples, ExpoSample{
						Name:   f.name + "_bucket",
						Labels: append(append([]Label{}, h.labels...), Label{"le", formatFloat(b)}),
						Value:  strconv.FormatUint(h.h.Cumulative(i), 10),
					})
				}
				ef.Samples = append(ef.Samples, ExpoSample{
					Name:   f.name + "_bucket",
					Labels: append(append([]Label{}, h.labels...), Label{"le", "+Inf"}),
					Value:  strconv.FormatUint(h.h.Total(), 10),
				})
				ef.Samples = append(ef.Samples, ExpoSample{
					Name: f.name + "_sum", Labels: h.labels, Value: formatFloat(h.h.Sum()),
				})
				ef.Samples = append(ef.Samples, ExpoSample{
					Name: f.name + "_count", Labels: h.labels, Value: strconv.FormatUint(h.h.Total(), 10),
				})
			}
		}
		e.Families = append(e.Families, ef)
	}
	return e
}

func escapeHelp(s string) string {
	s = strings.ReplaceAll(s, `\`, `\\`)
	return strings.ReplaceAll(s, "\n", `\n`)
}

func unescapeHelp(s string) string {
	s = strings.ReplaceAll(s, `\n`, "\n")
	return strings.ReplaceAll(s, `\\`, `\`)
}

func escapeLabelValue(s string) string {
	s = strings.ReplaceAll(s, `\`, `\\`)
	s = strings.ReplaceAll(s, "\n", `\n`)
	return strings.ReplaceAll(s, `"`, `\"`)
}

// Write renders the exposition in Prometheus text format.
func (e *Exposition) Write(w io.Writer) error {
	bw := bufio.NewWriter(w)
	for _, f := range e.Families {
		fmt.Fprintf(bw, "# HELP %s %s\n", f.Name, escapeHelp(f.Help))
		fmt.Fprintf(bw, "# TYPE %s %s\n", f.Name, f.Type)
		for _, s := range f.Samples {
			bw.WriteString(s.Name)
			if len(s.Labels) > 0 {
				bw.WriteByte('{')
				for i, l := range s.Labels {
					if i > 0 {
						bw.WriteByte(',')
					}
					bw.WriteString(l.Key)
					bw.WriteString(`="`)
					bw.WriteString(escapeLabelValue(l.Value))
					bw.WriteByte('"')
				}
				bw.WriteByte('}')
			}
			bw.WriteByte(' ')
			bw.WriteString(s.Value)
			bw.WriteByte('\n')
		}
	}
	return bw.Flush()
}

// ParseExposition parses Prometheus text exposition as produced by Write.
// It preserves family order, sample order, label order and exact value
// strings, so Write(Parse(x)) == x for any x this package writes.
func ParseExposition(rd io.Reader) (*Exposition, error) {
	e := &Exposition{}
	sc := bufio.NewScanner(rd)
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	line := 0
	for sc.Scan() {
		line++
		text := sc.Text()
		switch {
		case text == "":
			continue
		case strings.HasPrefix(text, "# HELP "):
			rest := text[len("# HELP "):]
			name, help, ok := strings.Cut(rest, " ")
			if !ok || name == "" {
				return nil, fmt.Errorf("obs: line %d: malformed HELP", line)
			}
			e.Families = append(e.Families, ExpoFamily{Name: name, Help: unescapeHelp(help)})
		case strings.HasPrefix(text, "# TYPE "):
			rest := text[len("# TYPE "):]
			name, typ, ok := strings.Cut(rest, " ")
			if !ok || len(e.Families) == 0 {
				return nil, fmt.Errorf("obs: line %d: malformed TYPE", line)
			}
			f := &e.Families[len(e.Families)-1]
			if f.Name != name {
				return nil, fmt.Errorf("obs: line %d: TYPE %q does not match HELP %q", line, name, f.Name)
			}
			switch typ {
			case "counter", "gauge", "histogram":
				f.Type = typ
			default:
				return nil, fmt.Errorf("obs: line %d: unknown metric type %q", line, typ)
			}
		case strings.HasPrefix(text, "#"):
			continue
		default:
			if len(e.Families) == 0 {
				return nil, fmt.Errorf("obs: line %d: sample before any family", line)
			}
			s, err := parseSample(text)
			if err != nil {
				return nil, fmt.Errorf("obs: line %d: %v", line, err)
			}
			f := &e.Families[len(e.Families)-1]
			if !sampleBelongs(f, s.Name) {
				return nil, fmt.Errorf("obs: line %d: sample %q outside family %q", line, s.Name, f.Name)
			}
			f.Samples = append(f.Samples, s)
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return e, nil
}

func sampleBelongs(f *ExpoFamily, name string) bool {
	if name == f.Name {
		return true
	}
	if f.Type == "histogram" {
		switch name {
		case f.Name + "_bucket", f.Name + "_sum", f.Name + "_count":
			return true
		}
	}
	return false
}

func parseSample(text string) (ExpoSample, error) {
	var s ExpoSample
	brace := strings.IndexByte(text, '{')
	sp := strings.IndexByte(text, ' ')
	if brace >= 0 && (sp < 0 || brace < sp) {
		s.Name = text[:brace]
		rest := text[brace+1:]
		for {
			eq := strings.IndexByte(rest, '=')
			if eq < 0 || len(rest) < eq+2 || rest[eq+1] != '"' {
				return s, fmt.Errorf("malformed label in %q", text)
			}
			key := rest[:eq]
			val, n, err := scanQuoted(rest[eq+1:])
			if err != nil {
				return s, err
			}
			s.Labels = append(s.Labels, Label{Key: key, Value: val})
			rest = rest[eq+1+n:]
			if strings.HasPrefix(rest, ",") {
				rest = rest[1:]
				continue
			}
			if strings.HasPrefix(rest, "} ") {
				s.Value = rest[2:]
				break
			}
			return s, fmt.Errorf("malformed label list in %q", text)
		}
	} else {
		if sp < 0 {
			return s, fmt.Errorf("no value in %q", text)
		}
		s.Name = text[:sp]
		s.Value = text[sp+1:]
	}
	if s.Name == "" || s.Value == "" {
		return s, fmt.Errorf("empty name or value in %q", text)
	}
	return s, nil
}

// scanQuoted reads a leading quoted, escaped label value and returns the
// unescaped value plus the number of input bytes consumed (quotes
// included).
func scanQuoted(in string) (string, int, error) {
	if len(in) == 0 || in[0] != '"' {
		return "", 0, fmt.Errorf("expected quoted value")
	}
	var b strings.Builder
	for i := 1; i < len(in); i++ {
		switch in[i] {
		case '\\':
			if i+1 >= len(in) {
				return "", 0, fmt.Errorf("truncated escape")
			}
			i++
			switch in[i] {
			case '\\':
				b.WriteByte('\\')
			case '"':
				b.WriteByte('"')
			case 'n':
				b.WriteByte('\n')
			default:
				return "", 0, fmt.Errorf("unknown escape \\%c", in[i])
			}
		case '"':
			return b.String(), i + 1, nil
		default:
			b.WriteByte(in[i])
		}
	}
	return "", 0, fmt.Errorf("unterminated quoted value")
}

// WriteMetrics writes the recorder's metrics as Prometheus text
// exposition.
func (r *Recorder) WriteMetrics(w io.Writer) error {
	if r == nil {
		return fmt.Errorf("obs: WriteMetrics on disabled recorder")
	}
	r.sync()
	return r.reg.Snapshot().Write(w)
}
