package serve

import (
	"bytes"
	"encoding/json"
	"testing"

	"finepack/internal/collective"
	"finepack/internal/store"
	"finepack/internal/topo"
)

// FuzzJobSpec drives job-spec JSON, the input a job ID is hashed from,
// with arbitrary bytes decoded the way POST /v1/jobs decodes them. For
// every spec Normalize accepts, three properties must hold: Normalize is
// idempotent; the job ID survives the CanonicalJSON → decode → Normalize
// round trip that WAL replay takes; and CanonicalJSON is a fixed point of
// that round trip.
func FuzzJobSpec(f *testing.F) {
	pod, err := topo.Preset(topo.PresetPod4x8)
	if err != nil {
		f.Fatal(err)
	}
	for _, s := range []JobSpec{
		{},
		smallSpec(),
		{Kind: KindReport, Scale: 0.1},
		{Kind: KindTopoCrossover},
		{Workload: "jacobi", Topology: "dgx2x8", BER: 1e-6, TimeoutMs: 1000},
		{Paradigm: "p2p", GPUs: 32, Topo: pod},
		{TraceID: store.BlobID([]byte("x")), SampleUs: 0.5, MaxEvents: 10},
		{Synth: tinySynth(), PCIeGen: 5},
		{Collective: &collective.Spec{Kind: collective.RingAllReduce, GPUs: 4, PayloadBytes: 1 << 16}},
	} {
		b, err := json.Marshal(s)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(b)
	}
	f.Add([]byte(`{"kind":"observe","scale":-0,"ber":-0,"fault_seed":7}`))

	f.Fuzz(func(t *testing.T, raw []byte) {
		var s JobSpec
		dec := json.NewDecoder(bytes.NewReader(raw))
		dec.DisallowUnknownFields()
		if err := dec.Decode(&s); err != nil {
			return
		}
		n, err := s.Normalize()
		if err != nil {
			return
		}
		canon := n.CanonicalJSON()
		n2, err := n.Normalize()
		if err != nil {
			t.Fatalf("normalized spec rejected: %v\n%s", err, canon)
		}
		if b := n2.CanonicalJSON(); !bytes.Equal(b, canon) {
			t.Fatalf("Normalize not idempotent:\n%s\n%s", canon, b)
		}
		var back JobSpec
		if err := json.Unmarshal(canon, &back); err != nil {
			t.Fatalf("canonical JSON does not decode: %v\n%s", err, canon)
		}
		n3, err := back.Normalize()
		if err != nil {
			t.Fatalf("canonical spec rejected on replay: %v\n%s", err, canon)
		}
		if n3.ID() != n.ID() {
			t.Fatalf("job ID %s became %s on replay of\n%s", n.ID(), n3.ID(), canon)
		}
		if b := n3.CanonicalJSON(); !bytes.Equal(b, canon) {
			t.Fatalf("canonical JSON not a fixed point:\n%s\n%s", canon, b)
		}
	})
}
