package collective

import (
	"bytes"
	"strings"
	"testing"
)

// TestTrainSpecDimsOverflow: dims whose product wraps around into the
// valid GPU range must be rejected, not run as a small job.
func TestTrainSpecDimsOverflow(t *testing.T) {
	for _, ts := range []TrainSpec{
		{DP: 4611686018427387905, PP: 4, TP: 1}, // 2^62+1 · 4 wraps to 4
		{DP: 1, PP: 1 << 32, TP: 1 << 32},       // 2^64 wraps to 0
		{DP: 1025, PP: 1, TP: 1},
	} {
		if err := ts.Validate(); err == nil || !strings.Contains(err.Error(), "train dims") {
			t.Errorf("dp=%d pp=%d tp=%d: error %v, want a train dims rejection", ts.DP, ts.PP, ts.TP, err)
		}
	}
}

// FuzzTrainSpec drives train-spec JSON, the input a training job is
// submitted as. Rejections are fine; an accepted spec must have a rank
// count that is the true product of its dims and inside [2, 1024], a
// canonical encoding that is a fixed point of ParseTrainSpec, and must
// build a source (or fail cleanly) whose metadata agrees with it.
func FuzzTrainSpec(f *testing.F) {
	f.Add([]byte(`{"dp":2,"pp":2,"tp":2,"steps":2,"activation_bytes":2048,"gradient_bytes":4096,"tp_collective_bytes":2048}`))
	f.Add([]byte(`{"dp":4,"pp":1,"tp":1}`))
	f.Add([]byte(`{"dp":4611686018427387905,"pp":4,"tp":1}`))
	f.Add([]byte(`{"dp":2,"pp":1,"tp":1,"elem_size":16,"gradient_bytes":32}`))

	f.Fuzz(func(t *testing.T, raw []byte) {
		if len(raw) > 4096 {
			return
		}
		ts, err := ParseTrainSpec(bytes.NewReader(raw))
		if err != nil {
			return
		}
		if p := float64(ts.DP) * float64(ts.PP) * float64(ts.TP); p != float64(ts.GPUs()) {
			t.Fatalf("dp=%d pp=%d tp=%d: rank count %d is not their product", ts.DP, ts.PP, ts.TP, ts.GPUs())
		}
		if g := ts.GPUs(); g < 2 || g > maxCollectiveGPUs {
			t.Fatalf("accepted rank count %d outside [2,%d]", g, maxCollectiveGPUs)
		}
		canon := ts.CanonicalJSON()
		again, err := ParseTrainSpec(bytes.NewReader(canon))
		if err != nil {
			t.Fatalf("canonical form rejected: %v\n%s", err, canon)
		}
		if b := again.CanonicalJSON(); !bytes.Equal(b, canon) {
			t.Fatalf("canonical form not a fixed point:\n%s\n%s", canon, b)
		}
		src, err := NewTrainSource(*ts)
		if err != nil {
			return
		}
		if m := src.Meta(); m.NumGPUs != ts.GPUs() || m.Iterations < 1 {
			t.Fatalf("source meta %+v disagrees with spec %s", m, canon)
		}
	})
}
