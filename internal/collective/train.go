package collective

import (
	"encoding/json"
	"fmt"
	"io"

	"finepack/internal/trace"
	"finepack/internal/tracestream"
)

// Training-phase bounds.
const (
	maxTrainSteps = 1 << 16
	maxPhaseBytes = 1 << 30
)

// TrainSpec is an Eidola-style proxy for one 3D-parallel training step:
// instead of shipping a framework trace, it ships the parallelism dims
// and per-phase payloads the communication is drawn from. Ranks map to
// the (dp, pp, tp) grid as gpu = (dp·PP + pp)·TP + tp, so tensor-parallel
// groups are contiguous GPU ranges (intra-node under the hierarchical
// presets) while data-parallel rings stride across nodes — the placement
// real launchers use, and the one that makes the gradient AllReduce the
// inter-node tenant of the topology experiments.
//
// Each training step expands to a phase sequence of trace iterations:
// TP-1 tensor-parallel allgather steps (overlapped with GEMM work), one
// pipeline activation hop, then 2(DP-1) gradient ring-AllReduce steps.
// Dims of 1 skip their phase.
type TrainSpec struct {
	// Name labels the workload; defaults to "train-dp<D>pp<P>tp<T>".
	Name string `json:"name,omitempty"`
	// DP, PP, TP are the data-, pipeline- and tensor-parallel degrees;
	// their product is the GPU count.
	DP int `json:"dp"`
	PP int `json:"pp"`
	TP int `json:"tp"`
	// Steps is the number of training steps; defaults to 1.
	Steps int `json:"steps,omitempty"`
	// ActivationBytes is the pipeline-phase payload per hop; defaults to
	// 1 MiB when PP > 1, forced to 0 otherwise.
	ActivationBytes int `json:"activation_bytes,omitempty"`
	// GradientBytes is the data-parallel AllReduce payload; defaults to
	// 4 MiB when DP > 1, forced to 0 otherwise.
	GradientBytes int `json:"gradient_bytes,omitempty"`
	// TPCollectiveBytes is the tensor-parallel allgather payload;
	// defaults to 1 MiB when TP > 1, forced to 0 otherwise.
	TPCollectiveBytes int `json:"tp_collective_bytes,omitempty"`
	// ElemSize is the per-lane store width; defaults to 4.
	ElemSize int `json:"elem_size,omitempty"`
	// ComputeOpsPerByte scales per-phase compute; defaults to 1.
	ComputeOpsPerByte float64 `json:"compute_ops_per_byte,omitempty"`
	// Micro optionally overlays a fine-grained synthesized application
	// stream (tracestream profile) on the same GPUs: Source() mixes it
	// in, cycling it against the training phases.
	Micro *tracestream.Profile `json:"micro,omitempty"`
}

// GPUs returns the rank count, DP·PP·TP.
func (ts *TrainSpec) GPUs() int { return ts.DP * ts.PP * ts.TP }

// Validate checks the spec and fills defaults in place.
func (ts *TrainSpec) Validate() error {
	if ts.DP < 1 || ts.PP < 1 || ts.TP < 1 {
		return fmt.Errorf("collective: train dims must be >= 1, got dp=%d pp=%d tp=%d", ts.DP, ts.PP, ts.TP)
	}
	// Each dim is bounded before they multiply (here and in the gradient
	// minimum), so a product cannot wrap around into range.
	if ts.DP > maxCollectiveGPUs || ts.PP > maxCollectiveGPUs || ts.TP > maxCollectiveGPUs {
		return fmt.Errorf("collective: train dims must be <= %d, got dp=%d pp=%d tp=%d",
			maxCollectiveGPUs, ts.DP, ts.PP, ts.TP)
	}
	ng := ts.GPUs()
	if ng < 2 || ng > maxCollectiveGPUs {
		return fmt.Errorf("collective: train gpus %d (dp·pp·tp) outside [2,%d]", ng, maxCollectiveGPUs)
	}
	if ts.Name == "" {
		ts.Name = fmt.Sprintf("train-dp%dpp%dtp%d", ts.DP, ts.PP, ts.TP)
	}
	if ts.Steps == 0 {
		ts.Steps = 1
	}
	if ts.Steps < 1 || ts.Steps > maxTrainSteps {
		return fmt.Errorf("collective: train steps %d outside [1,%d]", ts.Steps, maxTrainSteps)
	}
	if ts.ElemSize == 0 {
		ts.ElemSize = 4
	}
	if ts.ElemSize < 1 || ts.ElemSize > 16 {
		return fmt.Errorf("collective: elem_size %d outside [1,16]", ts.ElemSize)
	}
	if ts.ComputeOpsPerByte == 0 {
		ts.ComputeOpsPerByte = 1
	}
	if !(ts.ComputeOpsPerByte > 0) {
		return fmt.Errorf("collective: compute_ops_per_byte must be positive")
	}
	type phase struct {
		name   string
		active bool
		bytes  *int
		def    int
		min    int
	}
	for _, p := range []phase{
		{"activation_bytes", ts.PP > 1, &ts.ActivationBytes, 1 << 20, ts.ElemSize},
		{"gradient_bytes", ts.DP > 1, &ts.GradientBytes, 4 << 20, ts.DP * ts.ElemSize},
		{"tp_collective_bytes", ts.TP > 1, &ts.TPCollectiveBytes, 1 << 20, ts.TP * ts.ElemSize},
	} {
		if !p.active {
			// Forced to 0 so inactive-phase payloads cannot fork the
			// canonical encoding.
			*p.bytes = 0
			continue
		}
		if *p.bytes == 0 {
			*p.bytes = p.def
		}
		if *p.bytes < p.min || *p.bytes > maxPhaseBytes {
			return fmt.Errorf("collective: %s %d outside [%d,%d]", p.name, *p.bytes, p.min, maxPhaseBytes)
		}
	}
	if ts.Micro != nil {
		if err := ts.Micro.Validate(); err != nil {
			return err
		}
		if ts.Micro.NumGPUs != ng {
			return fmt.Errorf("collective: micro profile gpus %d != train gpus %d", ts.Micro.NumGPUs, ng)
		}
	}
	return nil
}

// CanonicalJSON returns the spec's canonical encoding (declaration
// order, defaults filled by a prior Validate).
func (ts *TrainSpec) CanonicalJSON() []byte {
	b, err := json.Marshal(ts)
	if err != nil {
		panic("collective: canonical marshal: " + err.Error())
	}
	return b
}

// ParseTrainSpec decodes and validates a JSON train spec, rejecting
// unknown fields.
func ParseTrainSpec(r io.Reader) (*TrainSpec, error) {
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	var ts TrainSpec
	if err := dec.Decode(&ts); err != nil {
		return nil, fmt.Errorf("collective: parse train spec: %w", err)
	}
	if err := ts.Validate(); err != nil {
		return nil, err
	}
	return &ts, nil
}

// phase step counts (after Validate; inactive dims contribute 0).
func (ts *TrainSpec) tpSteps() int { return ts.TP - 1 }
func (ts *TrainSpec) ppSteps() int {
	if ts.PP > 1 {
		return 1
	}
	return 0
}
func (ts *TrainSpec) dpSteps() int { return 2 * (ts.DP - 1) }

// Source builds the training-phase stream; when Micro is set, the
// fine-grained synthesized stream is mixed in on the same ranks.
func (ts *TrainSpec) Source() (trace.IterationSource, error) {
	base, err := NewTrainSource(*ts)
	if err != nil {
		return nil, err
	}
	if ts.Micro == nil {
		return base, nil
	}
	micro, err := tracestream.NewSynthSource(*ts.Micro)
	if err != nil {
		return nil, err
	}
	return NewMix(base.Meta().Name+"+"+ts.Micro.Name, base, micro)
}

// TrainSource expands a TrainSpec (without its Micro overlay) into the
// per-phase iteration stream.
type TrainSource struct {
	s                  TrainSpec
	perStep            int
	gradChunk, tpShard int
	i                  int
	buf                iterBuf
}

// NewTrainSource validates (and normalizes) the spec and returns its
// deterministic expansion.
func NewTrainSource(s TrainSpec) (*TrainSource, error) {
	if err := s.Validate(); err != nil {
		return nil, err
	}
	src := &TrainSource{s: s}
	src.perStep = s.tpSteps() + s.ppSteps() + s.dpSteps()
	if src.perStep == 0 {
		return nil, fmt.Errorf("collective: train spec %q has no communicating phase (all dims are 1)", s.Name)
	}
	src.gradChunk = alignUp(ceilDiv(s.GradientBytes, max(s.DP, 1)), s.ElemSize)
	src.tpShard = alignUp(ceilDiv(s.TPCollectiveBytes, max(s.TP, 1)), s.ElemSize)
	return src, nil
}

// Spec returns the normalized spec the source expands.
func (src *TrainSource) Spec() TrainSpec { return src.s }

// Meta implements trace.IterationSource.
func (src *TrainSource) Meta() trace.Meta {
	s := &src.s
	ng := float64(s.GPUs())
	// Aggregate per-iteration compute averaged over one training step.
	var total float64
	if s.TP > 1 {
		total += float64(s.tpSteps()) * ng * s.ComputeOpsPerByte * float64(src.tpShard)
	}
	if s.PP > 1 {
		total += ng * s.ComputeOpsPerByte * float64(s.ActivationBytes)
	}
	if s.DP > 1 {
		total += float64(s.DP-1) * ng * s.ComputeOpsPerByte * float64(src.gradChunk)
	}
	return trace.Meta{
		Name:                s.Name,
		NumGPUs:             s.GPUs(),
		SingleGPUOpsPerIter: total / float64(src.perStep),
		Iterations:          s.Steps * src.perStep,
	}
}

// Reset implements trace.IterationSource.
func (src *TrainSource) Reset() error {
	src.i = 0
	return nil
}

// Next implements trace.IterationSource.
func (src *TrainSource) Next() (*trace.Iteration, error) {
	if src.i >= src.s.Steps*src.perStep {
		return nil, io.EOF
	}
	src.fill(src.i % src.perStep)
	src.i++
	return &src.buf.it, nil
}

// fill regenerates the reused window with phase step `si` of a training
// step.
//
//finepack:hotpath collective synthesis, once per streamed iteration window
func (src *TrainSource) fill(si int) {
	s := &src.s
	src.buf.reset(s.GPUs())
	switch {
	case si < s.tpSteps():
		src.fillTP(si)
	case si < s.tpSteps()+s.ppSteps():
		src.fillPP()
	default:
		src.fillDP(si - s.tpSteps() - s.ppSteps())
	}
	src.buf.fixup()
}

// fillTP emits one tensor-parallel allgather step: each rank pushes one
// shard to its TP-ring successor (same dp, pp; tp+1) while GEMMing the
// shard that arrived last step.
func (src *TrainSource) fillTP(step int) {
	s := &src.s
	ng := s.GPUs()
	for g := 0; g < ng; g++ {
		tp := g % s.TP
		dst := g - tp + (tp+1)%s.TP
		idx := ((tp-step)%s.TP + s.TP) % s.TP
		base := replicaBase + uint64(idx)*uint64(src.tpShard)
		src.buf.emitContiguous(g, dst, base, src.tpShard, s.ElemSize)
		src.buf.addCopy(g, dst, src.tpShard)
		src.buf.it.PerGPU[g].ComputeOps = s.ComputeOpsPerByte * float64(src.tpShard)
	}
}

// fillPP emits the pipeline hop: every non-final stage pushes its
// activations to the same (dp, tp) rank one stage downstream; every rank
// runs its stage's forward/backward work.
func (src *TrainSource) fillPP() {
	s := &src.s
	ng := s.GPUs()
	for g := 0; g < ng; g++ {
		pp := (g / s.TP) % s.PP
		if pp < s.PP-1 {
			src.buf.emitContiguous(g, g+s.TP, replicaBase, s.ActivationBytes, s.ElemSize)
			src.buf.addCopy(g, g+s.TP, s.ActivationBytes)
		}
		src.buf.it.PerGPU[g].ComputeOps = s.ComputeOpsPerByte * float64(s.ActivationBytes)
	}
}

// fillDP emits one gradient ring-AllReduce step across the data-parallel
// dimension: rank g's ring successor is the same (pp, tp) slot in the
// next DP replica, a stride of PP·TP ranks — inter-node under the
// hierarchical presets.
func (src *TrainSource) fillDP(step int) {
	s := &src.s
	ng := s.GPUs()
	stride := s.PP * s.TP
	reduce := step < s.DP-1
	for g := 0; g < ng; g++ {
		dp := g / stride
		dst := ((dp+1)%s.DP)*stride + g%stride
		var idx int
		if reduce {
			idx = ((dp-step)%s.DP + s.DP) % s.DP
		} else {
			idx = ((dp+1-(step-(s.DP-1)))%s.DP + 2*s.DP) % s.DP
		}
		base := replicaBase + uint64(idx)*uint64(src.gradChunk)
		src.buf.emitContiguous(g, dst, base, src.gradChunk, s.ElemSize)
		src.buf.addCopy(g, dst, src.gradChunk)
		if reduce {
			src.buf.it.PerGPU[g].ComputeOps = s.ComputeOpsPerByte * float64(src.gradChunk)
		}
	}
}

func ceilDiv(a, b int) int { return (a + b - 1) / b }

func alignUp(n, align int) int {
	if r := n % align; r != 0 {
		n += align - r
	}
	return n
}
