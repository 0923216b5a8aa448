package dist

import (
	"fmt"

	"aibench/internal/models"
	"aibench/internal/nn"
	"aibench/internal/telemetry"
	"aibench/internal/tensor"
)

// replica is one rank's workload instance plus the flatten/restore
// machinery around it. It is the unit both backends execute: the Local
// group holds w replicas in this process, the Process backend holds one
// replica per child, and either way the numbers a replica produces
// depend only on (factory, seed, rank, workers) — never on where it
// runs.
type replica struct {
	rank    int
	workers int

	trainer models.Benchmark
	params  []*nn.Param
	groups  [][]*nn.Param // per phase: the phase's reduce group
	buffers []*tensor.Tensor
	spec    GroupSpec
	// counters is what the replica's ops count into: its run's, nil
	// when the run is untraced. A worker child ships them home.
	counters *telemetry.Counters

	bufSnap     []float64   // phase-start buffer state (all ranks identical)
	gradScratch [][]float64 // k-th grain's reusable gradient vector
	bufScratch  [][]float64 // k-th grain's reusable buffer capture
	grains      []GrainOut  // reused output slice
}

// newReplica constructs rank's workload from the factory at the shared
// seed, places it under the run — its kernels and its counters — and
// validates its shape; a refusal names the workload by benchID.
// Every rank runs exactly this — replica construction is part of the
// deterministic contract, so the validation errors are worded
// identically wherever they surface.
func newReplica(benchID string, factory models.Factory, seed int64, rank, workers int, run *tensor.Run) (*replica, error) {
	st := factory(seed)
	st.Arena().SetRun(run)
	r := &replica{rank: rank, workers: workers, trainer: st, params: st.Module().Params(), counters: run.Counters}
	if bt, ok := st.(models.Buffered); ok {
		r.buffers = bt.Buffers()
	}
	phases, err := models.CheckPhases(st)
	if err != nil {
		return nil, fmt.Errorf("dist: %s %w", benchID, err)
	}
	r.spec = GroupSpec{
		Phases:   phases,
		GroupLen: make([]int, len(phases)),
		Steps:    st.StepsPerEpoch(models.ShardGrains),
	}
	for _, p := range r.params {
		r.spec.ParamLen += p.Value.Data.Size()
	}
	for _, b := range r.buffers {
		r.spec.BufLen += b.Size()
	}
	r.groups = make([][]*nn.Param, len(phases))
	for p := range phases {
		g := st.PhaseParams(p)
		if g == nil {
			g = r.params
		}
		r.groups[p] = g
		for _, pr := range g {
			r.spec.GroupLen[p] += pr.Value.Data.Size()
		}
	}
	r.bufSnap = make([]float64, r.spec.BufLen)
	return r, nil
}

// computePhase runs the rank's round-robin share of phase p's grains:
// snapshot the phase-start buffer state, draw the phase's units, then
// for each owned grain — its units from models.GrainUnits — restore
// that state, zero every gradient, train the grain, and record its
// flattened gradient and buffer capture in isolation. The returned
// slices are reused across calls.
func (r *replica) computePhase(p int) PhaseOut {
	// The replica drives the optimizer steps, so it ends them: the
	// workload's step arena is reset once per step, before phase 0
	// draws its batch — never between phases or grains, because later
	// phases and grains reuse tensors earlier ones built (a CycleGAN's
	// shared draw, a TBPTT segment's entry states).
	if p == 0 {
		r.trainer.Arena().Reset()
	}
	// Every rank snapshots its own buffers before BeginPhase; ranks are
	// bitwise in lockstep, so this equals the old shared rank-0 read.
	off := 0
	for _, b := range r.buffers {
		off += copy(r.bufSnap[off:], b.Data)
	}
	units := r.trainer.BeginPhase(p, models.ShardGrains)
	out := PhaseOut{Grains: r.grains[:0]}
	out.Total, _, _ = models.GrainUnits(units, models.ShardGrains, 0)
	plen := r.spec.GroupLen[p]
	k := 0
	for g := r.rank; g < out.Total; g += r.workers {
		_, lo, hi := models.GrainUnits(units, models.ShardGrains, g)
		r.restoreBuffers()
		zeroGrads(r.params)
		loss, n := r.trainer.Grain(p, lo, hi)
		grad := scratchVec(&r.gradScratch, k, r.spec.ParamLen)[:plen]
		r.flattenGradsInto(p, grad)
		buf := scratchVec(&r.bufScratch, k, r.spec.BufLen)
		r.flattenBuffersInto(buf)
		out.Grains = append(out.Grains, GrainOut{Grain: g, Loss: loss, N: n, Grad: grad, Buf: buf})
		k++
	}
	r.grains = out.Grains
	return out
}

// apply installs the all-reduced gradient (already sliced to the phase
// group) and buffer state, then applies the phase update.
func (r *replica) apply(p int, grad, buf []float64) {
	off := 0
	for _, pr := range r.groups[p] {
		n := pr.Value.Data.Size()
		copy(pr.Value.EnsureGrad().Data, grad[off:off+n])
		off += n
	}
	off = 0
	for _, b := range r.buffers {
		off += copy(b.Data, buf[off:off+b.Size()])
	}
	r.trainer.ApplyPhase(p)
}

// quality evaluates the benchmark metric on this rank.
func (r *replica) quality() float64 { return models.Evaluate(r.trainer, r.params) }

// restoreBuffers resets the rank's buffers to the phase-start snapshot
// so every grain's capture starts from the same state regardless of
// which grains this rank ran before it.
func (r *replica) restoreBuffers() {
	off := 0
	for _, b := range r.buffers {
		off += copy(b.Data, r.bufSnap[off:off+b.Size()])
	}
}

// flattenGradsInto copies the rank's phase-group gradients into the
// flat vector (nil gradients contribute zeros; dst fully overwritten).
func (r *replica) flattenGradsInto(p int, dst []float64) {
	off := 0
	for _, pr := range r.groups[p] {
		n := pr.Value.Data.Size()
		if g := pr.Value.Grad; g != nil {
			copy(dst[off:off+n], g.Data)
		} else {
			for j := off; j < off+n; j++ {
				dst[j] = 0
			}
		}
		off += n
	}
}

// flattenBuffersInto copies the rank's buffer state into the flat vector.
func (r *replica) flattenBuffersInto(dst []float64) {
	off := 0
	for _, b := range r.buffers {
		off += copy(dst[off:], b.Data)
	}
}

// scratchVec returns the k-th reusable vector of the pool, growing the
// pool on first use. Each grain slot is written by exactly one rank per
// phase, so reuse is race-free; vectors are sized for the largest
// (full-parameter) group and sliced down by the caller.
func scratchVec(pool *[][]float64, k, n int) []float64 {
	for len(*pool) <= k {
		*pool = append(*pool, make([]float64, n))
	}
	return (*pool)[k]
}

// zeroGrads clears every parameter gradient before a grain runs, so
// the grain's backward pass records its contribution alone — including
// gradients outside the phase's reduce group, which would otherwise
// leak into a later grain's capture of another phase.
func zeroGrads(ps []*nn.Param) {
	for _, p := range ps {
		p.Value.ZeroGrad()
	}
}
