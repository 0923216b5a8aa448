package tensor

import "fmt"

// The GEBP engine's configuration surface (kernel_tuned.go). The
// engine has one 2×4 register micro-kernel; what a Tuning moves is the
// cache-block size per GEMM shape class and the parallel threshold,
// runtime parameters of the "blocked" kernel: looked up by name it is
// the engine at DefaultTuning() (64×64 blocks), and Blocked builds it
// under any other Tuning, so a per-machine sweep (internal/tune) can
// pick the fastest blocks per class. Crucially none of these
// parameters can change results: every output element accumulates its
// k terms ascending into a single accumulator under every
// configuration, so the engine stays bitwise-equal to naive under
// every tuning.

// TileConfig is one shape class's cache blocking: BlockM×BlockN is the
// output tile one parallel task owns. Both must be positive multiples
// of the micro-tile's mr/nr so tile origins land on panel boundaries.
// Streams written while the engine had a menu of micro-kernels also
// carry "mr", "nr" and "k_unroll" keys; decoding ignores them.
type TileConfig struct {
	BlockM int `json:"block_m"`
	BlockN int `json:"block_n"`
}

// String renders the config compactly: "64x64".
func (c TileConfig) String() string {
	return fmt.Sprintf("%dx%d", c.BlockM, c.BlockN)
}

// Validate reports why the config cannot drive the GEBP engine; nil
// means it can.
func (c TileConfig) Validate() error {
	if c.BlockM < mr || c.BlockM%mr != 0 {
		return fmt.Errorf("tensor: BlockM %d must be a positive multiple of %d", c.BlockM, mr)
	}
	if c.BlockN < nr || c.BlockN%nr != 0 {
		return fmt.Errorf("tensor: BlockN %d must be a positive multiple of %d", c.BlockN, nr)
	}
	return nil
}

// GEMM shape classes. A (m×k)·(k×n) product is bucketed by which
// dimension dominates, because the best tile geometry differs: a
// square product wants big cache blocks, a skinny product (huge inner
// k, small output) wants panel reuse across few tiles, and a fat
// product (big output, shallow k) amortizes packing over many tiles.
const (
	// ShapeSquare: no dimension dominates (aspect ratios within 4×).
	ShapeSquare = "square"
	// ShapeSkinny: the inner dimension dominates (k ≥ 4·max(m,n)),
	// e.g. 64×2048×64 — skinny operands, small output.
	ShapeSkinny = "skinny"
	// ShapeFat: the output dominates (max(m,n) ≥ 4·k), e.g.
	// 2048×64×2048 — a fat output computed from a shallow k.
	ShapeFat = "fat"
)

// GEMMShapeClass buckets a (m×k)·(k×n) product into the tuning shape
// class the blocked kernel will look up. Pure function of the shape, so
// config selection is deterministic per call site.
func GEMMShapeClass(m, k, n int) string {
	long := max(m, n)
	switch {
	case k >= 4*long:
		return ShapeSkinny
	case long >= 4*k:
		return ShapeFat
	default:
		return ShapeSquare
	}
}

// Tuning is the GEBP engine's complete parameter set: one TileConfig
// per shape class plus the shared parallel threshold.
type Tuning struct {
	// Threshold is the multiply-add count above which the blocked
	// kernel's loops fork across cores.
	Threshold int `json:"parallel_threshold"`
	// Square, Skinny, and Fat drive MatMul/MatMulT/TMatMul by
	// GEMMShapeClass. Conv2D and Conv2DBackward walk
	// convRowChunk-pixel chunks of one image rather than blocks, so
	// they read only the threshold.
	Square TileConfig `json:"square"`
	Skinny TileConfig `json:"skinny"`
	Fat    TileConfig `json:"fat"`
}

// DefaultTuning is the built-in configuration: the one "blocked" runs
// under when no persisted tuneconfig names another. 64×64 tiles keep
// the packed A and B slices a tile touches (64·K doubles each) within
// L2 for the suite's typical K while still cutting a 512×512 product
// into 64 independent tasks.
func DefaultTuning() Tuning {
	std := TileConfig{BlockM: 64, BlockN: 64}
	return Tuning{Threshold: 1 << 17, Square: std, Skinny: std, Fat: std}
}

// Validate reports why the tuning cannot drive the GEBP engine; nil
// means it can.
func (t Tuning) Validate() error {
	if t.Threshold <= 0 {
		return fmt.Errorf("tensor: tuning parallel threshold %d must be positive", t.Threshold)
	}
	for _, c := range []struct {
		class string
		cfg   TileConfig
	}{
		{ShapeSquare, t.Square}, {ShapeSkinny, t.Skinny}, {ShapeFat, t.Fat},
	} {
		if err := c.cfg.Validate(); err != nil {
			return fmt.Errorf("%s class: %v", c.class, err)
		}
	}
	return nil
}

// gemmFor selects the TileConfig the blocked kernel uses for a GEMM of
// the given shape.
func (t *Tuning) gemmFor(m, k, n int) *TileConfig {
	switch GEMMShapeClass(m, k, n) {
	case ShapeSkinny:
		return &t.Skinny
	case ShapeFat:
		return &t.Fat
	}
	return &t.Square
}

// Summary renders the tuning as one line for `aibench version` and run
// listings.
func (t Tuning) Summary() string {
	return fmt.Sprintf("gemm[square]=%s gemm[skinny]=%s gemm[fat]=%s parallel-threshold=%d",
		t.Square, t.Skinny, t.Fat, t.Threshold)
}
