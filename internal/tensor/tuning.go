package tensor

import "fmt"

// The GEBP engine's configuration surface (kernel_tuned.go). Tile
// geometry, register micro-kernel, k-unroll, and parallel threshold
// are runtime parameters of the "blocked" kernel: looked up by name it
// is the engine at DefaultTuning() (64×64 blocks, a 2×4 micro-kernel,
// ×4 k-unroll), and Blocked builds it under any other Tuning, so a
// per-machine sweep (internal/tune) can pick the fastest combination
// per GEMM shape class. Crucially none of these parameters
// can change results: every output element accumulates its k terms
// ascending into a single accumulator under every configuration, so
// the engine stays bitwise-equal to naive under every tuning.

// TileConfig parameterizes one instantiation of the GEBP engine.
type TileConfig struct {
	// MR×NR is the register micro-tile: MR rows of A and NR columns of
	// B held in scalar registers while streaming the shared k
	// dimension. Only shapes with a registered straight-line
	// micro-kernel are valid; see MicroMenu.
	MR int `json:"mr"`
	NR int `json:"nr"`
	// KUnroll is the micro-kernel's k-loop unroll depth. Unrolling
	// widens the loop body (amortizing loop control and bounds checks)
	// without reordering any addition: each accumulator still receives
	// exactly one product per k step in ascending k order.
	KUnroll int `json:"k_unroll"`
	// BlockM×BlockN is the output tile one parallel task owns. Both
	// must be multiples of MR/NR respectively so tile origins land on
	// panel boundaries.
	BlockM int `json:"block_m"`
	BlockN int `json:"block_n"`
}

// String renders the config compactly: "2x4u4@64x64".
func (c TileConfig) String() string {
	return fmt.Sprintf("%dx%du%d@%dx%d", c.MR, c.NR, c.KUnroll, c.BlockM, c.BlockN)
}

// Validate reports why the config cannot drive the GEBP engine; nil
// means it can.
func (c TileConfig) Validate() error {
	if microFor(c) == nil {
		return fmt.Errorf("tensor: no %dx%d micro-kernel with k-unroll %d (menu: %v)", c.MR, c.NR, c.KUnroll, MicroMenu())
	}
	if c.BlockM < c.MR || c.BlockM%c.MR != 0 {
		return fmt.Errorf("tensor: BlockM %d must be a positive multiple of MR %d", c.BlockM, c.MR)
	}
	if c.BlockN < c.NR || c.BlockN%c.NR != 0 {
		return fmt.Errorf("tensor: BlockN %d must be a positive multiple of NR %d", c.BlockN, c.NR)
	}
	return nil
}

// MicroMenu lists the register shapes with a registered straight-line
// micro-kernel, as TileConfigs with MR/NR/KUnroll set and zero blocks.
// The tuning sweep crosses this menu with a block-size menu; anything
// outside it is rejected by Validate.
func MicroMenu() []TileConfig {
	return []TileConfig{
		{MR: 2, NR: 4, KUnroll: 1},
		{MR: 2, NR: 4, KUnroll: 4},
		{MR: 4, NR: 4, KUnroll: 1},
		{MR: 4, NR: 4, KUnroll: 2},
		{MR: 2, NR: 8, KUnroll: 1},
		{MR: 2, NR: 8, KUnroll: 2},
	}
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
	// ShapeConv: the implicit im2col GEMM inside Conv2D (rows = output
	// channels, columns = output pixels, k = c·k·k taps) and its two
	// adjoints inside Conv2DBackward, tuned as one class of its own.
	ShapeConv = "conv"
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
	// GEMMShapeClass; Conv drives Conv2D's weights×pixels GEMM (MR
	// lanes over output channels, NR over pixels) and Conv2DBackward's
	// taps×pixels and channels×taps ones.
	Square TileConfig `json:"square"`
	Skinny TileConfig `json:"skinny"`
	Fat    TileConfig `json:"fat"`
	Conv   TileConfig `json:"conv"`
}

// DefaultTuning is the built-in configuration: the one "blocked" runs
// under when no persisted tuneconfig names another. 64×64 tiles keep
// the packed A and B slices a tile touches (64·K doubles each) within
// L2 for the suite's typical K while still cutting a 512×512 product
// into 64 independent tasks; the 2×4 micro-kernel measured faster than
// the spilling 4×4.
func DefaultTuning() Tuning {
	std := TileConfig{MR: 2, NR: 4, KUnroll: 4, BlockM: 64, BlockN: 64}
	return Tuning{Threshold: 1 << 17, Square: std, Skinny: std, Fat: std, Conv: std}
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
		{ShapeSquare, t.Square}, {ShapeSkinny, t.Skinny}, {ShapeFat, t.Fat}, {ShapeConv, t.Conv},
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
	return fmt.Sprintf("gemm[square]=%s gemm[skinny]=%s gemm[fat]=%s conv=%s parallel-threshold=%d",
		t.Square, t.Skinny, t.Fat, t.Conv, t.Threshold)
}
