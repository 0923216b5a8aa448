package tensor

import (
	"math"
	"math/rand"
	"testing"
)

// microSpecials are the values microPanels salts the panels with: both
// zeros, the smallest subnormals, the largest finite values (whose
// products overflow) and both infinities (whose sums cancel to NaN).
var microSpecials = []float64{
	0, math.Copysign(0, -1),
	math.SmallestNonzeroFloat64, -math.SmallestNonzeroFloat64,
	math.MaxFloat64, -math.MaxFloat64,
	math.Inf(1), math.Inf(-1),
}

// microPanels draws a K-step pair of packed panels — ap mr rows, bp nr
// columns, both k-major — from N(0,1). Bit i of mask admits
// microSpecials[i]; with any bit set, about one element in four is
// replaced by an admitted special.
func microPanels(rng *rand.Rand, K int, mask uint8) (ap, bp []float64) {
	var admitted []float64
	for i, v := range microSpecials {
		if mask&(1<<i) != 0 {
			admitted = append(admitted, v)
		}
	}
	ap, bp = make([]float64, mr*K), make([]float64, nr*K)
	for _, p := range [][]float64{ap, bp} {
		for i := range p {
			p[i] = rng.NormFloat64()
			if len(admitted) > 0 && rng.Intn(4) == 0 {
				p[i] = admitted[rng.Intn(len(admitted))]
			}
		}
	}
	return ap, bp
}

// checkMicro runs micro2x4u4 and micro2x4Go on the same panels for
// every edge and interior tile shape, at a packed leading dimension and
// at a wider one, into buffers whose every other element is a sentinel,
// and requires the two buffers to match: bitwise where the Go loop's
// value is not NaN (so −0 must stay −0), a NaN for a NaN (which NaN an
// operation returns when two meet follows an operand order neither
// IEEE 754 nor Go pins). The tile starts one element into its buffer,
// so a store before dst shows too.
func checkMicro(t *testing.T, ap, bp []float64, K int) {
	t.Helper()
	const sentinel = -1234.5
	for _, ldc := range []int{nr, nr + 3} {
		for rows := 1; rows <= mr; rows++ {
			for cols := 1; cols <= nr; cols++ {
				got, want := make([]float64, 2*ldc+2), make([]float64, 2*ldc+2)
				for i := range got {
					got[i], want[i] = sentinel, sentinel
				}
				micro2x4u4(ap, bp, K, got[1:], ldc, rows, cols)
				micro2x4Go(ap, bp, K, want[1:], ldc, rows, cols)
				for i, w := range want {
					g := got[i]
					if math.IsNaN(w) && math.IsNaN(g) || math.Float64bits(g) == math.Float64bits(w) {
						continue
					}
					t.Fatalf("K=%d ldc=%d %dx%d tile: buffer element %d is %v (%#x), the Go loop's is %v (%#x)",
						K, ldc, rows, cols, i, g, math.Float64bits(g), w, math.Float64bits(w))
				}
			}
		}
	}
}

// TestMicroKernelMatchesGoLoop holds the architecture's micro-kernel to
// the portable Go loop bit for bit (on amd64 that is the SSE2 routine;
// elsewhere the kernel is the loop itself): every K of the unrolled
// loop's remainders, longer runs, every tile shape, normal draws alone
// and salted with each special value and with all of them.
func TestMicroKernelMatchesGoLoop(t *testing.T) {
	rng := rand.New(rand.NewSource(47))
	masks := []uint8{0, 0xff}
	for i := range microSpecials {
		masks = append(masks, 1<<i)
	}
	for _, K := range []int{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 31, 64, 257} {
		for _, mask := range masks {
			ap, bp := microPanels(rng, K, mask)
			checkMicro(t, ap, bp, K)
		}
	}
}

// FuzzMicroKernel searches (K, seed, special-value mask) for panels on
// which the micro-kernel and the Go loop disagree.
func FuzzMicroKernel(f *testing.F) {
	f.Add(uint16(0), int64(1), uint8(0))
	f.Add(uint16(1), int64(2), uint8(0xff))
	f.Add(uint16(9), int64(3), uint8(0xc0))
	f.Add(uint16(257), int64(4), uint8(0x3f))
	f.Fuzz(func(t *testing.T, k uint16, seed int64, mask uint8) {
		K := int(k % 1024)
		ap, bp := microPanels(rand.New(rand.NewSource(seed)), K, mask)
		checkMicro(t, ap, bp, K)
	})
}
