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
// columns, both k-major — salted through mask (salt).
func microPanels(rng *rand.Rand, K int, mask uint8) (ap, bp []float64) {
	return salt(rng, mr*K, mask), salt(rng, nr*K, mask)
}

// salt draws n values from N(0,1); bit i of mask admits
// microSpecials[i], and with any bit set about one value in four is
// replaced by an admitted special.
func salt(rng *rand.Rand, n int, mask uint8) []float64 {
	var admitted []float64
	for i, v := range microSpecials {
		if mask&(1<<i) != 0 {
			admitted = append(admitted, v)
		}
	}
	p := make([]float64, n)
	for i := range p {
		p[i] = rng.NormFloat64()
		if len(admitted) > 0 && rng.Intn(4) == 0 {
			p[i] = admitted[rng.Intn(len(admitted))]
		}
	}
	return p
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

// idxLevels lists newIdxTable arguments with K entries: contiguous,
// every entry repeated, evenly gapped, and, where K factors, gaps and
// repeats mixed within one table.
func idxLevels(K int) [][6]int {
	ls := [][6]int{{1, 0, 1, 0, K, 1}, {K, 0, 1, 0, 1, 0}, {K, 5, 1, 0, 1, 0}}
	if K%2 == 0 {
		ls = append(ls, [6]int{K / 2, 4, 2, 0, 1, 0}, [6]int{K / 2, 7, 1, 3, 2, 3})
	}
	if K%3 == 0 {
		ls = append(ls, [6]int{K / 3, 9, 3, 2, 1, 0})
	}
	return ls
}

// microIndexed draws operands for micro2x4Idx from the table levels l:
// lane bases o0, o1 below 5 in either order or equal, an x just long
// enough for both lanes' last reads, and a K-step nr-column panel bp,
// all salted through mask.
func microIndexed(rng *rand.Rand, l [6]int, mask uint8) (x []float64, o0, o1 int, tab idxTable, bp []float64) {
	tab = newIdxTable(l[0], l[1], l[2], l[3], l[4], l[5])
	K := len(tab.off)
	o0, o1 = rng.Intn(5), rng.Intn(5)
	hi := 0
	if K > 0 {
		hi = tab.off[K-1]
	}
	return salt(rng, max(o0, o1)+hi+1, mask), o0, o1, tab, salt(rng, nr*K, mask)
}

// checkMicroIdx runs micro2x4Idx and micro2x4IdxGo on the same operands
// for every edge and interior tile shape, with rows 1 apart and columns
// nr+3 apart (the conv passes' store) and the transpose, into buffers
// whose every other element is a sentinel, and requires the two buffers
// to match as checkMicro does. The tile starts one element into its
// buffer, so a store before dst shows too.
func checkMicroIdx(t *testing.T, x []float64, o0, o1 int, tab idxTable, bp []float64) {
	t.Helper()
	const sentinel = -1234.5
	for _, st := range [][2]int{{1, nr + 3}, {nr + 3, 1}} {
		rs, cs := st[0], st[1]
		for rows := 1; rows <= mr; rows++ {
			for cols := 1; cols <= nr; cols++ {
				got, want := make([]float64, rs+3*cs+3), make([]float64, rs+3*cs+3)
				for i := range got {
					got[i], want[i] = sentinel, sentinel
				}
				micro2x4Idx(x, o0, o1, tab, bp, got[1:], rs, cs, rows, cols)
				micro2x4IdxGo(x, o0, o1, tab, bp, want[1:], rs, cs, rows, cols)
				for i, w := range want {
					g := got[i]
					if math.IsNaN(w) && math.IsNaN(g) || math.Float64bits(g) == math.Float64bits(w) {
						continue
					}
					t.Fatalf("K=%d table %v lanes %d,%d strides %d,%d %dx%d tile: buffer element %d is %v (%#x), the Go loop's is %v (%#x)",
						len(tab.off), tab.off, o0, o1, rs, cs, rows, cols, i, g, math.Float64bits(g), w, math.Float64bits(w))
				}
			}
		}
	}
}

// TestMicroKernelIndexedMatchesGoLoop holds the architecture's indexed
// micro-kernel to its portable Go loop bit for bit, as
// TestMicroKernelMatchesGoLoop does the packed one, over contiguous,
// gapped and repeating index tables.
func TestMicroKernelIndexedMatchesGoLoop(t *testing.T) {
	rng := rand.New(rand.NewSource(49))
	masks := []uint8{0, 0xff}
	for i := range microSpecials {
		masks = append(masks, 1<<i)
	}
	for _, K := range []int{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 31, 257} {
		for _, l := range idxLevels(K) {
			for _, mask := range masks {
				x, o0, o1, tab, bp := microIndexed(rng, l, mask)
				checkMicroIdx(t, x, o0, o1, tab, bp)
				tab.release()
			}
		}
	}
}

// TestMicroKernelIndexedRefusesShortOperand: a table whose last entry
// reaches one element past x, from either lane, panics before the
// kernel writes anything, and a table that would not ascend, so that
// its ends would not bound it, is never built.
func TestMicroKernelIndexedRefusesShortOperand(t *testing.T) {
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("newIdxTable built 0 1 2 1 2 3")
			}
		}()
		newIdxTable(2, 1, 1, 0, 3, 1)
	}()
	rng := rand.New(rand.NewSource(50))
	tab := newIdxTable(3, 4, 1, 0, 2, 1) // 0 1 4 5 8 9
	defer tab.release()
	bp := salt(rng, nr*len(tab.off), 0)
	for _, lanes := range [][2]int{{2, 0}, {0, 2}} {
		for _, kernel := range []struct {
			name string
			run  func(x, dst []float64)
		}{
			{"micro2x4Idx", func(x, dst []float64) { micro2x4Idx(x, lanes[0], lanes[1], tab, bp, dst, nr, 1, mr, nr) }},
			{"micro2x4IdxGo", func(x, dst []float64) { micro2x4IdxGo(x, lanes[0], lanes[1], tab, bp, dst, nr, 1, mr, nr) }},
		} {
			x := salt(rng, 2+9+1, 0)
			kernel.run(x, make([]float64, mr*nr)) // exactly long enough
			dst := make([]float64, mr*nr)
			for i := range dst {
				dst[i] = -1234.5
			}
			func() {
				defer func() {
					if recover() == nil {
						t.Fatalf("%s lanes %v: a table one past x did not panic", kernel.name, lanes)
					}
				}()
				kernel.run(x[:len(x)-1], dst)
			}()
			for i, v := range dst {
				if v != -1234.5 {
					t.Fatalf("%s lanes %v: dst[%d] written (%v) before the panic", kernel.name, lanes, i, v)
				}
			}
		}
	}
}

// FuzzMicroKernelIndexed searches (K, table shape, seed, special-value
// mask) for operands on which the indexed micro-kernel and its Go loop
// disagree.
func FuzzMicroKernelIndexed(f *testing.F) {
	f.Add(uint16(0), uint8(0), int64(1), uint8(0))
	f.Add(uint16(1), uint8(1), int64(2), uint8(0xff))
	f.Add(uint16(9), uint8(5), int64(3), uint8(0xc0))
	f.Add(uint16(258), uint8(3), int64(4), uint8(0x3f))
	f.Fuzz(func(t *testing.T, k uint16, shape uint8, seed int64, mask uint8) {
		ls := idxLevels(int(k % 1024))
		x, o0, o1, tab, bp := microIndexed(rand.New(rand.NewSource(seed)), ls[int(shape)%len(ls)], mask)
		defer tab.release()
		checkMicroIdx(t, x, o0, o1, tab, bp)
	})
}
