package workload

import (
	"math"
	"testing"
)

func TestConvFLOPsKnown(t *testing.T) {
	// 3×3 conv, 64→64, 56×56 input stride 1: 2·(3·3·64·64·56·56).
	l := Layer{Kind: Conv, InC: 64, OutC: 64, Kernel: 3, Stride: 1, H: 56, W: 56}
	want := 2.0 * 3 * 3 * 64 * 64 * 56 * 56
	if got := l.FLOPs(); got != want {
		t.Fatalf("conv FLOPs = %g, want %g", got, want)
	}
	if got := l.Params(); got != 3*3*64*64+64 {
		t.Fatalf("conv params = %d", got)
	}
}

func TestLinearFLOPs(t *testing.T) {
	l := Layer{Kind: Linear, In: 2048, Out: 1000}
	if got := l.FLOPs(); got != 2*2048*1000 {
		t.Fatalf("linear FLOPs = %g", got)
	}
	seq := Layer{Kind: Linear, In: 512, Out: 512, M: 32}
	if got := seq.FLOPs(); got != 2*32*512*512 {
		t.Fatalf("seq linear FLOPs = %g", got)
	}
}

func TestLSTMParams(t *testing.T) {
	l := Layer{Kind: LSTM, Input: 256, Hidden: 512, SeqLen: 30}
	if got := l.Params(); got != 4*512*(256+512+1) {
		t.Fatalf("lstm params = %d", got)
	}
	if l.FLOPs() <= 0 {
		t.Fatal("lstm FLOPs should be positive")
	}
}

func TestResNet50ParamCountNearPaper(t *testing.T) {
	// Real ResNet-50 has 25.6M parameters; our spec-level accounting
	// should land within 10%.
	m := ResNet50(3, 224, 224, 1000)
	p := float64(m.Params()) / 1e6
	if math.Abs(p-25.6) > 2.6 {
		t.Fatalf("ResNet-50 params = %.2fM, want ≈25.6M", p)
	}
}

func TestResNet50FLOPsNearPaper(t *testing.T) {
	// Real ResNet-50 at 224² is ≈4.1 GMACs ≈ 8.2 GFLOPs under the
	// 2-FLOPs-per-MAC convention. Allow 20% for padding conventions.
	m := ResNet50(3, 224, 224, 1000)
	g := m.FLOPs() / 1e9
	if g < 6.5 || g > 10 {
		t.Fatalf("ResNet-50 FLOPs = %.2fG, want ≈8.2G", g)
	}
}

func TestResNet50BackboneSmaller(t *testing.T) {
	full := ResNet50(3, 224, 224, 1000)
	bb, c, oh, ow := ResNet50Backbone(3, 224, 224)
	if bb.Params() >= full.Params() {
		t.Fatal("backbone should have fewer params than full model")
	}
	if c != 2048 {
		t.Fatalf("backbone channels = %d", c)
	}
	if oh != 7 || ow != 7 {
		t.Fatalf("backbone output = %dx%d, want 7x7", oh, ow)
	}
}

func TestAttentionFLOPsScaleQuadratically(t *testing.T) {
	short := Layer{Kind: Attention, Seq: 32, Dim: 64, Heads: 4}
	long := Layer{Kind: Attention, Seq: 64, Dim: 64, Heads: 4}
	// The score terms are quadratic in Seq; doubling Seq should more than
	// double FLOPs.
	if long.FLOPs() <= 2*short.FLOPs() {
		t.Fatalf("attention scaling: short %g long %g", short.FLOPs(), long.FLOPs())
	}
}

func TestEmbeddingZeroFLOPsButParams(t *testing.T) {
	l := Layer{Kind: Embedding, Vocab: 30000, EmbDim: 512, Lookups: 20}
	if l.FLOPs() != 0 {
		t.Fatal("embedding lookup should be 0 FLOPs")
	}
	if l.Params() != 30000*512 {
		t.Fatalf("embedding params = %d", l.Params())
	}
	if l.Activations() != 20*512 {
		t.Fatalf("embedding activations = %d", l.Activations())
	}
}

// countKind returns the number of m's layers of kind k.
func countKind(m Model, k LayerKind) int {
	n := 0
	for _, l := range m.Layers {
		if l.Kind == k {
			n++
		}
	}
	return n
}

func TestModelAggregation(t *testing.T) {
	m := Model{Name: "m", Layers: []Layer{
		{Kind: Linear, In: 10, Out: 20},
		{Kind: ReLU, Elems: 20},
		{Kind: Linear, In: 20, Out: 5},
	}}
	if m.FLOPs() != 2*10*20+20+2*20*5 {
		t.Fatalf("model FLOPs = %g", m.FLOPs())
	}
	if m.Params() != 10*20+20+20*5+5 {
		t.Fatalf("model params = %d", m.Params())
	}
	if countKind(m, Linear) != 2 || countKind(m, ReLU) != 1 {
		t.Fatal("layer kind counts wrong")
	}
}

func TestMLPBuilder(t *testing.T) {
	ls := MLP(nil, "g", []int{128, 512, 512, 64}, 1)
	lin, relu := 0, 0
	for _, l := range ls {
		switch l.Kind {
		case Linear:
			lin++
		case ReLU:
			relu++
		}
	}
	if lin != 3 || relu != 2 {
		t.Fatalf("MLP layers: %d linear, %d relu", lin, relu)
	}
}

func TestTransformerEncoderBuilder(t *testing.T) {
	ls := TransformerEncoder(nil, "enc", 6, 64, 512, 2048, 8)
	m := Model{Name: "enc", Layers: ls}
	if n := countKind(m, Attention); n != 6 {
		t.Fatalf("attention blocks = %d", n)
	}
	// Transformer-base encoder stack (6 layers, d=512, ff=2048) has about
	// 6·(4·512² + 2·512·2048) ≈ 18.9M params.
	p := float64(m.Params()) / 1e6
	if p < 17 || p > 21 {
		t.Fatalf("encoder params = %.1fM", p)
	}
}
