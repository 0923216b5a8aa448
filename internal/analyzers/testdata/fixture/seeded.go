// Package lintfixture is the deliberate-violation fixture: one file
// that trips every analyzer in the suite. CI copies it into a
// transient internal/lintfixture package and asserts that
// `aibench-lint -scope-all` fails on it — proving the gate can fail —
// without ever breaking the real tree. TestSeededFixtureFails runs the
// same assertion in-process.
package lintfixture

import (
	"fmt"
	"math/rand"
	"time"

	"aibench/internal/autograd"
	"aibench/internal/tensor"
)

type engine struct{}

func (engine) TrainEpoch() float64 { return 0 }

// Seeded violates the five invariants that bind ordinary code.
func Seeded(shares map[string]float64, sink func(string) error, epochs int) *tensor.Tensor {
	// maprange: unordered map walk into output.
	for cat, s := range shares {
		fmt.Println(cat, s)
	}

	// seedpurity: process-global randomness and wall-clock.
	n := rand.Intn(8) + int(time.Now().Unix()%4) + 2

	// ctxloop: epoch loop with no context check.
	var eng engine
	for e := 0; e < epochs; e++ {
		eng.TrainEpoch()
	}

	// sinkerr: dropped sink error.
	sink("record")

	// kernelgate: hand-rolled GEMM outside the kernel dispatch.
	a, b, c := tensor.New(n, n), tensor.New(n, n), tensor.New(n, n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			for l := 0; l < n; l++ {
				c.Data[i*n+j] += a.Data[i*n+l] * b.Data[l*n+j]
			}
		}
	}
	return c
}

// Doubled violates the sixth, heapalloc: an op that allocates its
// result on the heap instead of where its operand is placed.
func Doubled(a *tensor.Tensor) *tensor.Tensor {
	out := tensor.New(a.Shape()...)
	for i := range out.Data {
		out.Data[i] = 2 * a.Data[i]
	}
	return out
}

// Wrapped violates heapalloc the other way: an op that builds its
// graph node on the heap instead of in its data's arena.
func Wrapped(a *autograd.Value) *autograd.Value {
	return &autograd.Value{Data: tensor.NewLike(a.Data)}
}
