package main

import (
	"strings"
	"testing"
)

// sample is real-shaped `go test -bench` output with the noise lines
// the parser must skip.
const sample = `goos: linux
goarch: amd64
pkg: aibench/internal/dist
cpu: AMD EPYC 7B13
BenchmarkShardedSession/shards=1-8         	       1	 987654321 ns/op
BenchmarkShardedSession/shards=2-8         	       2	 543210987.5 ns/op
BenchmarkShardedSession/shards=4-8         	       1	 321098765 ns/op
BenchmarkMatMul/kernel=blocked/n=256-8     	       3	   3210987 ns/op	        10.45 GFLOPS	  524600 B/op	      10 allocs/op
BenchmarkConv2DBackward/kernel=naive-8     	       3	  44372334 ns/op	22063170 B/op	      65 allocs/op
PASS
ok  	aibench/internal/dist	4.321s
`

func TestParseBench(t *testing.T) {
	got, mem, err := parseBench(strings.NewReader(sample))
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]float64{
		"BenchmarkShardedSession/shards=1-8":     987654321,
		"BenchmarkShardedSession/shards=2-8":     543210987.5,
		"BenchmarkShardedSession/shards=4-8":     321098765,
		"BenchmarkMatMul/kernel=blocked/n=256-8": 3210987,
		"BenchmarkConv2DBackward/kernel=naive-8": 44372334,
	}
	// Allocation columns are kept where a line has them — behind a
	// custom metric or straight after ns/op — and only there.
	wantMem := map[string]memStats{
		"BenchmarkMatMul/kernel=blocked/n=256-8": {BytesPerOp: 524600, AllocsPerOp: 10},
		"BenchmarkConv2DBackward/kernel=naive-8": {BytesPerOp: 22063170, AllocsPerOp: 65},
	}
	if len(mem) != len(wantMem) {
		t.Fatalf("parsed %d allocation entries, want %d: %v", len(mem), len(wantMem), mem)
	}
	for name, ms := range wantMem {
		if mem[name] != ms {
			t.Errorf("%s mem = %+v, want %+v", name, mem[name], ms)
		}
	}
	if len(got) != len(want) {
		t.Fatalf("parsed %d results, want %d: %v", len(got), len(want), got)
	}
	for name, ns := range want {
		if got[name] != ns {
			t.Errorf("%s = %v, want %v", name, got[name], ns)
		}
	}
}

func TestParseBenchRejectsEmpty(t *testing.T) {
	if _, _, err := parseBench(strings.NewReader("PASS\nok x 1s\n")); err == nil {
		t.Fatal("expected an error for input with no benchmark lines")
	}
}

// TestSplitKernels covers the kernel dimension: middle segments,
// last-segment names that carry the -N GOMAXPROCS suffix, and results
// with no kernel dimension at all.
func TestSplitKernels(t *testing.T) {
	results := map[string]float64{
		"BenchmarkMatMul/kernel=blocked/n=512-8":           100,
		"BenchmarkMatMul/kernel=naive/n=512-8":             200,
		"BenchmarkConv2D/kernel=blocked-8":                 300,
		"BenchmarkShardedSession/shards=2-8":               400,
		"BenchmarkMatMul/kernel=avx-512/n=64-8":            500, // dash-digits in the kernel name itself
		"BenchmarkMatMul/kernel=tuned/skinny=64x2048x64-8": 600, // tuned tier's shape-class sub-benchmarks
	}
	got := splitKernels(results)
	if len(got) != 4 {
		t.Fatalf("split into %d kernels, want 4: %v", len(got), got)
	}
	if len(got["tuned"]) != 1 || got["tuned"]["BenchmarkMatMul/kernel=tuned/skinny=64x2048x64-8"] != 600 {
		t.Errorf("tuned bucket wrong: %v", got["tuned"])
	}
	if len(got["avx-512"]) != 1 || got["avx-512"]["BenchmarkMatMul/kernel=avx-512/n=64-8"] != 500 {
		t.Errorf("avx-512 bucket wrong (dash-digit kernel name mangled?): %v", got)
	}
	if got["blocked"]["BenchmarkMatMul/kernel=blocked/n=512-8"] != 100 ||
		got["blocked"]["BenchmarkConv2D/kernel=blocked-8"] != 300 {
		t.Errorf("blocked bucket wrong: %v", got["blocked"])
	}
	if len(got["naive"]) != 1 || got["naive"]["BenchmarkMatMul/kernel=naive/n=512-8"] != 200 {
		t.Errorf("naive bucket wrong: %v", got["naive"])
	}
	for k, bucket := range got {
		if _, leaked := bucket["BenchmarkShardedSession/shards=2-8"]; leaked {
			t.Errorf("kernel-less result leaked into %s bucket", k)
		}
	}
}

func TestSplitKernelsNoneDeclared(t *testing.T) {
	if got := splitKernels(map[string]float64{"BenchmarkX-8": 1}); got != nil {
		t.Fatalf("expected nil for kernel-less results, got %v", got)
	}
}
