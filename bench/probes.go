package main

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"runtime"
	"time"

	"aibench"
	"aibench/internal/autograd"
	"aibench/internal/dist"
	"aibench/internal/tensor"
)

// The probes time one layer at a time through its public calls, at
// fixed shapes, on every workload alike: the rungs of the ladder below
// the job. They are raw wall-clock numbers, never gated; their use is
// to say which rung a change moved.

// probeSink keeps probe results alive so the compiler cannot drop the
// calls that produced them.
var probeSink any

// probeReps scales every probe's repetition count.
type probeReps struct {
	kernel, autograd, runner, canonical, results, dist, bare, get int
}

func repsFor(smoke bool) probeReps {
	if smoke {
		return probeReps{kernel: 2, autograd: 3, runner: 3, canonical: 3, results: 1, dist: 1, bare: 1, get: 2}
	}
	return probeReps{kernel: 9, autograd: 200, runner: 200, canonical: 2000, results: 10, dist: 5, bare: 10, get: 200}
}

// timed runs fn reps times and returns each call's duration in
// microseconds plus the allocations per call (count, bytes).
func timed(reps int, fn func()) (us []float64, mallocs, bytesPer float64) {
	fn() // warm: lazy set-up is not the layer's steady cost
	var m0, m1 runtime.MemStats
	us = make([]float64, reps)
	runtime.ReadMemStats(&m0)
	for i := range us {
		start := time.Now()
		fn()
		us[i] = float64(time.Since(start)) / 1e3
	}
	runtime.ReadMemStats(&m1)
	return us, float64(m1.Mallocs-m0.Mallocs) / float64(reps), float64(m1.TotalAlloc-m0.TotalAlloc) / float64(reps)
}

// gemmRate is the GFLOP/s of tensor.MatMul at one fixed shape, which
// must fall in the named tuning shape class.
func gemmRate(rng *rand.Rand, class string, m, k, n, reps int) (gflops, mallocs float64, err error) {
	if got := tensor.GEMMShapeClass(m, k, n); got != class {
		return 0, 0, fmt.Errorf("probe shape %dx%dx%d is class %q, want %q", m, k, n, got, class)
	}
	a, b := tensor.Rand(rng, -1, 1, m, k), tensor.Rand(rng, -1, 1, k, n)
	us, mallocs, _ := timed(reps, func() { probeSink = tensor.MatMul(a, b) })
	return 2 * float64(m) * float64(k) * float64(n) / median(us) / 1e3, mallocs, nil
}

// kernelRates are the measured GFLOP/s used to turn a job's exact FLOP
// counts into a share of its time.
type kernelRates struct{ matmul, conv2d float64 }

func probeTensor(m map[string]float64, reps int) (kernelRates, error) {
	rng := rand.New(rand.NewSource(1))
	var rates kernelRates
	var err error
	if rates.matmul, m["tensor.matmul_allocs_per_call"], err = gemmRate(rng, tensor.ShapeSquare, 256, 256, 256, reps); err != nil {
		return rates, err
	}
	m["tensor.matmul_square_gflops"] = rates.matmul
	if m["tensor.matmul_skinny_gflops"], _, err = gemmRate(rng, tensor.ShapeSkinny, 64, 2048, 64, reps); err != nil {
		return rates, err
	}
	if m["tensor.matmul_fat_gflops"], _, err = gemmRate(rng, tensor.ShapeFat, 1024, 64, 1024, reps); err != nil {
		return rates, err
	}
	// 8 images of 16×32×32 through 32 3×3 filters, stride 1, padding 1.
	x, w := tensor.Rand(rng, -1, 1, 8, 16, 32, 32), tensor.Rand(rng, -1, 1, 32, 16, 3, 3)
	p := tensor.Conv2DParams{Kernel: 3, Stride: 1, Padding: 1}
	us, mallocs, bytesPer := timed(reps, func() { probeSink = tensor.Conv2D(x, w, p) })
	rates.conv2d = 2 * 8 * 32 * 32 * 16 * 9 * 32 / median(us) / 1e3
	m["tensor.conv2d_gflops"] = rates.conv2d
	m["tensor.conv2d_allocs_per_call"] = mallocs
	m["tensor.conv2d_kb_per_call"] = bytesPer / 1e3
	return rates, nil
}

// probeAutograd times forward plus Backward of a fixed 3-layer MLP
// graph, batch 32: 64 → 128 → 128 → 10.
func probeAutograd(m map[string]float64, reps int) {
	rng := rand.New(rand.NewSource(2))
	const batch = 32
	dims := []int{64, 128, 128, 10}
	x := autograd.Const(tensor.Rand(rng, -1, 1, batch, dims[0]))
	var weights, biases []*autograd.Value
	for i := 0; i+1 < len(dims); i++ {
		weights = append(weights, autograd.Var(tensor.Rand(rng, -0.1, 0.1, dims[i], dims[i+1])))
		biases = append(biases, autograd.Var(tensor.New(batch, dims[i+1])))
	}
	seed := tensor.Ones(batch, dims[len(dims)-1])
	us, mallocs, _ := timed(reps, func() {
		h := x
		for i := range weights {
			weights[i].ZeroGrad()
			biases[i].ZeroGrad()
			h = autograd.Add(autograd.MatMul(h, weights[i]), biases[i])
			if i+1 < len(weights) {
				h = autograd.ReLU(h)
			}
		}
		h.BackwardWith(seed)
		probeSink = h
	})
	m["autograd.step_us"] = median(us)
	m["autograd.allocs_per_step"] = mallocs
}

// barePlan is a served request kind as a library Plan: what the server
// runs for it, without the server.
func barePlan(kind string, seed int64, smoke bool) aibench.Plan {
	switch kind {
	case "replay":
		return aibench.Plan{Kind: aibench.RunReplay, Seed: seed}
	case "characterize":
		return aibench.Plan{Kind: aibench.RunCharacterize, Seed: seed}
	}
	epochs := 2
	if smoke {
		epochs = 1
	}
	return aibench.Plan{Kind: aibench.RunSession, Session: aibench.QuasiEntireSession,
		Benchmarks: []string{"DC-AI-C16"}, Epochs: epochs, Seed: seed}
}

// bareRun is NewRunner + Run with the envelope writer as the sink: a
// served miss minus HTTP, queue and cache. It returns the records too.
func bareRun(suite *aibench.Suite, plan aibench.Plan, out *bytes.Buffer) ([]aibench.Record, error) {
	runner, err := suite.NewRunner(plan)
	if err != nil {
		return nil, err
	}
	out.Reset()
	w := aibench.NewResultWriter(out, runner.Meta())
	var recs []aibench.Record
	_, err = runner.Run(context.Background(), func(rec aibench.Record) error {
		recs = append(recs, rec)
		return w.Write(rec)
	})
	return recs, err
}

// probeCore times plan validation and canonicalisation, the two steps
// every submission pays before any work runs.
func probeCore(m map[string]float64, suite *aibench.Suite, reps probeReps, smoke bool) {
	plan := barePlan("session", 1, smoke)
	us, _, _ := timed(reps.runner, func() {
		r, err := suite.NewRunner(plan)
		if err != nil {
			panic(err) // the plan is a constant of this file
		}
		probeSink = r
	})
	m["core.newrunner_us"] = median(us)
	us, _, _ = timed(reps.canonical, func() {
		c, err := plan.Canonical()
		if err != nil {
			panic(err)
		}
		probeSink = c
	})
	m["core.canonical_us"] = median(us)
}

// probeResults times the envelope writer and reader over the records of
// one served-miss cycle (a whole-roster replay, a whole-roster
// characterization, one session) at a fixed seed.
func probeResults(m map[string]float64, suite *aibench.Suite, reps int, smoke bool) error {
	var recs []aibench.Record
	var buf bytes.Buffer
	for _, kind := range missKinds {
		r, err := bareRun(suite, barePlan(kind, 1, smoke), &buf)
		if err != nil {
			return err
		}
		recs = append(recs, r...)
	}
	n := float64(len(recs))
	wus, wm, _ := timed(reps, func() {
		buf.Reset()
		w := aibench.NewResultWriter(&buf, aibench.RunMeta{SuiteSHA: suite.SHA(), Seed: 1})
		for _, rec := range recs {
			if err := w.Write(rec); err != nil {
				panic(err) // a bytes.Buffer does not fail
			}
		}
	})
	stream := append([]byte(nil), buf.Bytes()...)
	var readErr error
	rus, rm, _ := timed(reps, func() {
		s, err := aibench.ReadResults(bytes.NewReader(stream))
		if err != nil {
			readErr = fmt.Errorf("results probe: %w", err)
		} else if len(s.Records) != len(recs) {
			readErr = fmt.Errorf("results probe: read back %d records of %d", len(s.Records), len(recs))
		}
		probeSink = s
	})
	if readErr != nil {
		return readErr
	}
	m["results.write_us_per_record"] = median(wus) / n
	m["results.read_us_per_record"] = median(rus) / n
	m["results.bytes_per_record"] = float64(len(stream)) / n
	m["results.allocs_per_record"] = (wm + rm) / n
	return nil
}

// probeGpusim times one characterization per benchmark of the roster.
func probeGpusim(m map[string]float64, suite *aibench.Suite) {
	var ms []float64
	for _, b := range suite.All() {
		us, _, _ := timed(1, func() { probeSink = suite.Characterize(b.ID, aibench.TitanXP()) })
		ms = append(ms, us[0]/1e3)
	}
	m["gpusim.characterize_ms_per_benchmark"] = median(ms)
}

// probeDist opens and closes a two-replica process group directly:
// spawn, hello, spec exchange; then shutdown and reaping.
func probeDist(m map[string]float64, suite *aibench.Suite, reps int) error {
	be, err := dist.NewBackend("process", 2)
	if err != nil {
		return err
	}
	b := suite.Benchmark("DC-AI-C16")
	var open, closing []float64
	for i := 0; i < reps; i++ {
		start := time.Now()
		g, err := be.Open(context.Background(), b.ID, b.Factory, 1)
		if err != nil {
			return fmt.Errorf("dist probe: %w", err)
		}
		opened := time.Now()
		if err := g.Close(); err != nil {
			return fmt.Errorf("dist probe: %w", err)
		}
		open = append(open, float64(opened.Sub(start))/1e6)
		closing = append(closing, float64(time.Since(opened))/1e6)
	}
	m["dist.open_ms"], m["dist.close_ms"] = median(open), median(closing)
	return nil
}

// probeBare times each served request kind without the server, p50 in
// milliseconds, on seeds of its own.
func probeBare(suite *aibench.Suite, seed int64, reps int, smoke bool) (map[string]float64, error) {
	out := map[string]float64{}
	var buf bytes.Buffer
	for _, kind := range missKinds {
		var ms []float64
		for i := 0; i <= reps; i++ { // the first run is the warm-up
			start := time.Now()
			if _, err := bareRun(suite, barePlan(kind, seed+int64(i), smoke), &buf); err != nil {
				return nil, err
			}
			if i > 0 {
				ms = append(ms, float64(time.Since(start))/1e6)
			}
		}
		out[kind] = median(ms)
	}
	return out, nil
}

// probeGets times the two observability endpoints of a running server.
func probeGets(m map[string]float64, e *servedEnv, reps int) error {
	job, _ := e.lastJob.Load().(string)
	for _, get := range [][2]string{{"server.status_get_us", "/jobs/" + job}, {"server.stats_get_us", "/stats"}} {
		name, path := get[0], get[1]
		var gerr error
		us, _, _ := timed(reps, func() {
			resp, err := e.tenants[0].client.Get(e.url + path)
			if err != nil {
				gerr = err
				return
			}
			_, err = io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if err != nil || resp.StatusCode != http.StatusOK {
				gerr = fmt.Errorf("GET %s: status %d: %v", path, resp.StatusCode, err)
			}
		})
		if gerr != nil {
			return gerr
		}
		m[name] = median(us)
	}
	return nil
}
