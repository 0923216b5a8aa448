package main

import "aibench"

// metricDef names one metric and its unit. BENCHMARK.json declares the
// same names, units and directions; manifest_test.go holds the two
// together.
type metricDef struct{ name, unit string }

// endToEnd are the metrics of a --trace 0 run: what a user of the suite
// or the server pays per job.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"job_p50_rel", "ref"},
	{"alloc_mb_per_job", "MB"},
	{"mallocs_k_per_job", "k"},
}

// perLayer are the metrics of a --trace 1 run. Every workload emits
// every one; a layer the workload never enters reports 0.
var perLayer = []metricDef{
	{"tensor.gflop_per_job", "GFLOP"},
	{"tensor.kernel_calls_k_per_job", "k"},
	{"tensor.matmul_square_gflops", "GFLOP/s"},
	{"tensor.matmul_skinny_gflops", "GFLOP/s"},
	{"tensor.matmul_fat_gflops", "GFLOP/s"},
	{"tensor.conv2d_gflops", "GFLOP/s"},
	{"tensor.matmul_allocs_per_call", "count"},
	{"tensor.conv2d_allocs_per_call", "count"},
	{"tensor.conv2d_kb_per_call", "KB"},
	{"tensor.kernel_time_share", "ratio"},
	{"parallel.pool_busy_share", "ratio"},
	{"parallel.serial_call_share", "ratio"},
	{"autograd.step_us", "us"},
	{"autograd.allocs_per_step", "count"},
	{"autograd.mallocs_per_kernel_call", "ratio"},
	{"core.epoch_p50_ms", "ms"},
	{"core.epochs_per_job", "count"},
	{"core.newrunner_us", "us"},
	{"core.canonical_us", "us"},
	{"core.run_overhead_ms", "ms"},
	{"results.write_us_per_record", "us"},
	{"results.read_us_per_record", "us"},
	{"results.bytes_per_record", "B"},
	{"results.allocs_per_record", "count"},
	{"gpusim.characterize_ms_per_benchmark", "ms"},
	{"dist.open_ms", "ms"},
	{"dist.close_ms", "ms"},
	{"dist.compute_ms_per_step", "ms"},
	{"dist.allreduce_us_per_step", "us"},
	{"dist.bufsync_us_per_step", "us"},
	{"dist.apply_us_per_step", "us"},
	{"dist.step_overhead_us", "us"},
	{"dist.grains_per_job", "count"},
	{"dist.reduce_rounds_per_job", "count"},
	{"dist.reduce_floats_k_per_job", "k"},
	{"dist.process_over_local", "ratio"},
	{"dist.child_cpu_ms_per_job", "ms"},
	{"server.hit_p50_us", "us"},
	{"server.hit_tail_us", "us"},
	{"server.miss_overhead_ms", "ms"},
	{"server.miss_overhead_share_replay", "ratio"},
	{"server.miss_overhead_share_characterize", "ratio"},
	{"server.miss_overhead_share_session", "ratio"},
	{"server.ttfr_p50_ms", "ms"},
	{"server.wait_p50_ms", "ms"},
	{"server.status_get_us", "us"},
	{"server.stats_get_us", "us"},
	{"server.bytes_per_job", "B"},
	{"server.cache_hit_share", "ratio"},
	{"server.rejected_share", "ratio"},
	{"telemetry.trace_overhead_share", "ratio"},
	{"harness.job_p50_ms", "ms"},
	{"harness.ref_p50_ms", "ms"},
	{"harness.ref_spread", "ratio"},
	{"harness.job_tail_rel", "ref"},
	{"harness.samples", "count"},
	{"harness.cpu_ms_per_job", "ms"},
	{"harness.gc_cycles_per_job", "count"},
	{"harness.rss_peak_mb", "MB"},
}

// tracedRun is a --trace 1 run after set-up: an untraced window half the
// usual length (the baseline the traced pass is compared with), the
// traced pass of fixed size, then the probes.
func tracedRun(h *harness, e env, sz sizes, m map[string]float64) error {
	for _, d := range perLayer {
		m[d.name] = 0
	}
	base, err := h.measure(e, seconds(h.cfg.seconds/2), sz.minBlocks, 0, blockOpt{})
	if err != nil {
		return err
	}
	jobs := float64(base.jobs)
	m["harness.job_p50_ms"] = median(base.jobMS)
	m["harness.ref_p50_ms"] = median(base.refMS)
	m["harness.ref_spread"] = ratio(quantile(base.refMS, 0.9), quantile(base.refMS, 0.1))
	m["harness.job_tail_rel"] = quantile(base.samples, 0.9)
	m["harness.samples"] = float64(len(base.samples))
	m["harness.cpu_ms_per_job"] = base.cpuMS / jobs
	m["harness.gc_cycles_per_job"] = float64(base.gcCycles) / jobs
	m["dist.child_cpu_ms_per_job"] = base.childMS / jobs

	h.spans.enable()
	traced, err := h.measure(e, 0, 0, sz.tracedBlocks, blockOpt{traced: true})
	if err != nil {
		return err
	}
	m["telemetry.trace_overhead_share"] = ratio(median(traced.samples)-median(base.samples), median(base.samples))

	suite := aibench.NewSuite()
	reps := repsFor(h.cfg.smoke)
	rates, err := probeTensor(m, reps.kernel)
	if err != nil {
		return err
	}
	probeAutograd(m, reps.autograd)
	probeCore(m, suite, reps, h.cfg.smoke)
	if err := probeResults(m, suite, reps.results, h.cfg.smoke); err != nil {
		return err
	}
	probeGpusim(m, suite)
	if err := probeDist(m, suite, reps.dist); err != nil {
		return err
	}

	switch e := e.(type) {
	case *libEnv:
		if err := libraryLayers(h, e, base, rates, m); err != nil {
			return err
		}
	case *servedEnv:
		if err := servedLayers(h, e, sz, base, suite, reps, m); err != nil {
			return err
		}
	}
	h.spans.disable()
	m["harness.rss_peak_mb"] = rssPeakMB()
	return nil
}

// libraryLayers turns the traced jobs' own telemetry into per-job and
// per-step numbers.
func libraryLayers(h *harness, e *libEnv, base *window, rates kernelRates, m map[string]float64) error {
	a := &e.agg
	jobs, steps := float64(a.jobs), float64(a.steps)
	m["tensor.gflop_per_job"] = float64(a.flops) / jobs / 1e9
	m["tensor.kernel_calls_k_per_job"] = float64(a.calls) / jobs / 1e3
	// Time the job's FLOPs would take at the probed rates, as a share of
	// the job: what a kernel speed-up can buy here, at most.
	kernelMS := 0.0
	for op, flops := range a.opFLOPs {
		rate := rates.matmul
		if op == "conv2d" {
			rate = rates.conv2d
		}
		kernelMS += float64(flops) / jobs / rate / 1e6
	}
	m["tensor.kernel_time_share"] = ratio(kernelMS, median(base.jobMS))
	m["parallel.pool_busy_share"] = ratio(float64(a.poolBusyNS), float64(a.wallNS))
	m["parallel.serial_call_share"] = ratio(float64(a.poolSerialCalls), float64(a.poolCalls))
	m["autograd.mallocs_per_kernel_call"] = ratio(float64(base.mallocs)/float64(base.jobs), float64(a.calls)/jobs)
	m["core.epoch_p50_ms"] = median(a.epochMS)
	m["core.epochs_per_job"] = float64(a.epochs) / jobs
	m["core.run_overhead_ms"] = median(a.runOverheadMS)
	m["dist.grains_per_job"] = float64(a.grains) / jobs
	m["dist.reduce_rounds_per_job"] = float64(a.reduceRounds) / jobs
	m["dist.reduce_floats_k_per_job"] = float64(a.reduceFloats) / jobs / 1e3
	if a.steps > 0 {
		m["dist.compute_ms_per_step"] = float64(a.spanNS["compute"]) / steps / 1e6
		m["dist.allreduce_us_per_step"] = float64(a.spanNS["allreduce"]) / steps / 1e3
		m["dist.bufsync_us_per_step"] = float64(a.spanNS["bufsync"]) / steps / 1e3
		m["dist.apply_us_per_step"] = float64(a.spanNS["apply"]) / steps / 1e3
		m["dist.step_overhead_us"] = float64(a.spanNS["step"]-a.spanNS["compute"]) / steps / 1e3
	}
	if e.plan.Backend == "" {
		return nil
	}
	// The same plan on the local backend, traced the same way: the
	// single-address-space baseline.
	// Mean, not median: the plan's benchmarks have epochs of different
	// lengths and every one of them counts.
	processEpochs := mean(a.epochMS)
	e.agg = traceAgg{}
	local := e.plan
	local.Backend = "local"
	for i := 0; i < 2; i++ {
		if _, err := e.runJob(local, blockOpt{traced: true}); err != nil {
			return err
		}
		h.check(e)
	}
	m["dist.process_over_local"] = ratio(processEpochs, mean(e.agg.epochMS))
	return nil
}

// servedLayers turns the traced requests into the server's numbers.
func servedLayers(h *harness, e *servedEnv, sz sizes, base *window, suite *aibench.Suite, reps probeReps, m map[string]float64) error {
	if err := probeGets(m, e, reps.get); err != nil {
		return err
	}
	if e.replay {
		us := make([]float64, len(base.jobMS))
		for i, ms := range base.jobMS {
			us[i] = ms * 1e3
		}
		m["server.hit_p50_us"] = median(us)
		m["server.hit_tail_us"] = quantile(us, 0.99)
	} else {
		// The same cycles with one tenant only: what is left when nothing
		// waits behind the other tenant's job.
		if _, err := h.measure(e, 0, 0, sz.soloBlocks, blockOpt{traced: true, solo: true}); err != nil {
			return err
		}
		m["server.wait_p50_ms"] = median(e.tracedDuoMS) - median(e.tracedSoloMS)
		bare, err := probeBare(suite, h.cfg.seed+7_000_000, reps.bare, h.cfg.smoke)
		if err != nil {
			return err
		}
		for _, kind := range missKinds {
			served := median(e.solo.kindMS[kind])
			m["server.miss_overhead_ms"] += served - bare[kind]
			m["server.miss_overhead_share_"+kind] = ratio(served-bare[kind], served)
		}
	}
	t := &e.traced
	tracedJobs := float64(t.requests)
	if !e.replay {
		tracedJobs /= float64(len(missKinds))
	}
	m["server.ttfr_p50_ms"] = median(t.ttfbMS)
	m["server.bytes_per_job"] = ratio(float64(t.bytes), tracedJobs)
	m["server.cache_hit_share"] = ratio(float64(e.all.hits), float64(e.all.requests))
	m["server.rejected_share"] = ratio(float64(e.all.rejected), float64(e.all.requests))
	return nil
}
