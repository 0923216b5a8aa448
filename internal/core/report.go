package core

import (
	"fmt"
	"io"
	"sort"

	"aibench/internal/gpusim"
)

// Text renderers: each Render* writes the rows/series of one paper table
// or figure, so `aibench-report` and the bench harness can regenerate
// the whole evaluation section.
//
// The run-report renderers at the bottom render the records a Plan run
// emits (sessions, characterizations, scaling rows, replay sessions).
// Both the live CLI and `aibench-report -from results.jsonl` call the
// same renderer over the same records — and every renderer restores
// canonical registry order first — so a report rebuilt from a persisted
// stream is byte-identical to its live-run output.

// runReports is every run report rebuildable from persisted records,
// in render order: its name, the record kind it renders, and its
// renderer, which ignores records of other kinds.
var runReports = []struct {
	name   string
	kind   RecordKind
	render func(io.Writer, []Record)
}{
	{"sessions", KindSession, renderSessionRecords},
	{"characterizations", KindCharacterization, func(w io.Writer, recs []Record) {
		var cs []Characterization
		for _, r := range recs {
			if r.Kind == KindCharacterization && r.Characterization != nil {
				cs = append(cs, *r.Characterization)
			}
		}
		RenderCharacterizations(w, cs)
	}},
	{"scaling", KindScaling, renderScalingRecords},
	{"replays", KindReplay, func(w io.Writer, recs []Record) {
		var rs []ReplaySession
		for _, r := range recs {
			if r.Kind == KindReplay && r.Replay != nil {
				rs = append(rs, *r.Replay)
			}
		}
		RenderReplays(w, rs)
	}},
	{"trace", KindTrace, RenderTraces},
}

// RunReportNames lists the run reports rebuildable from persisted
// records, in render order.
func RunReportNames() []string {
	names := make([]string, len(runReports))
	for i, r := range runReports {
		names[i] = r.name
	}
	return names
}

// RunReportKind maps a run-report name to the record kind it renders;
// ok is false for unknown names.
func RunReportKind(name string) (RecordKind, bool) {
	for _, r := range runReports {
		if r.name == name {
			return r.kind, true
		}
	}
	return "", false
}

// RenderRunRecords renders one named run report from a record stream,
// ignoring records of other kinds; it reports whether the name was
// known.
func RenderRunRecords(name string, w io.Writer, recs []Record) bool {
	for _, r := range runReports {
		if r.name == name {
			r.render(w, recs)
			return true
		}
	}
	return false
}

// canonical filters out zero-ID entries (sessions that never launched)
// and restores registry order, so renderers are deterministic over
// records that arrived in completion order.
func canonical[T any](in []T, id func(T) string) []T {
	out := make([]T, 0, len(in))
	for _, v := range in {
		if id(v) != "" {
			out = append(out, v)
		}
	}
	sort.SliceStable(out, func(i, j int) bool {
		oi, oj := orderOf(id(out[i])), orderOf(id(out[j]))
		if oi != oj {
			return oi < oj
		}
		return id(out[i]) < id(out[j])
	})
	return out
}

// recordBackend names the dist backend a record's run selected; the
// zero value (and a legacy record with no run header) is the default
// local backend, normalized here so live tables and stream rebuilds
// print identically.
func recordBackend(r Record) string {
	if r.Run != nil && r.Run.Backend != "" {
		return r.Run.Backend
	}
	return "local"
}

// renderSessionRecords writes the suite session summary table from
// session records, with the backend column taken from each record's
// run header.
func renderSessionRecords(w io.Writer, recs []Record) {
	type row struct {
		SessionResult
		backend string
	}
	var rs []row
	for _, r := range recs {
		if r.Kind == KindSession && r.Session != nil {
			rs = append(rs, row{*r.Session, recordBackend(r)})
		}
	}
	rows := canonical(rs, func(r row) string { return r.ID })
	fmt.Fprintf(w, "%-12s %-34s %7s %7s %-8s %9s %9s %s\n", "ID", "Name", "Epochs", "Shards", "Backend", "Quality", "Target", "Reached")
	for _, r := range rows {
		fmt.Fprintf(w, "%-12s %-34s %7d %7d %-8s %9.4f %9.4f %v\n",
			r.ID, r.Name, r.Epochs, r.Shards, r.backend, r.FinalQuality, r.Target, r.ReachedGoal)
	}
}

// RenderCharacterizations writes the per-benchmark characterization
// summary table.
func RenderCharacterizations(w io.Writer, cs []Characterization) {
	rows := canonical(cs, func(c Characterization) string { return c.ID })
	fmt.Fprintf(w, "%-12s %-28s %12s %10s %8s %6s %6s\n", "ID", "Task", "MFLOPs", "MParams", "Epochs", "Occ", "IPC")
	for _, c := range rows {
		fmt.Fprintf(w, "%-12s %-28s %12.2f %10.2f %8.1f %6.3f %6.3f\n",
			c.ID, c.Task, c.MFLOPs, c.MParams, c.Epochs,
			c.Metrics.AchievedOccupancy, c.Metrics.IPCEfficiency)
	}
}

// renderScalingRecords writes the data-parallel scaling table (one
// line per measured shard count; the id, name, and backend print on
// the first), with the backend taken from each record's run header.
func renderScalingRecords(w io.Writer, recs []Record) {
	type srow struct {
		ScalingRow
		backend string
	}
	var rows []srow
	for _, r := range recs {
		if r.Kind == KindScaling && r.Scaling != nil {
			rows = append(rows, srow{*r.Scaling, recordBackend(r)})
		}
	}
	sorted := canonical(rows, func(r srow) string { return r.ID })
	fmt.Fprintf(w, "%-12s %-24s %-8s %8s %12s %9s\n", "ID", "Name", "Backend", "Shards", "Sec/Epoch", "Speedup")
	for _, row := range sorted {
		for i, p := range row.Points {
			id, name, backend := row.ID, row.Name, row.backend
			if i > 0 {
				id, name, backend = "", "", ""
			}
			fmt.Fprintf(w, "%-12s %-24s %-8s %8d %12.4f %8.2fx\n", id, name, backend, p.Shards, p.SecPerEpoch, p.Speedup)
		}
	}
}

// RenderReplays writes the simulated paper-scale session table.
func RenderReplays(w io.Writer, rs []ReplaySession) {
	rows := canonical(rs, func(r ReplaySession) string { return r.ID })
	fmt.Fprintf(w, "%-12s %10s %10s\n", "ID", "Epochs", "Hours")
	for _, r := range rows {
		fmt.Fprintf(w, "%-12s %10.1f %10.2f\n", r.ID, r.Epochs, r.Hours)
	}
}

// RenderTable1 writes the suite comparison matrix.
func RenderTable1(w io.Writer) {
	fmt.Fprintf(w, "Table 1: AI component benchmark comparison (training side)\n")
	fmt.Fprintf(w, "%-28s %-8s %-7s %-7s %-10s %-8s %-10s %-4s\n",
		"Task", "AIBench", "MLPerf", "Fathom", "DeepBench", "DNNMark", "DAWNBench", "TBD")
	mark := func(b bool) string {
		if b {
			return "Y"
		}
		return "-"
	}
	for _, row := range Table1() {
		task := row.Task
		if row.InSubset {
			task += " *"
		}
		fmt.Fprintf(w, "%-28s %-8s %-7s %-7s %-10s %-8s %-10s %-4s\n",
			task, mark(row.AIBench), mark(row.MLPerf), mark(row.Fathom),
			mark(row.DeepBench), mark(row.DNNMark), mark(row.DAWNBench), mark(row.TBD))
	}
	fmt.Fprintf(w, "(* = in the AIBench subset)\n")
}

// RenderTable2 writes the scenario mapping.
func RenderTable2(w io.Writer) {
	fmt.Fprintf(w, "Table 2: Representative AI tasks in Internet service domains\n")
	for _, s := range Table2() {
		fmt.Fprintf(w, "%-15s | %-45s | %v\n", s.Service, s.Scenario, s.Domains)
	}
}

// RenderTable3 writes the component-benchmark roster.
func (r *Registry) RenderTable3(w io.Writer) {
	fmt.Fprintf(w, "Table 3: Component benchmarks in AIBench\n")
	fmt.Fprintf(w, "%-10s %-28s %-38s %-24s %s\n", "No.", "Component Benchmark", "Algorithm", "Data Set", "Target Quality")
	for _, b := range r.AIBench {
		fmt.Fprintf(w, "%-10s %-28s %-38s %-24s %s\n", b.ID, b.Task, b.Algorithm, b.Dataset, b.Target)
	}
}

// RenderTable4 writes the hardware configuration.
func RenderTable4(w io.Writer) {
	cpu := gpusim.XeonE52620v3()
	fmt.Fprintf(w, "Table 4: Hardware configuration details\n")
	fmt.Fprintf(w, "CPU: %s, %d cores @ %.2f GHz\n", cpu.Model, cpu.Cores, cpu.ClockGHz)
	fmt.Fprintf(w, "  L1d %d KB x%d, L1i %d KB x%d, L2 %d KB x%d, L3 %d MB\n",
		cpu.L1DKB, cpu.Cores, cpu.L1IKB, cpu.Cores, cpu.L2KB, cpu.Cores, cpu.L3MB)
	fmt.Fprintf(w, "  Memory %d GB %s, Ethernet %d Gb, Hyper-Threading %v\n",
		cpu.MemoryGB, cpu.MemoryType, cpu.EthernetGbps, cpu.HyperThreading)
	for i, d := range []gpusim.Device{gpusim.TitanXP(), gpusim.TitanRTX()} {
		fmt.Fprintf(w, "GPU v%d: %s — %d CUDA cores, %g GB %s, %.0f GB/s, %d SMs, peak %.1f TFLOPS\n",
			i+1, d.Name, d.CudaCores, d.MemGB, d.MemType, d.MemBandwidthGBs, d.SMs, d.PeakGFLOPs()/1000)
	}
}

// RenderTable5 writes the run-to-run variation reproduction: paper value
// vs measured replay value.
func (r *Registry) RenderTable5(w io.Writer, baseSeed int64) []VariationResult {
	fmt.Fprintf(w, "Table 5: Run-to-run variation of the seventeen benchmarks\n")
	fmt.Fprintf(w, "%-10s %-28s %-10s %-12s %-8s\n", "No.", "Component Benchmark", "Paper CV", "Measured CV", "Repeats")
	var out []VariationResult
	for _, b := range r.AIBench {
		res := b.MeasureVariation(baseSeed)
		out = append(out, res)
		paper, measured := "N/A", "N/A"
		if res.PaperCV >= 0 {
			paper = fmt.Sprintf("%.2f%%", res.PaperCV*100)
			measured = fmt.Sprintf("%.2f%%", res.Measured*100)
		}
		fmt.Fprintf(w, "%-10s %-28s %-10s %-12s %-8d\n", b.ID, b.Task, paper, measured, res.Repeats)
	}
	return out
}

// RenderTable6 writes the training-cost table plus the simulated epoch
// times from the GPU simulator for comparison.
func (r *Registry) RenderTable6(w io.Writer, dev gpusim.Device) {
	fmt.Fprintf(w, "Table 6: Training costs of the seventeen benchmarks (device: %s)\n", dev.Name)
	fmt.Fprintf(w, "%-10s %-28s %-16s %-16s %-14s\n", "No.", "Component Benchmark", "Paper s/epoch", "Sim s/epoch", "Total hours")
	for _, b := range r.AIBench {
		sim := gpusim.EpochTime(b.Spec(), b.DatasetSamples, b.BatchSize, dev)
		total := "N/A"
		if b.TotalHours > 0 {
			total = fmt.Sprintf("%.2f", b.TotalHours)
		}
		fmt.Fprintf(w, "%-10s %-28s %-16.2f %-16.2f %-14s\n", b.ID, b.Task, b.EpochSeconds, sim, total)
	}
	c := r.Costs()
	fmt.Fprintf(w, "Full AIBench: %.2f h | MLPerf: %.2f h | Subset: %.2f h | Top-3: %.1f h\n",
		c.AIBenchFullHours, c.MLPerfHours, c.SubsetHours, c.TopThreeHours)
	fmt.Fprintf(w, "Savings: subset vs AIBench %.0f%% (paper 41%%), subset vs MLPerf %.0f%% (paper 63%%), AIBench vs MLPerf %.0f%% (paper 37%%)\n",
		c.SubsetVsAIBench*100, c.SubsetVsMLPerf*100, c.AIBenchVsMLPerf*100)
}

// RenderTable7 writes the hotspot-function census per kernel category.
func (r *Registry) RenderTable7(w io.Writer, dev gpusim.Device) {
	fmt.Fprintf(w, "Table 7: Hotspot functions by kernel category\n")
	cs := CharacterizeSuite(r.AIBench, dev)
	perCat := map[gpusim.Category]map[string]float64{}
	for _, c := range cs {
		for _, h := range c.Hotspots {
			if perCat[h.Category] == nil {
				perCat[h.Category] = map[string]float64{}
			}
			if h.Share > perCat[h.Category][h.Name] {
				perCat[h.Category][h.Name] = h.Share
			}
		}
	}
	for _, cat := range gpusim.Categories() {
		fmt.Fprintf(w, "%s:\n", cat)
		names := make([]string, 0, len(perCat[cat]))
		for n := range perCat[cat] {
			names = append(names, n)
		}
		// Total order: the names come off a map walk, so share ties
		// must break by name or the rendered order is random per run.
		sort.Slice(names, func(i, j int) bool {
			if si, sj := perCat[cat][names[i]], perCat[cat][names[j]]; si != sj {
				return si > sj
			}
			return names[i] < names[j]
		})
		for i, n := range names {
			if i >= 3 {
				break
			}
			fmt.Fprintf(w, "  %-55s peak share %.1f%%\n", n, perCat[cat][n]*100)
		}
	}
}

// RenderFigure1a writes the coverage comparison of model complexity,
// computational cost, and convergent rate.
func (r *Registry) RenderFigure1a(w io.Writer, dev gpusim.Device) (ai, ml Coverage) {
	ai = CoverageOf(CharacterizeSuite(r.AIBench, dev))
	ml = CoverageOf(CharacterizeSuite(r.MLPerf, dev))
	fmt.Fprintf(w, "Figure 1a: model-characteristic coverage (AIBench vs MLPerf)\n")
	fmt.Fprintf(w, "%-12s %-24s %-24s\n", "Axis", "AIBench range", "MLPerf range")
	fmt.Fprintf(w, "%-12s %10.2f..%-12.0f %10.2f..%-12.0f\n", "M-FLOPs", ai.MFLOPs.Min, ai.MFLOPs.Max, ml.MFLOPs.Min, ml.MFLOPs.Max)
	fmt.Fprintf(w, "%-12s %10.2f..%-12.1f %10.2f..%-12.1f\n", "M-params", ai.MParams.Min, ai.MParams.Max, ml.MParams.Min, ml.MParams.Max)
	fmt.Fprintf(w, "%-12s %10.1f..%-12.1f %10.1f..%-12.1f\n", "Epochs", ai.Epochs.Min, ai.Epochs.Max, ml.Epochs.Min, ml.Epochs.Max)
	f, p, e := PeakRatios(ai, ml)
	fmt.Fprintf(w, "Peak ratios AIBench/MLPerf: FLOPs %.1fx, params %.1fx, epochs %.1fx (paper: 1.3x..6.4x)\n", f, p, e)
	return ai, ml
}

// RenderFigure2 writes the per-benchmark scatter data (epochs vs FLOPs,
// bubble = parameters).
func (r *Registry) RenderFigure2(w io.Writer, dev gpusim.Device) {
	fmt.Fprintf(w, "Figure 2: epochs-to-convergence vs forward M-FLOPs (bubble: M-params)\n")
	fmt.Fprintf(w, "%-12s %-28s %14s %12s %10s\n", "ID", "Benchmark", "M-FLOPs", "M-params", "Epochs")
	for _, c := range CharacterizeSuite(append(append([]*Benchmark{}, r.AIBench...), r.MLPerf...), dev) {
		if c.ID == "DC-AI-C17" || c.ID == "MLPerf-RL" {
			continue // excluded by the paper (RL models vary per epoch)
		}
		fmt.Fprintf(w, "%-12s %-28s %14.2f %12.2f %10.1f\n", c.ID, c.Task, c.MFLOPs, c.MParams, c.Epochs)
	}
}

// RenderFigure3 writes each benchmark's five micro-architectural metrics
// (the radar charts).
func (r *Registry) RenderFigure3(w io.Writer, dev gpusim.Device) {
	fmt.Fprintf(w, "Figure 3: computation and memory access patterns (%s)\n", dev.Name)
	fmt.Fprintf(w, "%-12s %-28s", "ID", "Benchmark")
	for _, n := range gpusim.MetricNames() {
		fmt.Fprintf(w, " %18s", n)
	}
	fmt.Fprintln(w)
	for _, c := range CharacterizeSuite(r.All(), dev) {
		fmt.Fprintf(w, "%-12s %-28s", c.ID, c.Task)
		for _, v := range c.Metrics.Vector() {
			fmt.Fprintf(w, " %18.3f", v)
		}
		fmt.Fprintln(w)
	}
}

// RenderFigure4 writes the t-SNE clustering of the seventeen benchmarks.
func (r *Registry) RenderFigure4(w io.Writer, seed int64) ClusterResult {
	res := r.ClusterBenchmarks(3, seed)
	fmt.Fprintf(w, "Figure 4: t-SNE clustering of the seventeen AIBench benchmarks (k=3)\n")
	for i, id := range res.IDs {
		marker := " "
		if id == "DC-AI-C1" || id == "DC-AI-C9" || id == "DC-AI-C16" {
			marker = "*"
		}
		fmt.Fprintf(w, "%-12s cluster=%d  (%8.2f, %8.2f) %s\n", id, res.Assignment[i], res.Embedding[i][0], res.Embedding[i][1], marker)
	}
	fmt.Fprintf(w, "silhouette=%.3f subset-covers-all-clusters=%v (* = subset member)\n", res.Silhouette, res.SubsetCoversAll)
	return res
}

// RenderFigure5 writes the runtime breakdown into the eight kernel
// categories.
func (r *Registry) RenderFigure5(w io.Writer, dev gpusim.Device) {
	fmt.Fprintf(w, "Figure 5: runtime breakdown of the AIBench benchmarks (%% of iteration)\n")
	cats := gpusim.Categories()
	fmt.Fprintf(w, "%-12s", "ID")
	for _, c := range cats {
		fmt.Fprintf(w, " %17s", c)
	}
	fmt.Fprintln(w)
	for _, c := range CharacterizeSuite(r.AIBench, dev) {
		fmt.Fprintf(w, "%-12s", c.ID)
		for _, cat := range cats {
			fmt.Fprintf(w, " %16.1f%%", c.Shares[cat]*100)
		}
		fmt.Fprintln(w)
	}
}

// RenderFigure6 writes the hotspot-function histogram.
func (r *Registry) RenderFigure6(w io.Writer, dev gpusim.Device) (ai, ml [4]int) {
	ai = HotspotHistogram(CharacterizeSuite(r.AIBench, dev))
	ml = HotspotHistogram(CharacterizeSuite(r.MLPerf, dev))
	fmt.Fprintf(w, "Figure 6: hotspot functions by time-percentage bucket\n")
	fmt.Fprintf(w, "%-10s %8s %8s\n", "Bucket", "AIBench", "MLPerf")
	labels := []string{"0-5%", "5-10%", "10-15%", "15%+"}
	for i, l := range labels {
		fmt.Fprintf(w, "%-10s %8d %8d\n", l, ai[i], ml[i])
	}
	aiOver10 := ai[2] + ai[3]
	mlOver10 := ml[2] + ml[3]
	fmt.Fprintf(w, ">=10%% bucket: AIBench %d vs MLPerf %d (paper: 30 vs 9)\n", aiOver10, mlOver10)
	return ai, ml
}

// RenderFigure7 writes the stall breakdown of the hotspot kernels.
func (r *Registry) RenderFigure7(w io.Writer, dev gpusim.Device) map[gpusim.Category]gpusim.StallBreakdown {
	fmt.Fprintf(w, "Figure 7: stall breakdown of the hotspot kernel categories\n")
	// Aggregate stalls across all seventeen benchmarks, time-weighted by
	// category runtime. Categories iterate in canonical order — never in
	// map order — because float accumulation is not associative, and a
	// random walk here would make the aggregate differ run to run.
	agg := map[gpusim.Category][]float64{}
	weights := map[gpusim.Category]float64{}
	for _, c := range CharacterizeSuite(r.AIBench, dev) {
		for _, cat := range gpusim.Categories() {
			s, ok := c.Stalls[cat]
			if !ok {
				continue
			}
			wgt := c.Shares[cat]
			acc := agg[cat]
			if acc == nil {
				acc = make([]float64, 8)
				agg[cat] = acc
			}
			for i, v := range s.Vector() {
				acc[i] += v * wgt
			}
			weights[cat] += wgt
		}
	}
	fmt.Fprintf(w, "%-18s", "Category")
	for _, n := range gpusim.StallNames() {
		fmt.Fprintf(w, " %17s", n)
	}
	fmt.Fprintln(w)
	out := map[gpusim.Category]gpusim.StallBreakdown{}
	for _, cat := range gpusim.Categories() {
		acc, wgt := agg[cat], weights[cat]
		if wgt == 0 {
			continue
		}
		var sb gpusim.StallBreakdown
		vals := make([]float64, 8)
		for i := range acc {
			vals[i] = acc[i] / wgt
		}
		sb = gpusim.StallBreakdown{
			InstFetch: vals[0], ExecDepend: vals[1], MemDepend: vals[2], Texture: vals[3],
			Sync: vals[4], ConstMemDepend: vals[5], PipeBusy: vals[6], MemThrottle: vals[7],
		}
		out[cat] = sb
		fmt.Fprintf(w, "%-18s", cat)
		for _, v := range vals {
			fmt.Fprintf(w, " %16.1f%%", v*100)
		}
		fmt.Fprintln(w)
	}
	return out
}
