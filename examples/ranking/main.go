// Ranking example: the purchasing/ranking use case of the methodology —
// compare two systems (TITAN XP vs TITAN RTX) by running entire
// simulated training sessions of the subset, then sanity-check the
// verdict with quasi-entire sweeps over the full suite, exactly the
// two-tier protocol Section 3.4 prescribes.
package main

import (
	"context"
	"fmt"
	"os"

	"aibench"
	"aibench/internal/gpusim"
)

func main() {
	suite := aibench.NewSuite()
	devices := []aibench.Device{aibench.TitanXP(), aibench.TitanRTX()}

	fmt.Println("System ranking with the AIBench subset (simulated entire sessions)")
	totals := make([]float64, len(devices))
	for _, b := range suite.Subset() {
		fmt.Printf("\n%s — %s:\n", b.ID, b.Task)
		for di, dev := range devices {
			epoch := gpusim.EpochTime(b.Spec(), b.DatasetSamples, b.BatchSize, dev)
			hours := epoch * b.ConvergeEpochs / 3600
			totals[di] += hours
			fmt.Printf("  %-18s %8.2f s/epoch  -> %7.2f h to quality\n", dev.Name, epoch, hours)
		}
	}
	fmt.Println()
	for di, dev := range devices {
		fmt.Printf("%-18s subset total: %7.2f h\n", dev.Name, totals[di])
	}
	speedup := totals[0] / totals[1]
	fmt.Printf("verdict: %s is %.2fx faster on the subset\n", devices[1].Name, speedup)

	// Full-suite quasi-entire cross-check (one iteration per benchmark):
	// the methodology's guard against benchmarketing.
	fmt.Println("\nfull-suite quasi-entire cross-check (per-iteration time ratio):")
	agree := 0
	for _, b := range suite.AIBench() {
		tXP := gpusim.IterationTime(b.Spec(), b.BatchSize, devices[0])
		tRTX := gpusim.IterationTime(b.Spec(), b.BatchSize, devices[1])
		r := tXP / tRTX
		if r > 1 {
			agree++
		}
		fmt.Printf("  %-11s RTX speedup %.2fx\n", b.ID, r)
	}
	fmt.Printf("%d/17 benchmarks agree with the subset verdict\n", agree)

	// The unified Plan/Runner API replays entire paper-scale sessions
	// (calibrated epochs-to-quality × the Table 6 cost model) in
	// milliseconds — the repeatable artifact behind a purchase report,
	// persistable as JSONL and rebuildable with `aibench report -from`.
	ids := make([]string, 0, 3)
	for _, b := range suite.Subset() {
		ids = append(ids, b.ID)
	}
	runner, err := suite.NewRunner(aibench.Plan{Kind: aibench.RunReplay, Benchmarks: ids, Seed: 7})
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	res, err := runner.Run(context.Background(), nil)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	fmt.Println("\nreplayed entire sessions of the subset (unified Plan/Runner API):")
	for _, r := range res.Replays {
		fmt.Printf("  %-11s %6.1f epochs -> %7.2f h\n", r.ID, r.Epochs, r.Hours)
	}
}
