// Package core implements the paper's primary contribution: the balanced
// AIBench Training benchmarking methodology. It binds the seventeen
// AIBench component benchmarks (plus the seven MLPerf comparison
// benchmarks) to their Table 3 metadata, the measured constants of
// Tables 5-6, the convergence-replay machinery that reproduces
// run-to-run variation and benchmarking cost, the minimum-subset
// selection of Section 5.4, and the characterization pipeline behind
// Figures 1-7.
package core

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"

	"aibench/internal/models"
	"aibench/internal/workload"
)

// Benchmark is one component benchmark: its models registry row — the
// scaled executable workload's factory, display name, target and
// metric direction, and paper-scale spec — plus the paper-scale
// constants the evaluation harness replays.
type Benchmark struct {
	ID        string // DC-AI-C1..C17 or MLPerf-*
	Suite     string // "AIBench" or "MLPerf"
	Task      string
	Algorithm string // Table 3 "Algorithm" column
	Dataset   string // Table 3 "Data Set" column
	DataSize  string // Section 5.5.1 dataset footprint
	Target    string // Table 3 "Target Quality" column

	// ConvergeEpochs is the mean number of training epochs to reach the
	// convergent quality (the Fig 2 y-axis). The paper prints the range
	// (6..96 for AIBench, 3..49 for MLPerf) and a few anchors; values
	// not directly derivable from Table 6 are estimates within those
	// constraints and are flagged in EXPERIMENTS.md.
	ConvergeEpochs float64
	// VariationCV is Table 5's run-to-run variation (std/mean of epochs
	// to quality); negative means "Not available" (no accepted metric).
	VariationCV float64
	// Repeats is Table 5's repeat count.
	Repeats int
	// EpochSeconds and TotalHours are Table 6's training costs on the
	// TITAN RTX; TotalHours < 0 means N/A.
	EpochSeconds float64
	TotalHours   float64
	// HasAcceptedMetric is the Section 5.4.1 criterion (false for the
	// GAN-based benchmarks).
	HasAcceptedMetric bool
	// DatasetSamples/BatchSize parameterize the simulated epoch on the
	// GPU simulator.
	DatasetSamples int
	BatchSize      int

	// Factory builds the scaled executable workload.
	Factory models.Factory

	entry models.Entry   // the bound row: name, scaled target, direction
	spec  workload.Model // the row's paper-scale architecture
}

// Spec returns the paper-scale architecture, evaluated once when the
// registry bound the benchmark to its row.
func (b *Benchmark) Spec() workload.Model { return b.spec }

// InSubset reports whether the benchmark belongs to the paper's minimum
// subset (Image Classification, Object Detection, Learning to Rank).
func (b *Benchmark) InSubset() bool {
	return b.ID == "DC-AI-C1" || b.ID == "DC-AI-C9" || b.ID == "DC-AI-C16"
}

// aibenchTable binds Table 3 + Table 5 + Table 6 + Section 5.5.1 data to
// the scaled factories.
var aibenchTable = []Benchmark{
	{ID: "DC-AI-C1", Task: "Image classification", Algorithm: "ResNet50", Dataset: "ImageNet", DataSize: "137 GB",
		Target: "74.9% (accuracy)", ConvergeEpochs: 44.5, VariationCV: 0.0112, Repeats: 5,
		EpochSeconds: 10516.91, TotalHours: 130, HasAcceptedMetric: true, DatasetSamples: 1281167, BatchSize: 128},
	{ID: "DC-AI-C2", Task: "Image generation", Algorithm: "WassersteinGAN", Dataset: "LSUN", DataSize: "42.8 GB",
		Target: "N/A", ConvergeEpochs: 30, VariationCV: -1, Repeats: 0,
		EpochSeconds: 3935.75, TotalHours: -1, HasAcceptedMetric: false, DatasetSamples: 3033042, BatchSize: 64},
	{ID: "DC-AI-C3", Task: "Text-to-Text translation", Algorithm: "Transformer", Dataset: "WMT English-German", DataSize: "1.2 MB",
		Target: "55% (accuracy)", ConvergeEpochs: 95.5, VariationCV: 0.0938, Repeats: 6,
		EpochSeconds: 64.83, TotalHours: 1.72, HasAcceptedMetric: true, DatasetSamples: 4500000, BatchSize: 4096},
	{ID: "DC-AI-C4", Task: "Image-to-Text", Algorithm: "Neural Image Caption Model", Dataset: "Microsoft COCO", DataSize: "13 GB",
		Target: "4.2 (perplexity)", ConvergeEpochs: 43.5, VariationCV: 0.2353, Repeats: 5,
		EpochSeconds: 845.02, TotalHours: 10.21, HasAcceptedMetric: true, DatasetSamples: 82783, BatchSize: 64},
	{ID: "DC-AI-C5", Task: "Image-to-Image", Algorithm: "CycleGAN", Dataset: "Cityscapes", DataSize: "267 MB",
		Target: "N/A", ConvergeEpochs: 25, VariationCV: -1, Repeats: 0,
		EpochSeconds: 251.67, TotalHours: -1, HasAcceptedMetric: false, DatasetSamples: 2975, BatchSize: 1},
	{ID: "DC-AI-C6", Task: "Speech recognition", Algorithm: "DeepSpeech2", Dataset: "Librispeech", DataSize: "59.3 GB",
		Target: "5.33% (WER)", ConvergeEpochs: 10.7, VariationCV: 0.1208, Repeats: 4,
		EpochSeconds: 14326.86, TotalHours: 42.78, HasAcceptedMetric: true, DatasetSamples: 281241, BatchSize: 32},
	{ID: "DC-AI-C7", Task: "Face embedding", Algorithm: "Facenet", Dataset: "VGGFace2", DataSize: "36 GB",
		Target: "98.97% (accuracy)", ConvergeEpochs: 57.5, VariationCV: 0.0573, Repeats: 8,
		EpochSeconds: 214.73, TotalHours: 3.43, HasAcceptedMetric: true, DatasetSamples: 3310000, BatchSize: 128},
	{ID: "DC-AI-C8", Task: "3D Face Recognition", Algorithm: "3D face models", Dataset: "Intellifusion RGB-D", DataSize: "37 GB",
		Target: "94.64% (accuracy)", ConvergeEpochs: 12, VariationCV: 0.3846, Repeats: 4,
		EpochSeconds: 36.99, TotalHours: 12.02, HasAcceptedMetric: true, DatasetSamples: 77715, BatchSize: 64},
	{ID: "DC-AI-C9", Task: "Object detection", Algorithm: "Faster R-CNN", Dataset: "VOC2007", DataSize: "439 MB",
		Target: "75% (mAP)", ConvergeEpochs: 6, VariationCV: 0, Repeats: 10,
		EpochSeconds: 1627.39, TotalHours: 2.52, HasAcceptedMetric: true, DatasetSamples: 5011, BatchSize: 1},
	{ID: "DC-AI-C10", Task: "Recommendation", Algorithm: "Neural collaborative filtering", Dataset: "MovieLens", DataSize: "190 MB",
		Target: "63.5% (HR@10)", ConvergeEpochs: 16, VariationCV: 0.0995, Repeats: 5,
		EpochSeconds: 36.72, TotalHours: 0.16, HasAcceptedMetric: true, DatasetSamples: 100000, BatchSize: 256},
	{ID: "DC-AI-C11", Task: "Video prediction", Algorithm: "Motion-Focused predictive models", Dataset: "Robot pushing data set", DataSize: "137 GB",
		Target: "72 (MSE)", ConvergeEpochs: 30, VariationCV: 0.1183, Repeats: 4,
		EpochSeconds: 24.99, TotalHours: 2.11, HasAcceptedMetric: true, DatasetSamples: 59000, BatchSize: 32},
	{ID: "DC-AI-C12", Task: "Image compression", Algorithm: "Recurrent neural network", Dataset: "ImageNet", DataSize: "137 GB",
		Target: "0.99 (MS-SSIM)", ConvergeEpochs: 27, VariationCV: 0.2249, Repeats: 4,
		EpochSeconds: 763.44, TotalHours: 5.67, HasAcceptedMetric: true, DatasetSamples: 1281167, BatchSize: 192},
	{ID: "DC-AI-C13", Task: "3D object reconstruction", Algorithm: "Convolutional encoder-decoder network", Dataset: "ShapeNet Data set", DataSize: "6.8 GB",
		Target: "45.83% (IU)", ConvergeEpochs: 48, VariationCV: 0.1607, Repeats: 4,
		EpochSeconds: 28.41, TotalHours: 0.38, HasAcceptedMetric: true, DatasetSamples: 51300, BatchSize: 64},
	{ID: "DC-AI-C14", Task: "Text summarization", Algorithm: "Sequence-to-sequence model", Dataset: "Gigaword data set", DataSize: "277 MB",
		Target: "41 (Rouge-L)", ConvergeEpochs: 12, VariationCV: 0.2472, Repeats: 5,
		EpochSeconds: 1923.33, TotalHours: 6.41, HasAcceptedMetric: true, DatasetSamples: 3800000, BatchSize: 64},
	{ID: "DC-AI-C15", Task: "Spatial transformer", Algorithm: "Spatial transformer networks", Dataset: "MNIST", DataSize: "9.5 MB",
		Target: "99% (accuracy)", ConvergeEpochs: 34, VariationCV: 0.0729, Repeats: 4,
		EpochSeconds: 6.38, TotalHours: 0.06, HasAcceptedMetric: true, DatasetSamples: 60000, BatchSize: 256},
	{ID: "DC-AI-C16", Task: "Learning to rank", Algorithm: "Ranking distillation", Dataset: "Gowalla", DataSize: "107 MB",
		Target: "14.58% (accuracy)", ConvergeEpochs: 23, VariationCV: 0.019, Repeats: 4,
		EpochSeconds: 74.16, TotalHours: 0.47, HasAcceptedMetric: true, DatasetSamples: 6442890, BatchSize: 1024},
	{ID: "DC-AI-C17", Task: "Neural architecture search", Algorithm: "Efficient neural architecture search", Dataset: "PTB", DataSize: "4.9 MB",
		Target: "100 (perplexity)", ConvergeEpochs: 29, VariationCV: 0.0615, Repeats: 6,
		EpochSeconds: 932.79, TotalHours: 7.47, HasAcceptedMetric: true, DatasetSamples: 929589, BatchSize: 64},
}

// mlperfTable binds the seven MLPerf benchmarks and the Section 5.3.2
// MLPerf training costs.
var mlperfTable = []Benchmark{
	{ID: "MLPerf-IC", Task: "Image classification", Algorithm: "ResNet50", Dataset: "ImageNet", DataSize: "137 GB",
		Target: "74.9% (accuracy)", ConvergeEpochs: 44.5, VariationCV: 0.0112, Repeats: 5,
		EpochSeconds: 10516.91, TotalHours: 130, HasAcceptedMetric: true, DatasetSamples: 1281167, BatchSize: 128},
	{ID: "MLPerf-ODL", Task: "Object detection (light)", Algorithm: "SSD", Dataset: "COCO", DataSize: "20 GB",
		Target: "22.47 (mAP)", ConvergeEpochs: 10, VariationCV: 0.03, Repeats: 5,
		EpochSeconds: 8532, TotalHours: 23.7, HasAcceptedMetric: true, DatasetSamples: 118287, BatchSize: 32},
	{ID: "MLPerf-ODH", Task: "Object detection (heavy)", Algorithm: "Mask R-CNN", Dataset: "COCO", DataSize: "20 GB",
		Target: "37.7 (BBOX)", ConvergeEpochs: 13, VariationCV: 0.05, Repeats: 5,
		EpochSeconds: 20309, TotalHours: 73.34, HasAcceptedMetric: true, DatasetSamples: 118287, BatchSize: 16},
	{ID: "MLPerf-TR", Task: "Translation (recurrent)", Algorithm: "GNMT", Dataset: "WMT English-German", DataSize: "1.2 MB",
		Target: "22.21 (BLEU)", ConvergeEpochs: 3, VariationCV: 0.08, Repeats: 5,
		EpochSeconds: 19824, TotalHours: 16.52, HasAcceptedMetric: true, DatasetSamples: 4500000, BatchSize: 512},
	{ID: "MLPerf-TN", Task: "Translation (nonrecurrent)", Algorithm: "Transformer", Dataset: "WMT English-German", DataSize: "1.2 MB",
		Target: "25.25 (BLEU)", ConvergeEpochs: 49, VariationCV: 0.09, Repeats: 5,
		EpochSeconds: 1616, TotalHours: 22, HasAcceptedMetric: true, DatasetSamples: 4500000, BatchSize: 4096},
	{ID: "MLPerf-RC", Task: "Recommendation", Algorithm: "Neural collaborative filtering", Dataset: "MovieLens", DataSize: "190 MB",
		Target: "63.5% (HR@10)", ConvergeEpochs: 16, VariationCV: 0.0995, Repeats: 5,
		EpochSeconds: 36.72, TotalHours: 0.16, HasAcceptedMetric: true, DatasetSamples: 100000, BatchSize: 256},
	{ID: "MLPerf-RL", Task: "Reinforcement learning", Algorithm: "Minigo", Dataset: "Go self-play", DataSize: "N/A",
		Target: "40% (pro move prediction)", ConvergeEpochs: 60, VariationCV: -1, Repeats: 0,
		// The paper trained > 96 hours without reaching the target.
		EpochSeconds: 5760, TotalHours: 96, HasAcceptedMetric: true, DatasetSamples: 0, BatchSize: 64},
}

// Registry holds the bound benchmark suites.
type Registry struct {
	AIBench []*Benchmark
	MLPerf  []*Benchmark
}

// NewRegistry binds the metadata tables to the models registry rows,
// evaluating each row's spec once.
func NewRegistry() *Registry {
	return &Registry{AIBench: bind(aibenchTable, models.AIBenchEntries()), MLPerf: bind(mlperfTable, models.MLPerfEntries())}
}

// bind pairs each metadata row with the models row of the same
// position, which must carry the same id.
func bind(table []Benchmark, entries []models.Entry) []*Benchmark {
	out := make([]*Benchmark, len(table))
	for i, b := range table {
		e := entries[i]
		if e.ID != b.ID {
			panic(fmt.Sprintf("core: registry order mismatch %s vs %s", e.ID, b.ID))
		}
		b.Suite, b.Factory, b.entry, b.spec = e.Suite, e.Factory, e, e.Spec()
		out[i] = &b
	}
	return out
}

// All returns AIBench then MLPerf benchmarks.
func (r *Registry) All() []*Benchmark {
	return append(append([]*Benchmark(nil), r.AIBench...), r.MLPerf...)
}

// ByID looks a benchmark up by id; nil if absent.
func (r *Registry) ByID(id string) *Benchmark {
	for _, b := range r.All() {
		if b.ID == id {
			return b
		}
	}
	return nil
}

// SHA returns a short hex digest over the registered benchmark roster
// (ids, suites, tasks, algorithms, datasets in registry order). It
// identifies which suite revision produced a persisted result stream:
// the digest changes when benchmarks are added, removed, reordered, or
// re-bound, and is stable across runs of the same build.
// The lines it hashes are built in one buffer, not written field by
// field through fmt: every run's metadata asks for the digest.
func (r *Registry) SHA() string {
	buf := make([]byte, 0, 2048) // the roster's lines take 1.6 KB
	for _, suite := range [...][]*Benchmark{r.AIBench, r.MLPerf} {
		for _, b := range suite {
			for _, f := range [...]string{b.ID, b.Suite, b.Task, b.Algorithm, b.Dataset} {
				buf = append(append(buf, f...), '|')
			}
			buf[len(buf)-1] = '\n'
		}
	}
	sum := sha256.Sum256(buf)
	return hex.EncodeToString(sum[:8])
}

// registryOrder maps every benchmark id to its canonical suite position
// (AIBench C1..C17, then MLPerf), so report renderers can restore
// registry order over records that arrived in completion order.
var registryOrder = func() map[string]int {
	m := make(map[string]int, len(aibenchTable)+len(mlperfTable))
	for _, b := range aibenchTable {
		m[b.ID] = len(m)
	}
	for _, b := range mlperfTable {
		m[b.ID] = len(m)
	}
	return m
}()

// orderOf returns the canonical position of a benchmark id; unknown ids
// sort after every registered benchmark.
func orderOf(id string) int {
	if i, ok := registryOrder[id]; ok {
		return i
	}
	return len(registryOrder)
}

// Subset returns the paper's three-benchmark minimum subset.
func (r *Registry) Subset() []*Benchmark {
	var out []*Benchmark
	for _, b := range r.AIBench {
		if b.InSubset() {
			out = append(out, b)
		}
	}
	return out
}
