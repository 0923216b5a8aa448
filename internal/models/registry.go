package models

import "aibench/internal/workload"

// Factory constructs a scaled benchmark with the given seed.
type Factory func(seed int64) Benchmark

// Entry is one benchmark of the suite, specification first (the
// paper's Table 3): its id and display name, the quality its scaled
// model must reach and the metric's direction, and its paper-scale
// architecture — beside the factory that builds a training instance.
// Reading a row builds no instance, and Spec is a function, so listing
// the rows builds no spec either. The MLPerf rows that share an
// AIBench model (MLPerf-IC, MLPerf-TN, MLPerf-RC) differ from their
// AIBench row only here.
type Entry struct {
	ID    string // DC-AI-Cn for AIBench; MLPerf-n for MLPerf
	Suite string // "AIBench" or "MLPerf"
	Name  string // display name
	// ScaledTarget is the quality the scaled model must reach for an
	// entire (scaled) training session to terminate; LowerIsBetter is
	// the metric's direction (true for WER, perplexity, MSE, EM
	// distance).
	ScaledTarget  float64
	LowerIsBetter bool
	// Spec returns the paper-scale architecture, used for the analytic
	// FLOPs/parameter characterization and the GPU simulator.
	Spec    func() workload.Model
	Factory Factory
}

// MeetsTarget reports whether quality q satisfies the entry's scaled
// target given its metric direction.
func (e Entry) MeetsTarget(q float64) bool {
	if e.LowerIsBetter {
		return q <= e.ScaledTarget
	}
	return q >= e.ScaledTarget
}

// AIBenchEntries returns the seventeen component benchmarks in Table 3
// order. A scaled target is calibrated to the scaled synthetic task;
// the comment on each row gives the paper's target beside it.
func AIBenchEntries() []Entry {
	return []Entry{
		// Paper: 74.9% Top-1 at full scale; the scaled synthetic task
		// converges well above it.
		{ID: "DC-AI-C1", Suite: "AIBench", Name: "Image Classification", ScaledTarget: 0.90,
			Spec: imageClassificationSpec, Factory: func(s int64) Benchmark { return NewImageClassification(s) }},
		// Paper: EM distance 0.5±0.005.
		{ID: "DC-AI-C2", Suite: "AIBench", Name: "Image Generation", ScaledTarget: 0.5, LowerIsBetter: true,
			Spec: imageGenerationSpec, Factory: func(s int64) Benchmark { return NewImageGeneration(s) }},
		// Paper: 55% accuracy.
		{ID: "DC-AI-C3", Suite: "AIBench", Name: "Text-to-Text Translation", ScaledTarget: 0.55,
			Spec: textToTextSpec, Factory: func(s int64) Benchmark { return NewTextToText(s) }},
		// Paper: 4.2 perplexity.
		{ID: "DC-AI-C4", Suite: "AIBench", Name: "Image-to-Text", ScaledTarget: 4.2, LowerIsBetter: true,
			Spec: imageToTextSpec, Factory: func(s int64) Benchmark { return NewImageToText(s) }},
		// Paper: per-pixel accuracy 0.52±0.005.
		{ID: "DC-AI-C5", Suite: "AIBench", Name: "Image-to-Image", ScaledTarget: 0.52,
			Spec: imageToImageSpec, Factory: func(s int64) Benchmark { return NewImageToImage(s) }},
		// The paper's convergent quality for characterization is 23.5% WER.
		{ID: "DC-AI-C6", Suite: "AIBench", Name: "Speech Recognition", ScaledTarget: 0.235, LowerIsBetter: true,
			Spec: speechRecognitionSpec, Factory: func(s int64) Benchmark { return NewSpeechRecognition(s) }},
		// The paper's convergent quality for characterization: 89% accuracy.
		{ID: "DC-AI-C7", Suite: "AIBench", Name: "Face Embedding", ScaledTarget: 0.89,
			Spec: faceEmbeddingSpec, Factory: func(s int64) Benchmark { return NewFaceEmbedding(s) }},
		// Paper: 94.59% convergent accuracy.
		{ID: "DC-AI-C8", Suite: "AIBench", Name: "3D Face Recognition", ScaledTarget: 0.92,
			Spec: face3DSpec, Factory: func(s int64) Benchmark { return NewFace3D(s) }},
		// The paper's convergent quality: 74% mAP at full scale; the 16×16
		// scaled task converges around 0.5-0.7 because IoU@0.5 on boxes a
		// few pixels wide punishes single-pixel offsets.
		{ID: "DC-AI-C9", Suite: "AIBench", Name: "Object Detection", ScaledTarget: 0.50,
			Spec: fasterRCNNSpec, Factory: func(s int64) Benchmark { return NewObjectDetection(s) }},
		// Paper: 63.5% HR@10; the characterization's convergent quality is
		// 60%.
		{ID: "DC-AI-C10", Suite: "AIBench", Name: "Recommendation", ScaledTarget: 0.60,
			Spec: recommendationSpec, Factory: func(s int64) Benchmark { return NewRecommendation(s) }},
		{ID: "DC-AI-C11", Suite: "AIBench", Name: "Video Prediction", ScaledTarget: 0.005, LowerIsBetter: true,
			Spec: videoPredictionSpec, Factory: func(s int64) Benchmark { return NewVideoPrediction(s) }},
		// Paper: 0.99 MS-SSIM; the two-iteration scaled codec on noisy 8×8
		// inputs converges near 0.9 — the additive noise is incompressible
		// through the bottleneck.
		{ID: "DC-AI-C12", Suite: "AIBench", Name: "Image Compression", ScaledTarget: 0.82,
			Spec: imageCompressionSpec, Factory: func(s int64) Benchmark { return NewImageCompression(s) }},
		// Paper: 45.83% IU.
		{ID: "DC-AI-C13", Suite: "AIBench", Name: "3D Object Reconstruction", ScaledTarget: 0.4583,
			Spec: recon3DSpec, Factory: func(s int64) Benchmark { return NewRecon3D(s) }},
		// Paper: 41 Rouge-L.
		{ID: "DC-AI-C14", Suite: "AIBench", Name: "Text Summarization", ScaledTarget: 0.41,
			Spec: textSummarizationSpec, Factory: func(s int64) Benchmark { return NewTextSummarization(s) }},
		// Paper: 99% on MNIST; the scaled distorted task converges slightly
		// lower.
		{ID: "DC-AI-C15", Suite: "AIBench", Name: "Spatial Transformer", ScaledTarget: 0.9,
			Spec: spatialTransformerSpec, Factory: func(s int64) Benchmark { return NewSpatialTransformer(s) }},
		{ID: "DC-AI-C16", Suite: "AIBench", Name: "Learning to Rank", ScaledTarget: 0.5,
			Spec: learningToRankSpec, Factory: func(s int64) Benchmark { return NewLearningToRank(s) }},
		// The synthetic Markov language has entropy ≈1.7 nats (perplexity
		// ≈5.5); a trained child should approach it.
		{ID: "DC-AI-C17", Suite: "AIBench", Name: "Neural Architecture Search", ScaledTarget: 8, LowerIsBetter: true,
			Spec: nasSpec, Factory: func(s int64) Benchmark { return NewNAS(s) }},
	}
}

// MLPerfEntries returns the seven MLPerf training benchmarks. MLPerf-IC,
// MLPerf-TN and MLPerf-RC train DC-AI-C1's, C3's and C10's model on the
// same dataset — the paper notes the suites share them, so numbers are
// consistent across suites.
func MLPerfEntries() []Entry {
	return []Entry{
		{ID: "MLPerf-IC", Suite: "MLPerf", Name: "MLPerf Image Classification", ScaledTarget: 0.90,
			Spec: imageClassificationSpec, Factory: func(s int64) Benchmark { return NewImageClassification(s) }},
		// MLPerf's convergent quality for SSD is itself low (22.47 mAP per
		// Section 5.2.1), and the scaled one-stage detector mirrors that gap
		// to the two-stage detectors.
		{ID: "MLPerf-ODL", Suite: "MLPerf", Name: "MLPerf Object Detection (light)", ScaledTarget: 0.22,
			Spec: ssdSpec, Factory: func(s int64) Benchmark { return NewSSDLight(s) }},
		{ID: "MLPerf-ODH", Suite: "MLPerf", Name: "MLPerf Object Detection (heavy)", ScaledTarget: 0.50,
			Spec: maskRCNNSpec, Factory: func(s int64) Benchmark { return NewMaskRCNN(s) }},
		// MLPerf target: 22.21 BLEU; the deterministic synthetic language
		// supports far higher.
		{ID: "MLPerf-TR", Suite: "MLPerf", Name: "MLPerf Translation (recurrent)", ScaledTarget: 60,
			Spec: gnmtSpec, Factory: func(s int64) Benchmark { return NewGNMT(s) }},
		{ID: "MLPerf-TN", Suite: "MLPerf", Name: "MLPerf Translation (nonrecurrent)", ScaledTarget: 0.55,
			Spec: mlperfTransformerSpec, Factory: func(s int64) Benchmark { return NewTextToText(s) }},
		{ID: "MLPerf-RC", Suite: "MLPerf", Name: "MLPerf Recommendation", ScaledTarget: 0.60,
			Spec: recommendationSpec, Factory: func(s int64) Benchmark { return NewRecommendation(s) }},
		// MLPerf target: 40% move prediction.
		{ID: "MLPerf-RL", Suite: "MLPerf", Name: "MLPerf Reinforcement Learning", ScaledTarget: 0.40,
			Spec: minigoSpec, Factory: func(s int64) Benchmark { return NewReinforcementLearning(s) }},
	}
}

// AllEntries returns AIBench then MLPerf entries.
func AllEntries() []Entry {
	return append(AIBenchEntries(), MLPerfEntries()...)
}
