package tune

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"

	"aibench/internal/tensor"
)

// TestSearchQuickProducesApplicableConfig runs the real (quick) sweep
// and checks its output end to end: one entry per class, every entry on
// the block menu, and the whole config convertible + activatable.
func TestSearchQuickProducesApplicableConfig(t *testing.T) {
	cfg := Search(Options{Quick: true})
	if cfg.Kernel != "blocked" || cfg.GOARCH != runtime.GOARCH || cfg.GOMAXPROCS != runtime.GOMAXPROCS(0) {
		t.Fatalf("machine key wrong: %+v", cfg)
	}
	wantClasses := map[[2]string]bool{
		{OpGEMM, tensor.ShapeSquare}: true,
		{OpGEMM, tensor.ShapeSkinny}: true,
		{OpGEMM, tensor.ShapeFat}:    true,
	}
	if len(cfg.Entries) != len(wantClasses) {
		t.Fatalf("got %d entries, want %d: %+v", len(cfg.Entries), len(wantClasses), cfg.Entries)
	}
	menu := blockMenu()
	for _, e := range cfg.Entries {
		if !wantClasses[[2]string{e.Op, e.ShapeClass}] {
			t.Errorf("unexpected or duplicate entry %s/%s", e.Op, e.ShapeClass)
		}
		delete(wantClasses, [2]string{e.Op, e.ShapeClass})
		onMenu := false
		for _, c := range menu {
			onMenu = onMenu || c == e.TileConfig()
		}
		if !onMenu {
			t.Errorf("%s/%s winner %v is off the block menu", e.Op, e.ShapeClass, e.TileConfig())
		}
		if e.GFLOPS <= 0 {
			t.Errorf("%s/%s reports non-positive GFLOPS %v", e.Op, e.ShapeClass, e.GFLOPS)
		}
	}
	onThresholdMenu := false
	for _, th := range thresholdMenu() {
		onThresholdMenu = onThresholdMenu || th == cfg.Threshold
	}
	if !onThresholdMenu {
		t.Errorf("threshold %d is off the menu %v", cfg.Threshold, thresholdMenu())
	}
	tuning, err := cfg.Tuning()
	if err != nil {
		t.Fatalf("Tuning(): %v", err)
	}
	if err := tuning.Validate(); err != nil {
		t.Fatalf("searched tuning invalid: %v", err)
	}
}

func TestConfigTuningRejectsForeignKernelAndBadEntries(t *testing.T) {
	c := &Config{Kernel: "naive"}
	if _, err := c.Tuning(); err == nil {
		t.Fatal("Tuning() accepted a naive kernel config")
	}
	c = &Config{Kernel: "blocked", Entries: []Entry{
		{Op: OpGEMM, ShapeClass: tensor.ShapeSquare, BlockM: 63, BlockN: 64},
	}}
	if _, err := c.Tuning(); err == nil {
		t.Fatal("Tuning() accepted a recognized entry with invalid blocks")
	}
	// 0 is an absent threshold (the builtin applies); a negative one is
	// corrupt, not absent.
	c = &Config{Kernel: "blocked", Threshold: -5}
	if _, err := c.Tuning(); err == nil || !strings.Contains(err.Error(), "parallel_threshold") {
		t.Fatalf("Tuning() of a negative threshold = %v, want an error naming parallel_threshold", err)
	}
	c = &Config{Kernel: "blocked"}
	if got, err := c.Tuning(); err != nil || got.Threshold != tensor.DefaultTuning().Threshold {
		t.Fatalf("Tuning() of an absent threshold = %d, %v; want the builtin", got.Threshold, err)
	}
}

// TestConfigTuningSkipsUnknownClasses pins forward compatibility: a
// config written by a newer suite with extra (op, shape_class) pairs
// still applies, with unknown entries ignored and known ones honored.
func TestConfigTuningSkipsUnknownClasses(t *testing.T) {
	c := &Config{Kernel: "blocked", Threshold: 1 << 16, Entries: []Entry{
		{Op: "fft", ShapeClass: "radix2", BlockM: 0, BlockN: 0},
		{Op: OpGEMM, ShapeClass: "banded", BlockM: 1, BlockN: 1},
		{Op: OpGEMM, ShapeClass: tensor.ShapeFat, BlockM: 128, BlockN: 64},
	}}
	tuning, err := c.Tuning()
	if err != nil {
		t.Fatalf("Tuning(): %v", err)
	}
	if tuning.Threshold != 1<<16 {
		t.Errorf("threshold not applied: %d", tuning.Threshold)
	}
	if want := (tensor.TileConfig{BlockM: 128, BlockN: 64}); tuning.Fat != want {
		t.Errorf("fat class = %v, want %v", tuning.Fat, want)
	}
	if tuning.Square != tensor.DefaultTuning().Square {
		t.Errorf("uncovered class drifted from the builtin default: %v", tuning.Square)
	}
}

// envLine builds one tuneconfig JSONL envelope line by hand (the
// results package writes real streams; tune cannot import it).
func envLine(goarch string, gomaxprocs int) string {
	return kernelLine("blocked", goarch, gomaxprocs)
}

// kernelLine is envLine with the config's kernel name spelled out. Its
// entry is in the legacy form that also names a micro-kernel.
func kernelLine(kernel, goarch string, gomaxprocs int) string {
	return fmt.Sprintf(`{"v":1,"kind":"tuneconfig","run":{"suite_sha":"t"},"data":{"kernel":%q,"goarch":%q,"gomaxprocs":%d,"parallel_threshold":32768,"entries":[{"op":"gemm","shape_class":"square","mr":2,"nr":8,"k_unroll":2,"block_m":128,"block_n":128,"gflops":5.5}]}}`,
		kernel, goarch, gomaxprocs)
}

// TestLegacyTunedConfigLoads: configs written before the GEBP engine
// had one name say "kernel":"tuned"; such a line yields exactly the
// Tuning the same line says with "blocked".
func TestLegacyTunedConfigLoads(t *testing.T) {
	var got [2]tensor.Tuning
	for i, kernel := range []string{"tuned", "blocked"} {
		cfgs, err := LoadFile(writeStream(t, kernelLine(kernel, "amd64", 4)))
		if err != nil {
			t.Fatal(err)
		}
		if got[i], err = cfgs[0].Tuning(); err != nil {
			t.Fatalf("%s config: %v", kernel, err)
		}
	}
	if got[0] != got[1] || got[0].Threshold != 32768 {
		t.Fatalf(`"tuned" config yields %+v, "blocked" %+v; want the same swept tuning`, got[0], got[1])
	}
}

// TestLegacyMicroKernelEntriesLoad: entries written while the sweep also
// chose a micro-kernel name one the engine no longer has ("mr", "nr",
// "k_unroll"); they load, each GEMM class gets the entry's blocks, and
// the conv2d entry those sweeps also wrote is skipped.
func TestLegacyMicroKernelEntriesLoad(t *testing.T) {
	cfgs, err := LoadFile(writeStream(t, `{"v":1,"kind":"tuneconfig","run":{},"data":{"kernel":"blocked","goarch":"amd64","gomaxprocs":2,"parallel_threshold":65536,"entries":[`+
		`{"op":"gemm","shape_class":"skinny","mr":4,"nr":4,"k_unroll":2,"block_m":32,"block_n":32,"gflops":1.5},`+
		`{"op":"gemm","shape_class":"fat","mr":2,"nr":8,"k_unroll":1,"block_m":128,"block_n":64,"gflops":2.5},`+
		`{"op":"conv2d","shape_class":"conv","mr":2,"nr":8,"k_unroll":1,"block_m":128,"block_n":128,"gflops":2.5}]}}`))
	if err != nil {
		t.Fatal(err)
	}
	got, err := cfgs[0].Tuning()
	if err != nil {
		t.Fatalf("legacy entries: %v", err)
	}
	want := tensor.DefaultTuning()
	want.Threshold = 65536
	want.Skinny = tensor.TileConfig{BlockM: 32, BlockN: 32}
	want.Fat = tensor.TileConfig{BlockM: 128, BlockN: 64}
	if got != want {
		t.Fatalf("legacy entries yield %+v, want %+v", got, want)
	}
}

func writeStream(t *testing.T, lines ...string) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "tune.jsonl")
	if err := os.WriteFile(path, []byte(strings.Join(lines, "\n")+"\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestLoadFileSkipsForeignLinesAndErrorsOnEmpty(t *testing.T) {
	path := writeStream(t,
		`{"v":1,"kind":"session","run":{},"data":{"id":"DC-AI-C1"}}`, // other kind: skipped
		"not json at all",                       // foreign garbage: skipped
		`{"v":7,"kind":"tuneconfig","data":{}}`, // future version: skipped
		envLine("amd64", 4),
		envLine("arm64", 8),
	)
	cfgs, err := LoadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(cfgs) != 2 || cfgs[0].GOARCH != "amd64" || cfgs[1].GOARCH != "arm64" {
		t.Fatalf("loaded %+v, want the amd64 then arm64 configs", cfgs)
	}
	if cfgs[0].Entries[0].TileConfig() != (tensor.TileConfig{BlockM: 128, BlockN: 128}) {
		t.Fatalf("entry decoded wrong: %+v", cfgs[0].Entries[0])
	}

	empty := writeStream(t, `{"v":1,"kind":"session","run":{},"data":{"id":"x"}}`)
	if _, err := LoadFile(empty); err == nil {
		t.Fatal("LoadFile found no tuneconfig yet returned nil error")
	}

	bad := writeStream(t, `{"v":1,"kind":"tuneconfig","run":{},"data":"not an object"}`)
	if _, err := LoadFile(bad); err == nil || !strings.Contains(err.Error(), ":1:") {
		t.Fatalf("malformed payload error should name the line, got %v", err)
	}
}

func TestSelect(t *testing.T) {
	cfgs := []*Config{
		{Kernel: "blocked", GOARCH: "amd64", GOMAXPROCS: 8},
		{Kernel: "blocked", GOARCH: "amd64", GOMAXPROCS: 4},
		{Kernel: "blocked", GOARCH: "arm64", GOMAXPROCS: 8},
		{Kernel: "blocked", GOARCH: "amd64", GOMAXPROCS: 8, Threshold: 99},
	}
	got, err := Select(cfgs, "amd64", 8)
	if err != nil {
		t.Fatal(err)
	}
	if got.Threshold != 99 {
		t.Fatalf("exact match should pick the LAST amd64/8 config, got %+v", got)
	}
	got, err = Select(cfgs, "amd64", 16)
	if err != nil {
		t.Fatal(err)
	}
	if got != cfgs[3] {
		t.Fatalf("no exact gomaxprocs: want last same-arch fallback, got %+v", got)
	}
	if _, err := Select(cfgs, "riscv64", 8); err == nil {
		t.Fatal("Select invented a config for an absent architecture")
	}
}

// TestLoadedConfigRoundTrip persists a hand-built stream, loads +
// selects it, and checks the kernel built from it carries the swept
// parameters — the `tune` → `run -tune-from` contract.
func TestLoadedConfigRoundTrip(t *testing.T) {
	path := writeStream(t, envLine(runtime.GOARCH, runtime.GOMAXPROCS(0)))
	cfgs, err := LoadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	cfg, err := Select(cfgs, runtime.GOARCH, runtime.GOMAXPROCS(0))
	if err != nil {
		t.Fatal(err)
	}
	tuning, err := cfg.Tuning()
	if err != nil {
		t.Fatal(err)
	}
	k, err := tensor.Blocked(tuning)
	if err != nil {
		t.Fatal(err)
	}
	got, _ := tensor.TuningOf(k)
	if got.Threshold != 32768 {
		t.Errorf("threshold not carried: %d", got.Threshold)
	}
	if want := (tensor.TileConfig{BlockM: 128, BlockN: 128}); got.Square != want {
		t.Errorf("square class = %v, want %v", got.Square, want)
	}
}

// FuzzTuneConfigStream feeds arbitrary bytes to the stream decoder
// behind LoadFile, the last file decoder without a fuzz target. It must
// not panic, and every Config it returns must either convert to a
// Tuning that validates or make Config.Tuning say why not: a hostile
// stream can never reach tensor.Blocked as an unchecked tuning, and a
// negative threshold never passes for an absent one.
func FuzzTuneConfigStream(f *testing.F) {
	f.Add([]byte(envLine("amd64", 4) + "\n" + envLine("arm64", 8) + "\n"))
	f.Add([]byte(`{"v":1,"kind":"session","run":{},"data":{"id":"DC-AI-C1"}}` + "\nnot json at all\n" + `{"v":7,"kind":"tuneconfig","data":{}}`))
	f.Add([]byte(`{"v":1,"kind":"tuneconfig","run":{},"data":"not an object"}`))
	f.Add([]byte(`{"v":1,"kind":"tuneconfig","run":{},"data":{"kernel":"tuned","parallel_threshold":-5,"entries":[{"op":"conv2d","shape_class":"conv","mr":-3,"nr":0,"k_unroll":999,"block_m":0}]}}`))
	f.Add([]byte(`{"v":1,"kind":"tuneconfig","run":{},"data":{"kernel":"tuned","entries":[{"op":"gemm","shape_class":"fat","mr":4,"nr":4,"k_unroll":2,"block_m":8,"block_n":12},{"op":"gemm","shape_class":"cube"}]}}`))
	f.Add([]byte(`{"v":1,"kind":"tuneconfig","run":{},"data":{"kernel":"naive"}}`))
	f.Add([]byte(`{"v":1,"kind":"tuneconfig","run":{},"data":{"entries":[`))
	f.Fuzz(func(t *testing.T, data []byte) {
		cfgs, err := decode(bytes.NewReader(data), "fuzz")
		if err != nil {
			if cfgs != nil {
				t.Fatalf("decode returned %d configs beside error %v", len(cfgs), err)
			}
			return
		}
		for i, c := range cfgs {
			tuning, err := c.Tuning()
			if err != nil {
				continue
			}
			if c.Threshold < 0 {
				t.Fatalf("config %d with parallel_threshold %d yielded a tuning", i, c.Threshold)
			}
			if verr := tuning.Validate(); verr != nil {
				t.Fatalf("config %d converted to a tuning that does not validate: %v (%+v)", i, verr, c)
			}
		}
	})
}
