package gpusim

import (
	"encoding/json"
	"math"
	"runtime"
	"slices"
	"sort"
	"testing"

	"aibench/internal/models"
	"aibench/internal/workload"
)

// census is what a characterization reads off a profile.
type census struct {
	Total    float64
	Metrics  Metrics
	Shares   map[Category]float64
	Hotspots []Hotspot
	Stalls   map[Category]StallBreakdown
}

// listCensus aggregates a launch list the way the profiler did when it
// kept one: each sum over the list in stream order, keyed by maps.
func listCensus(ks []Kernel) census {
	var c census
	for _, k := range ks {
		c.Total += k.Time
	}
	c.Shares = map[Category]float64{}
	times := map[Category]float64{}
	sums := map[Category]*[8]float64{}
	type agg struct {
		time  float64
		calls int
		cat   Category
	}
	byName := map[string]*agg{}
	for _, k := range ks {
		c.Shares[k.Category] += k.Time
		times[k.Category] += k.Time
		acc := sums[k.Category]
		if acc == nil {
			acc = new([8]float64)
			sums[k.Category] = acc
		}
		for i, x := range k.Stalls.Vector() {
			acc[i] += x * k.Time
		}
		a := byName[k.Name]
		if a == nil {
			a = &agg{cat: k.Category}
			byName[k.Name] = a
		}
		a.time += k.Time
		a.calls++
		w := k.Time / c.Total
		c.Metrics.AchievedOccupancy += w * k.Metrics.AchievedOccupancy
		c.Metrics.IPCEfficiency += w * k.Metrics.IPCEfficiency
		c.Metrics.GldEfficiency += w * k.Metrics.GldEfficiency
		c.Metrics.GstEfficiency += w * k.Metrics.GstEfficiency
		c.Metrics.DramUtilization += w * k.Metrics.DramUtilization
	}
	for cat := range c.Shares {
		c.Shares[cat] /= c.Total
	}
	for name, a := range byName {
		c.Hotspots = append(c.Hotspots, Hotspot{Name: name, Category: a.cat, Share: a.time / c.Total, Calls: a.calls})
	}
	sort.Slice(c.Hotspots, func(i, j int) bool {
		if c.Hotspots[i].Share != c.Hotspots[j].Share {
			return c.Hotspots[i].Share > c.Hotspots[j].Share
		}
		return c.Hotspots[i].Name < c.Hotspots[j].Name
	})
	c.Stalls = map[Category]StallBreakdown{}
	for cat, acc := range sums {
		t := times[cat]
		c.Stalls[cat] = StallBreakdown{
			InstFetch: acc[0] / t, ExecDepend: acc[1] / t, MemDepend: acc[2] / t, Texture: acc[3] / t,
			Sync: acc[4] / t, ConstMemDepend: acc[5] / t, PipeBusy: acc[6] / t, MemThrottle: acc[7] / t,
		}
	}
	return c
}

// sweepBatches are the batch sizes the bitwise pins sweep: 1, 4 and
// 32, then every other batch size a benchmark of the roster
// characterizes at. A lowering finds a work it executed before by
// comparing float keys, so each batch the roster uses is pinned.
var sweepBatches = []int{1, 4, 32, 16, 64, 128, 192, 256, 512, 1024, 4096}

// rosterSpecs returns every benchmark's paper-scale spec.
func rosterSpecs() []workload.Model {
	var specs []workload.Model
	for _, e := range models.AllEntries() {
		specs = append(specs, e.Spec())
	}
	return specs
}

// TestRunFoldsLikeTheLaunchList pins the folding profiler to the list
// it replaced: for every benchmark's paper-scale spec, at every batch
// size of sweepBatches on both devices, Run's census encodes to the
// same bytes as the census of the executed launch list. So does a
// model with more distinct works than the work table starts with room
// for, which makes the table grow while it lowers.
func TestRunFoldsLikeTheLaunchList(t *testing.T) {
	wide := workload.Model{Name: "wide"}
	for i := 1; i <= minSlots; i++ {
		wide.Layers = append(wide.Layers, workload.Layer{Kind: workload.Linear, In: 64 + i, Out: 32})
	}
	for _, spec := range append(rosterSpecs(), wide) {
		for _, batch := range sweepBatches {
			for _, dev := range []Device{TitanXP(), TitanRTX()} {
				var ks []Kernel
				Lower(spec, batch, true, dev, func(k *Kernel) { ks = append(ks, *k) })
				p := Run(spec, batch, true, dev)
				got, err := json.Marshal(census{p.TotalTime, p.WeightedMetrics(), p.CategoryShares(), p.Hotspots(), p.CategoryStalls()})
				if err != nil {
					t.Fatal(err)
				}
				want, err := json.Marshal(listCensus(ks))
				if err != nil {
					t.Fatal(err)
				}
				if string(got) != string(want) {
					t.Fatalf("%s batch %d on %s:\n got %s\nwant %s", spec.Name, batch, dev.Name, got, want)
				}
			}
		}
	}
}

// TestLowerExecutesEachWorkOnce pins the work table on the roster: a
// lowering executes as many works as its launches hold distinct
// (category, FLOPs, bytes read, bytes written) keys. That each launch
// carries its own work's results is TestLowerEmitsExecutedKernels'.
func TestLowerExecutesEachWorkOnce(t *testing.T) {
	type key struct {
		ci                   int
		flops, read, written float64
	}
	for _, spec := range rosterSpecs() {
		for _, batch := range sweepBatches {
			for _, dev := range []Device{TitanXP(), TitanRTX()} {
				works := map[key]bool{}
				sc := new(scratch)
				lower(spec, batch, true, dev, sc, func(k *Kernel) {
					works[key{k.ci, k.FLOPs, k.BytesRead, k.BytesWritten}] = true
				})
				if len(sc.works) != len(works) {
					t.Fatalf("%s batch %d on %s: %d executions for %d distinct works", spec.Name, batch, dev.Name, len(sc.works), len(works))
				}
			}
		}
	}
}

// TestWorkTableTellsCollidingWorksApart pins the table's key compare,
// which works that hash to different positions never reach: for each
// part of the key it finds two works that differ only there and share
// a table position, executes both in one lowering, and wants two
// executions, each kernel with its own work's results.
func TestWorkTableTellsCollidingWorksApart(t *testing.T) {
	pos := func(k *Kernel) uint64 {
		return workHash(k.ci, math.Float64bits(k.FLOPs), math.Float64bits(k.BytesRead), math.Float64bits(k.BytesWritten)) & (minSlots - 1)
	}
	work := func(ci int, flops, read, written float64) Kernel {
		return Kernel{Category: categories[ci], ci: ci, FLOPs: flops, BytesRead: read, BytesWritten: written}
	}
	// Each part varies over n values from a base key, which the search
	// moves on until two of them share a position.
	parts := []struct {
		name string
		n    int
		vary func(base, i int) Kernel
	}{
		{"category", numCategories, func(base, i int) Kernel { return work(i, float64(base), 4e6, 2e6) }},
		{"FLOPs", minSlots, func(base, i int) Kernel { return work(iGEMM, float64(base*minSlots+i)*1e6, 4e6, 2e6) }},
		{"bytes read", minSlots, func(base, i int) Kernel { return work(iGEMM, 1e9, float64(base*minSlots+i)*1e3, 2e6) }},
		{"bytes written", minSlots, func(base, i int) Kernel { return work(iGEMM, 1e9, 4e6, float64(base*minSlots+i)*1e3) }},
	}
	for _, part := range parts {
		var pair []Kernel
		for base := 0; pair == nil && base < 1000; base++ {
			seen := map[uint64]Kernel{}
			for i := 0; i < part.n; i++ {
				k := part.vary(base, i)
				if prev, ok := seen[pos(&k)]; ok {
					pair = []Kernel{prev, k}
					break
				}
				seen[pos(&k)] = k
			}
		}
		if pair == nil {
			t.Fatalf("no two works differing only in %s share a table position", part.name)
		}
		dev := TitanXP()
		lo := lowering{dev: dev, sc: &scratch{slots: make([]int32, minSlots)}}
		for i := range pair {
			lo.execute(&pair[i])
		}
		if n := len(lo.sc.works); n != 2 {
			t.Fatalf("two works differing only in %s at one table position: %d executions, want 2", part.name, n)
		}
		for _, k := range pair {
			fresh := work(k.ci, k.FLOPs, k.BytesRead, k.BytesWritten)
			Execute(&fresh, dev)
			if k.Time != fresh.Time || k.Metrics != fresh.Metrics || k.Stalls != fresh.Stalls {
				t.Fatalf("two works differing only in %s: one carries the other's results", part.name)
			}
		}
	}
}

// TestFuncNamesAreDistinct pins the flat function table the census is
// indexed by: one position per name, so counting by position counts
// by name.
func TestFuncNamesAreDistinct(t *testing.T) {
	seen := map[string]bool{}
	for i, n := range funcNames {
		if n == "" || seen[n] {
			t.Fatalf("function %d is %q: empty or named twice", i, n)
		}
		seen[n] = true
	}
	for ci, row := range kernelNames {
		for _, n := range row {
			if got := funcOf(ci, n); funcNames[got] != n {
				t.Fatalf("funcOf(%s, %s) = %d, which names %s", categories[ci], n, got, funcNames[got])
			}
		}
	}
}

// TestRunAllocs pins what a profile costs the heap: the Profile and its
// census slice, however many kernels the model launches. DC-AI-C6's
// spec launches thousands of kernels and DC-AI-C16's a few dozen; both
// must read the same count. The count is the process's MemStats.Mallocs
// delta around one warmed Run, and the runtime's own background work (a
// GC mark worker, the scavenger's timer) lands in such a window now and
// then, more often the longer the Run and the busier the host; so each
// spec reads the smallest count of several windows, as the
// warmed-epoch gates take theirs.
func TestRunAllocs(t *testing.T) {
	specs := map[string]workload.Model{}
	for _, e := range models.AllEntries() {
		if e.ID == "DC-AI-C6" || e.ID == "DC-AI-C16" {
			specs[e.ID] = e.Spec()
		}
	}
	mallocs := func(m workload.Model) uint64 {
		Run(m, 32, true, TitanXP())
		least := uint64(math.MaxUint64)
		for range 5 {
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			Run(m, 32, true, TitanXP())
			runtime.ReadMemStats(&after)
			least = min(least, after.Mallocs-before.Mallocs)
		}
		return least
	}
	launches := func(m workload.Model) (n int) {
		Lower(m, 32, true, TitanXP(), func(*Kernel) { n++ })
		return n
	}
	big, small := specs["DC-AI-C6"], specs["DC-AI-C16"]
	if nb, ns := launches(big), launches(small); nb < 1000 || ns > 100 {
		t.Fatalf("DC-AI-C6 launches %d kernels and DC-AI-C16 %d: the pin needs thousands against dozens", nb, ns)
	}
	gb, gs := mallocs(big), mallocs(small)
	if gb != gs || gb > 8 {
		t.Fatalf("Run makes %d mallocs on DC-AI-C6 and %d on DC-AI-C16, want the same count, ≤ 8", gb, gs)
	}
	t.Logf("Run: %d mallocs, whatever the launch count", gb)
}

// TestLowerEmitsExecutedKernels pins what lowering hands emit: every
// kernel of every benchmark's paper-scale spec, at every batch size of
// sweepBatches on both devices, carries the Time, Metrics and Stalls
// that Execute gives a fresh kernel of the same name, category and
// work, bit for bit. A kernel a loop builds once and emits many times
// must therefore stand for the same work at every launch, and a kernel
// whose work the lowering executed before must copy that work's
// results exactly.
func TestLowerEmitsExecutedKernels(t *testing.T) {
	bits := func(k *Kernel) []uint64 {
		out := []uint64{math.Float64bits(k.Time)}
		for _, v := range append(k.Metrics.Vector(), k.Stalls.Vector()...) {
			out = append(out, math.Float64bits(v))
		}
		return out
	}
	for _, e := range models.AllEntries() {
		spec := e.Spec()
		for _, batch := range sweepBatches {
			for _, dev := range []Device{TitanXP(), TitanRTX()} {
				n := 0
				Lower(spec, batch, true, dev, func(k *Kernel) {
					fresh := Kernel{Name: k.Name, Category: k.Category, ci: k.Category.index(),
						FLOPs: k.FLOPs, BytesRead: k.BytesRead, BytesWritten: k.BytesWritten}
					Execute(&fresh, dev)
					if got, want := bits(k), bits(&fresh); !slices.Equal(got, want) {
						t.Fatalf("%s batch %d on %s, launch %d (%s): executed to %x, a fresh kernel to %x",
							e.ID, batch, dev.Name, n, k.Name, got, want)
					}
					n++
				})
				if n == 0 {
					t.Fatalf("%s batch %d lowered no kernels", e.ID, batch)
				}
			}
		}
	}
}

// BenchmarkRun characterizes the roster: every benchmark's paper-scale
// spec at batch 32 on both devices, one Run each per iteration.
func BenchmarkRun(b *testing.B) {
	specs := rosterSpecs()
	devs := []Device{TitanXP(), TitanRTX()}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, spec := range specs {
			for _, dev := range devs {
				Run(spec, 32, true, dev)
			}
		}
	}
}
