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

// TestRunFoldsLikeTheLaunchList pins the folding profiler to the list
// it replaced: for every benchmark's paper-scale spec, at three batch
// sizes on both devices, Run's census encodes to the same bytes as the
// census of the executed launch list.
func TestRunFoldsLikeTheLaunchList(t *testing.T) {
	for _, e := range models.AllEntries() {
		spec := e.Spec()
		for _, batch := range []int{1, 4, 32} {
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
					t.Fatalf("%s batch %d on %s:\n got %s\nwant %s", e.ID, batch, dev.Name, got, want)
				}
			}
		}
	}
}

// TestRunAllocs pins what a profile costs the heap: the Profile and its
// census slice, however many kernels the model launches. DC-AI-C6's
// spec launches thousands of kernels and DC-AI-C16's a few dozen; both
// must read the same count.
func TestRunAllocs(t *testing.T) {
	specs := map[string]workload.Model{}
	for _, e := range models.AllEntries() {
		if e.ID == "DC-AI-C6" || e.ID == "DC-AI-C16" {
			specs[e.ID] = e.Spec()
		}
	}
	mallocs := func(m workload.Model) uint64 {
		Run(m, 32, true, TitanXP())
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		Run(m, 32, true, TitanXP())
		runtime.ReadMemStats(&after)
		return after.Mallocs - before.Mallocs
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
// kernel of every benchmark's paper-scale spec, at three batch sizes
// on both devices, carries the Time, Metrics and Stalls that Execute
// gives a fresh kernel of the same name, category and work, bit for
// bit. A kernel a loop builds once and emits many times must therefore
// stand for the same work at every launch.
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
		for _, batch := range []int{1, 4, 32} {
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
