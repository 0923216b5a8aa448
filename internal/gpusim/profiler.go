package gpusim

import (
	"cmp"
	"slices"
	"strings"

	"aibench/internal/workload"
)

// Profile is the nvprof-like record of one simulated training
// iteration. Run folds each kernel into it as the kernel is lowered —
// the per-category time and stall sums and the per-function census —
// and keeps no list of kernels, so a Run costs the heap the profile and
// its census slice, whatever the model launches.
type Profile struct {
	Device    Device
	TotalTime float64 // seconds per iteration

	metrics  Metrics                       // time-weighted means
	launches [numCategories]int            // kernels per category
	catTime  [numCategories]float64        // seconds per category
	stalls   [numCategories]StallBreakdown // Σ stall fraction × seconds
	funcs    []funcTime                    // one per distinct name, first-seen order
	funcAt   [maxFuncs]uint8               // 1 + a function's index in funcs, by its position
}

// funcTime is one function's running census.
type funcTime struct {
	name  string
	cat   Category
	time  float64
	calls int
}

// Run lowers the model once, executing each distinct work on the device
// once, and returns the aggregated profile. Every sum adds its kernels
// per launch, in stream order; a kernel's category position indexes the
// per-category sums. The weighted metrics need the total time first, so
// as it folds a launch Run also notes the index of its work in the
// lowering's table (four bytes a launch, in borrowed scratch); it then
// walks that list in stream order and folds each launch's metrics at
// weight Time/TotalTime.
func Run(m workload.Model, batch int, training bool, dev Device) *Profile {
	p := &Profile{Device: dev, funcs: make([]funcTime, 0, maxFuncs)}
	sc := scratches.Get()
	lower(m, batch, training, dev, sc, func(k *Kernel) {
		p.TotalTime += k.Time
		p.launches[k.ci]++
		p.catTime[k.ci] += k.Time
		s := &p.stalls[k.ci]
		s.InstFetch += k.Stalls.InstFetch * k.Time
		s.ExecDepend += k.Stalls.ExecDepend * k.Time
		s.MemDepend += k.Stalls.MemDepend * k.Time
		s.Texture += k.Stalls.Texture * k.Time
		s.Sync += k.Stalls.Sync * k.Time
		s.ConstMemDepend += k.Stalls.ConstMemDepend * k.Time
		s.PipeBusy += k.Stalls.PipeBusy * k.Time
		s.MemThrottle += k.Stalls.MemThrottle * k.Time
		p.census(k)
		sc.order = append(sc.order, k.wi)
	})
	if p.TotalTime != 0 {
		for _, wi := range sc.order {
			wk := &sc.works[wi]
			w := wk.time / p.TotalTime
			p.metrics.AchievedOccupancy += w * wk.metrics.AchievedOccupancy
			p.metrics.IPCEfficiency += w * wk.metrics.IPCEfficiency
			p.metrics.GldEfficiency += w * wk.metrics.GldEfficiency
			p.metrics.GstEfficiency += w * wk.metrics.GstEfficiency
			p.metrics.DramUtilization += w * wk.metrics.DramUtilization
		}
	}
	scratches.Put(sc)
	return p
}

// census adds k to its function's entry, found by the position of k's
// name in funcNames.
func (p *Profile) census(k *Kernel) {
	if j := p.funcAt[k.fn]; j != 0 {
		f := &p.funcs[j-1]
		f.time += k.Time
		f.calls++
		return
	}
	p.funcs = append(p.funcs, funcTime{name: k.Name, cat: k.Category, time: k.Time, calls: 1})
	p.funcAt[k.fn] = uint8(len(p.funcs))
}

// CategoryShares returns each kernel category's fraction of total
// runtime — one bar of Fig 5. It holds exactly the categories that
// launched.
func (p *Profile) CategoryShares() map[Category]float64 {
	shares := make(map[Category]float64)
	for ci, c := range categories {
		if p.launches[ci] == 0 {
			continue
		}
		shares[c] = p.catTime[ci]
		if p.TotalTime > 0 {
			shares[c] /= p.TotalTime
		}
	}
	return shares
}

// WeightedMetrics returns the time-weighted mean of the five
// micro-architectural metrics — one radar of Fig 3.
func (p *Profile) WeightedMetrics() Metrics {
	return p.metrics
}

// Hotspot is one function's share of total runtime.
type Hotspot struct {
	Name     string   `json:"name"`
	Category Category `json:"category"`
	Share    float64  `json:"share"` // fraction of total runtime
	Calls    int      `json:"calls"`
}

// Hotspots aggregates kernels by function name, sorted by descending
// share — the census behind Fig 6 and Table 7.
func (p *Profile) Hotspots() []Hotspot {
	out := make([]Hotspot, 0, len(p.funcs))
	for _, f := range p.funcs {
		share := 0.0
		if p.TotalTime > 0 {
			share = f.time / p.TotalTime
		}
		out = append(out, Hotspot{Name: f.name, Category: f.cat, Share: share, Calls: f.calls})
	}
	slices.SortFunc(out, func(a, b Hotspot) int {
		if c := cmp.Compare(b.Share, a.Share); c != 0 {
			return c
		}
		return strings.Compare(a.Name, b.Name)
	})
	return out
}

// CategoryStalls returns the time-weighted stall breakdown per kernel
// category — the bars of Fig 7. It holds the categories that launched
// and took time.
func (p *Profile) CategoryStalls() map[Category]StallBreakdown {
	out := make(map[Category]StallBreakdown)
	for ci, c := range categories {
		t := p.catTime[ci]
		if p.launches[ci] == 0 || t == 0 {
			continue
		}
		s := p.stalls[ci]
		out[c] = StallBreakdown{
			InstFetch:      s.InstFetch / t,
			ExecDepend:     s.ExecDepend / t,
			MemDepend:      s.MemDepend / t,
			Texture:        s.Texture / t,
			Sync:           s.Sync / t,
			ConstMemDepend: s.ConstMemDepend / t,
			PipeBusy:       s.PipeBusy / t,
			MemThrottle:    s.MemThrottle / t,
		}
	}
	return out
}

// IterationTime is the simulated wall-clock seconds for one training
// iteration of the given batch.
func IterationTime(m workload.Model, batch int, dev Device) float64 {
	total := 0.0
	Lower(m, batch, true, dev, func(k *Kernel) { total += k.Time })
	return total
}

// EpochTime is the simulated wall-clock seconds for one pass over a
// dataset of the given size.
func EpochTime(m workload.Model, datasetSize, batch int, dev Device) float64 {
	iters := (datasetSize + batch - 1) / batch
	return IterationTime(m, batch, dev) * float64(iters)
}
