// Package dse implements the design-space exploration of §7.1: it sweeps
// every Table 2 configuration through the performance and area models,
// extracts per-bandwidth and global Pareto frontiers (Fig. 9), and selects
// the iso-CPU-area design points used in Figs. 10/14.
package dse

import (
	"runtime"
	"sort"
	"sync"

	"zkspeed/internal/sim"
)

// Point is one evaluated design.
type Point struct {
	Config       sim.Config
	RuntimeMS    float64
	AreaMM2      float64 // full chip including PHY
	AreaNoPHYMM2 float64 // §7.3 iso-CPU comparisons exclude the PHY
}

// Evaluate runs the models for one design point at problem size 2^mu.
func Evaluate(cfg sim.Config, mu int) Point {
	res := sim.Simulate(cfg, mu)
	area := sim.Area(cfg, mu)
	return Point{
		Config:       cfg,
		RuntimeMS:    res.Milliseconds(),
		AreaMM2:      area.Total(),
		AreaNoPHYMM2: area.Total() - area.HBMPHY,
	}
}

// Explore evaluates every Table 2 configuration at problem size 2^mu,
// in parallel.
func Explore(mu int) []Point {
	configs := sim.DesignSpace()
	out := make([]Point, len(configs))
	nw := runtime.GOMAXPROCS(0)
	var wg sync.WaitGroup
	chunk := (len(configs) + nw - 1) / nw
	for w := 0; w < nw; w++ {
		lo, hi := w*chunk, (w+1)*chunk
		if hi > len(configs) {
			hi = len(configs)
		}
		if lo >= hi {
			continue
		}
		wg.Add(1)
		go func(lo, hi int) {
			defer wg.Done()
			for i := lo; i < hi; i++ {
				out[i] = Evaluate(configs[i], mu)
			}
		}(lo, hi)
	}
	wg.Wait()
	return out
}

// ParetoFront returns the area/runtime-Pareto-optimal subset, sorted by
// ascending area: a point survives if nothing is both smaller and faster.
func ParetoFront(points []Point) []Point {
	sorted := append([]Point(nil), points...)
	sort.Slice(sorted, func(i, j int) bool {
		if sorted[i].AreaMM2 != sorted[j].AreaMM2 {
			return sorted[i].AreaMM2 < sorted[j].AreaMM2
		}
		return sorted[i].RuntimeMS < sorted[j].RuntimeMS
	})
	var front []Point
	best := -1.0
	for _, p := range sorted {
		if best < 0 || p.RuntimeMS < best {
			front = append(front, p)
			best = p.RuntimeMS
		}
	}
	return front
}

// ByBandwidth groups points by their bandwidth knob.
func ByBandwidth(points []Point) map[float64][]Point {
	out := make(map[float64][]Point)
	for _, p := range points {
		out[p.Config.BandwidthGBps] = append(out[p.Config.BandwidthGBps], p)
	}
	return out
}

// FastestUnderArea returns the lowest-runtime point whose area (optionally
// excluding the PHY, as in the §7.3 iso-CPU comparison) does not exceed
// the budget. ok is false if nothing fits.
func FastestUnderArea(points []Point, areaBudget float64, excludePHY bool) (Point, bool) {
	var best Point
	found := false
	for _, p := range points {
		a := p.AreaMM2
		if excludePHY {
			a = p.AreaNoPHYMM2
		}
		if a > areaBudget {
			continue
		}
		if !found || p.RuntimeMS < best.RuntimeMS {
			best = p
			found = true
		}
	}
	return best, found
}

// FastestAtBandwidth returns the best-performing point for one bandwidth
// (the A-D picks of Fig. 10).
func FastestAtBandwidth(points []Point, bw float64) (Point, bool) {
	var best Point
	found := false
	for _, p := range points {
		if p.Config.BandwidthGBps != bw {
			continue
		}
		if !found || p.RuntimeMS < best.RuntimeMS ||
			(p.RuntimeMS == best.RuntimeMS && p.AreaMM2 < best.AreaMM2) {
			best = p
			found = true
		}
	}
	return best, found
}
