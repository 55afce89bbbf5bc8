package main

import (
	"fmt"
	"math"
	"slices"
	"sort"
)

// tailMin is how many samples must lie beyond a percentile before the
// benchmark reports it.
const tailMin = 10

// Dist summarizes raw samples (one per request, trial or decode call).
// Percentiles are read off the sorted samples, never off histogram
// bucket bounds.
type Dist struct {
	sorted []float64
}

// NewDist takes ownership of samples and sorts them.
func NewDist(samples []float64) Dist {
	sort.Float64s(samples)
	return Dist{sorted: samples}
}

// N is the sample count.
func (d Dist) N() int { return len(d.sorted) }

// Quantile returns the nearest-rank q-quantile (0 < q <= 1): the
// smallest sample with at least a q share of samples at or below it.
// It returns 0 for an empty distribution.
func (d Dist) Quantile(q float64) float64 {
	n := len(d.sorted)
	if n == 0 {
		return 0
	}
	i := int(math.Ceil(q*float64(n))) - 1
	if i < 0 {
		i = 0
	}
	if i >= n {
		i = n - 1
	}
	return d.sorted[i]
}

// Mean is the arithmetic mean, 0 when empty.
func (d Dist) Mean() float64 {
	if len(d.sorted) == 0 {
		return 0
	}
	s := 0.0
	for _, v := range d.sorted {
		s += v
	}
	return s / float64(len(d.sorted))
}

// TopPct is the highest percentile that still has tailMin samples
// strictly beyond it, 0 when there are too few samples for any.
func (d Dist) TopPct() float64 {
	n := len(d.sorted)
	if n <= tailMin {
		return 0
	}
	return 100 * float64(n-tailMin) / float64(n)
}

// Supports reports whether percentile pct (e.g. 99) has tailMin samples
// beyond it.
func (d Dist) Supports(pct float64) bool { return d.N() > tailMin && d.TopPct() >= pct }

// Describe renders the count, median, p99 and top supported percentile
// for the report, marking an unsupported p99.
func (d Dist) Describe(scale float64, unit string) string {
	p99 := fmt.Sprintf("p99=%.4g%s", d.Quantile(0.99)*scale, unit)
	if !d.Supports(99) {
		p99 += " (fewer than 10 samples beyond)"
	}
	return fmt.Sprintf("n=%d p50=%.4g%s %s top=p%.4g", d.N(), d.Quantile(0.5)*scale, unit, p99, d.TopPct())
}

// median returns the median of xs (mean of the middle pair for even
// lengths) without reordering the caller's slice.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	m := len(s) / 2
	if len(s)%2 == 1 {
		return s[m]
	}
	return (s[m-1] + s[m]) / 2
}

// latWindows is how many consecutive, equal-count windows a time-ordered
// latency series is cut into for the reported percentiles.
const latWindows = 16

// quietestWindow returns, for each q, the smallest q-quantile among
// latWindows consecutive windows of the series: the percentile of the
// window the host disturbed least. The benchmark shares a 2-vCPU host
// with other tenants whose load stalls it for milliseconds at a time,
// sometimes for minutes on end; such stalls only ever add latency, so
// like the minimum of repeated timings the quietest window tracks the
// program rather than the neighbours, while a change that slows the
// program slows every window. Every window must hold tailMin samples
// beyond its highest quantile.
func quietestWindow(series []float64, qs ...float64) ([]float64, error) {
	n := len(series) / latWindows
	out := make([]float64, len(qs))
	for w := 0; w < latWindows; w++ {
		d := NewDist(slices.Clone(series[w*n : (w+1)*n]))
		for i, q := range qs {
			if !d.Supports(100 * q) {
				return nil, fmt.Errorf("%d latency samples: a window of %d has no supported p%g", len(series), n, 100*q)
			}
			if v := d.Quantile(q); w == 0 || v < out[i] {
				out[i] = v
			}
		}
	}
	return out, nil
}
