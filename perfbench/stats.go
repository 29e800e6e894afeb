package main

import (
	"fmt"
	"math"
	"sort"
)

// tailQuantiles are the percentiles a tail figure may report, highest
// first. A run reports the highest one that leaves at least minBeyond
// samples beyond it, so a tail is never read off a handful of points.
var tailQuantiles = []float64{0.99, 0.90, 0.50}

const minBeyond = 10

// dist is a sample of one timing or size, kept whole so that medians and
// tails are exact order statistics.
type dist struct{ xs []float64 }

func (d *dist) add(x float64) { d.xs = append(d.xs, x) }

func (d *dist) n() int { return len(d.xs) }

// quantile is the nearest-rank q-quantile, 0 for an empty sample.
func (d *dist) quantile(q float64) float64 {
	if len(d.xs) == 0 {
		return 0
	}
	s := append([]float64(nil), d.xs...)
	sort.Float64s(s)
	return nearestRank(s, q)
}

func (d *dist) median() float64 { return d.quantile(0.5) }

func (d *dist) mean() float64 {
	if len(d.xs) == 0 {
		return 0
	}
	var sum float64
	for _, x := range d.xs {
		sum += x
	}
	return sum / float64(len(d.xs))
}

// tail returns the highest of tailQuantiles with at least minBeyond
// samples beyond it, and which quantile that was. With too few samples
// for any of them it falls back to the median.
func (d *dist) tail() (value, q float64) {
	if len(d.xs) == 0 {
		return 0, 0.5
	}
	s := append([]float64(nil), d.xs...)
	sort.Float64s(s)
	return nearestRank(s, tailQuantile(len(s))), tailQuantile(len(s))
}

// tailQuantile picks the quantile tail reports for n samples.
func tailQuantile(n int) float64 {
	for _, q := range tailQuantiles {
		if n-rankOf(n, q) >= minBeyond {
			return q
		}
	}
	return 0.5
}

// rankOf is the 1-based nearest rank of quantile q among n samples.
func rankOf(n int, q float64) int {
	k := int(math.Ceil(q * float64(n)))
	if k < 1 {
		k = 1
	}
	return k
}

func nearestRank(sorted []float64, q float64) float64 {
	return sorted[rankOf(len(sorted), q)-1]
}

// describeTail names a tail quantile and its sample count for the run log.
func describeTail(q float64, n int) string {
	return fmt.Sprintf("p%g of n=%d", q*100, n)
}

// median of a handful of repeated measurements.
func median(xs []float64) float64 {
	d := dist{xs: xs}
	return d.median()
}
