package main

import (
	"math"
	"slices"
	"sort"
)

func sortedCopy(v []float64) []float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	return s
}

// percentile is the nearest-rank q-quantile (0 < q <= 1) of v; 0 for an
// empty sample, so a metric whose workload took no sample reads as 0.
func percentile(v []float64, q float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := sortedCopy(v)
	i := int(math.Ceil(q*float64(len(s)))) - 1
	if i < 0 {
		i = 0
	}
	return s[i]
}

func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := sortedCopy(v)
	if n := len(s); n%2 == 0 {
		return (s[n/2-1] + s[n/2]) / 2
	}
	return s[len(s)/2]
}

// lowest and highest pick a run's best cycle. Cycles of one run do identical
// work, and what interferes on this host — other tenants of the machine on
// the shared caches and memory — only ever slows a cycle down, in stretches of
// seconds to minutes. The best cycle is the least disturbed one, and it
// repeats from run to run where the median cycle does not: over two minutes
// of back-to-back 0.3 s ingest cycles, in consecutive groups of eight, the
// groups' medians spread 0.22 (IQR ÷ median) and their maxima 0.09 (see
// README.md). What the best cycle cannot show, a change
// that slows some cycles and not others, the median cycle does: it is
// reported beside it (bench.inserts_per_s_median). Both read 0 for an empty
// sample.
func lowest(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	return slices.Min(v)
}

func highest(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	return slices.Max(v)
}

// tail is percentile(v, q) when at least ten samples lie beyond it and 0
// otherwise: a tail read off fewer samples is one outlier, not a percentile.
func tail(v []float64, q float64) float64 {
	if float64(len(v))*(1-q) < 10 {
		return 0
	}
	return percentile(v, q)
}

// spread is the distance between the first and third quartile as a share
// of the median, with the quartiles of Python's statistics.quantiles(v,
// n=4) — the acceptance rule the benchmark is held to.
func spread(v []float64) float64 {
	m := len(v)
	med := median(v)
	if m < 2 || med == 0 {
		return 0
	}
	s := sortedCopy(v)
	quartile := func(i int) float64 {
		j := i * (m + 1) / 4
		if j < 1 {
			j = 1
		}
		if j > m-1 {
			j = m - 1
		}
		delta := float64(i*(m+1) - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return math.Abs(quartile(3)-quartile(1)) / math.Abs(med)
}
