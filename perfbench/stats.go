package main

import (
	"math"
	"sort"
)

// tailBeyond is the number of samples the tail percentile must leave
// above it: the reported tail is the highest percentile that still has
// at least this many samples beyond it, so it is never a single
// outlier.
const tailBeyond = 10

// median returns the median of xs (the mean of the two middle values
// for an even count), or NaN for an empty slice. xs is not modified.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := sorted(xs)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// tail returns the highest sample that has at least tailBeyond samples
// above it, together with its percentile rank (the share of samples at
// or below it, in percent). ok is false when there are too few samples
// for any such percentile to exist.
func tail(xs []float64) (v, pct float64, ok bool) {
	n := len(xs)
	if n <= tailBeyond {
		return math.NaN(), math.NaN(), false
	}
	s := sorted(xs)
	i := n - 1 - tailBeyond
	return s[i], 100 * float64(i+1) / float64(n), true
}

// steadyRate is the steady-state throughput: the work of one call
// divided by the call's wall time net of set-up. Work moved into
// set-up therefore shows as a worse set-up time, not a better rate.
// It is NaN when the net time is not positive.
func steadyRate(work, callS, setupS float64) float64 {
	net := callS - setupS
	if net <= 0 {
		return math.NaN()
	}
	return work / net
}

// scalingEff is the parallel efficiency of the main calls: the
// single-worker call time over workers times the multi-worker call
// time (1 = perfect scaling).
func scalingEff(oneWorkerS, callS float64, workers int) float64 {
	return oneWorkerS / (float64(workers) * callS)
}

func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}
