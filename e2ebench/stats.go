package main

import (
	"fmt"
	"math"
	"sort"
	"time"
)

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

func sum(xs []float64) float64 {
	var s float64
	for _, x := range xs {
		s += x
	}
	return s
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	return sum(xs) / float64(len(xs))
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// quantile is the nearest-rank q-quantile; 0 for no samples.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	rank := int(math.Ceil(q*float64(len(s)))) - 1
	return s[max(0, min(rank, len(s)-1))]
}

// tail is the q-quantile under the tail rule: at least ten samples must
// lie beyond the reported percentile, or the run is too short to report
// it and that is an error.
func tail(xs []float64, q float64, what string) (float64, error) {
	if beyond := float64(len(xs)) * (1 - q); beyond < 10 {
		return 0, fmt.Errorf("%s: %d samples leave %.1f beyond p%.0f, need 10", what, len(xs), beyond, q*100)
	}
	return quantile(xs, q), nil
}
