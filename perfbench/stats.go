package main

import (
	"fmt"
	"math"
	"sort"
)

// Pct is a percentile together with the number of samples it was taken
// from, so no figure is ever printed without its base.
type Pct struct {
	Value float64
	N     int
}

func (p Pct) String() string { return fmt.Sprintf("%.4f (n=%d)", p.Value, p.N) }

// quantile returns the q-quantile of vals by linear interpolation between
// closest ranks (the same rule as Python's statistics.quantiles with
// method="inclusive"). It returns NaN for an empty slice.
func quantile(vals []float64, q float64) float64 {
	if len(vals) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), vals...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

// pct is quantile with its sample count attached.
func pct(vals []float64, q float64) Pct { return Pct{Value: quantile(vals, q), N: len(vals)} }

func median(vals []float64) float64 { return quantile(vals, 0.5) }

func sum(vals []float64) float64 {
	t := 0.0
	for _, v := range vals {
		t += v
	}
	return t
}
