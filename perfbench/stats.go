package main

import (
	"math"
	"sort"
	"time"
)

// samples is a list of timings in microseconds.
type samples []float64

func (s *samples) add(d time.Duration) { *s = append(*s, micros(d)) }

func micros(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e3 }

// quantile returns the q-quantile (0..1) by linear interpolation between the
// two nearest ranks; 0 for an empty list.
func (s samples) quantile(q float64) float64 {
	if len(s) == 0 {
		return 0
	}
	c := append(samples(nil), s...)
	sort.Float64s(c)
	pos := q * float64(len(c)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return c[lo] + (c[hi]-c[lo])*(pos-float64(lo))
}

func (s samples) median() float64 { return s.quantile(0.5) }

// slicedQuantile splits s, kept in the order it was recorded, into n
// consecutive slices and returns the median of their q-quantiles. With
// fewer than ten samples a slice it returns the plain q-quantile.
func (s samples) slicedQuantile(q float64, n int) float64 {
	if len(s) < 10*n {
		return s.quantile(q)
	}
	per := make(samples, n)
	for i := range per {
		per[i] = s[i*len(s)/n : (i+1)*len(s)/n].quantile(q)
	}
	return per.median()
}

func (s samples) sum() float64 {
	t := 0.0
	for _, v := range s {
		t += v
	}
	return t
}

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}
