package main

import (
	"sort"
	"time"
)

// minBeyond is how many samples must lie above a reported percentile: a
// tail value resting on fewer is one or two outliers, not a percentile.
const minBeyond = 10

// tailPercentiles is the ladder the tail rule picks from, in per-mille and
// highest first. p99 is the ceiling even when more samples would allow a
// higher percentile, so the reported tail means the same thing from run to
// run.
var tailPercentiles = []int{990, 900, 500}

// tailPercentile returns the highest percentile on the ladder (in per-mille)
// that has at least minBeyond of n samples beyond it, and false when even
// the median does not.
func tailPercentile(n int) (int, bool) {
	for _, pm := range tailPercentiles {
		if n-rank(n, pm) >= minBeyond {
			return pm, true
		}
	}
	return 500, false
}

// rank is the 1-based nearest-rank position of per-mille percentile pm among
// n samples; integer arithmetic keeps 100 samples' p90 at rank 90 exactly.
func rank(n, pm int) int {
	r := (n*pm + 999) / 1000
	if r < 1 {
		r = 1
	}
	return r
}

// latency summarizes one set of timings: the median, the tail the rule
// allows, and which percentile that tail is.
type latency struct {
	N      int
	P50    time.Duration
	Tail   time.Duration
	TailPM int // per-mille; 990 is p99
}

func summarize(samples []time.Duration) latency {
	if len(samples) == 0 {
		return latency{}
	}
	s := append([]time.Duration(nil), samples...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	pm, _ := tailPercentile(len(s))
	return latency{
		N:      len(s),
		P50:    s[rank(len(s), 500)-1],
		Tail:   s[rank(len(s), pm)-1],
		TailPM: pm,
	}
}

// floatAt returns the per-mille percentile pm of v (nearest rank).
func floatAt(v []float64, pm int) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	return s[rank(len(s), pm)-1]
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// median returns the middle value (the mean of the two middle values for an
// even count).
func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func durMedian(v []time.Duration) float64 {
	f := make([]float64, len(v))
	for i, d := range v {
		f[i] = d.Seconds()
	}
	return median(f)
}

// quartiles returns the three cut points that split v into four groups by
// the "exclusive" method of Python's statistics.quantiles(v, n=4), the rule
// the repeat summaries are judged by. A single value is its own quartiles.
func quartiles(v []float64) (q1, q2, q3 float64) {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	n := len(s)
	switch n {
	case 0:
		return 0, 0, 0
	case 1:
		return s[0], s[0], s[0]
	}
	cut := func(i int) float64 {
		m := n + 1
		j := min(max(i*m/4, 1), n-1)
		delta := float64(i*m - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return cut(1), cut(2), cut(3)
}
