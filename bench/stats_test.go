package main

import (
	"testing"
	"time"
)

// TestTailPercentile pins the rule: report the highest of p99, p90 and p50
// that has at least ten samples beyond it.
func TestTailPercentile(t *testing.T) {
	for _, c := range []struct {
		n, pm int
		ok    bool
	}{
		{20000, 990, true},
		{1000, 990, true},
		{999, 900, true},
		{100, 900, true},
		{99, 500, true},
		{24, 500, true},
		{20, 500, true},
		{19, 500, false},
		{0, 500, false},
	} {
		pm, ok := tailPercentile(c.n)
		if pm != c.pm || ok != c.ok {
			t.Errorf("tailPercentile(%d) = %d, %v; want %d, %v", c.n, pm, ok, c.pm, c.ok)
		}
		if ok && c.n-rank(c.n, pm) < minBeyond {
			t.Errorf("n=%d: only %d samples beyond p%d", c.n, c.n-rank(c.n, pm), pm/10)
		}
	}
}

func TestSummarizeReportsRuleAndCount(t *testing.T) {
	var s []time.Duration
	for i := 1000; i >= 1; i-- { // unsorted input
		s = append(s, time.Duration(i)*time.Millisecond)
	}
	l := summarize(s)
	if l.N != 1000 || l.TailPM != 990 || l.P50 != 500*time.Millisecond || l.Tail != 990*time.Millisecond {
		t.Fatalf("summarize(1..1000 ms) = %+v", l)
	}
	l = summarize(s[:150]) // 851..1000 ms: p90 has 15 beyond it, p99 only 2
	if l.N != 150 || l.TailPM != 900 || l.Tail != 985*time.Millisecond {
		t.Fatalf("summarize(150 samples) = %+v", l)
	}
	if s[0] != 1000*time.Millisecond {
		t.Fatal("summarize reordered its input")
	}
}

// TestQuartiles matches Python's statistics.quantiles(v, n=4), the rule the
// repeat summaries are judged by.
func TestQuartiles(t *testing.T) {
	for _, c := range []struct {
		v          []float64
		q1, q2, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 5.5, 8.25},
		{[]float64{5, 1, 3}, 1, 3, 5},
		{[]float64{4, 1}, 0.25, 2.5, 4.75},
		{[]float64{7}, 7, 7, 7},
	} {
		q1, q2, q3 := quartiles(c.v)
		if !near(q1, c.q1) || !near(q2, c.q2) || !near(q3, c.q3) {
			t.Errorf("quartiles(%v) = %v %v %v, want %v %v %v", c.v, q1, q2, q3, c.q1, c.q2, c.q3)
		}
	}
	if m := median([]float64{4, 1, 3, 2}); m != 2.5 {
		t.Errorf("median = %v", m)
	}
}
