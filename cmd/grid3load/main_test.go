package main

import (
	"math"
	"testing"
	"time"
)

// Per-endpoint rates are scored over the run window, like the totals, so
// they are non-zero and sum to the overall sustained rate.
func TestScoreByEndpointRates(t *testing.T) {
	var samples []sample
	add := func(kind string, n, ok, code int) {
		for i := 0; i < n; i++ {
			samples = append(samples, sample{
				phase: "normal", kind: kind, code: code, ok: i < ok,
				latency: time.Duration(i+1) * time.Millisecond,
			})
		}
	}
	add("submit", 20, 15, 201) // 15 useful of 20
	add("submit", 5, 0, 503)   // shed
	add("status", 10, 10, 200)
	add("rls", 4, 0, 0) // transport errors
	window := 10 * time.Second
	rep := score(samples, len(samples), window, 0)

	want := map[string]struct{ offered, sustained, goodput float64 }{
		"submit": {2.5, 1.5, 0.6},
		"status": {1.0, 1.0, 1.0},
		"rls":    {0.4, 0, 0},
	}
	var sum float64
	for kind, w := range want {
		ph, ok := rep.ByEndpoint[kind]
		if !ok {
			t.Fatalf("no by_endpoint entry for %s", kind)
		}
		if ph.OfferedRPS != w.offered || ph.SustainedRPS != w.sustained || ph.Goodput != w.goodput {
			t.Fatalf("%s: offered %v sustained %v goodput %v, want %+v",
				kind, ph.OfferedRPS, ph.SustainedRPS, ph.Goodput, w)
		}
		sum += ph.SustainedRPS
	}
	if math.Abs(sum-rep.SustainedRPS) > 1e-9 {
		t.Fatalf("per-endpoint sustained sums to %v, overall %v", sum, rep.SustainedRPS)
	}
	if rep.Shed != 5 || rep.Errors != 4 {
		t.Fatalf("shed %d errors %d, want 5 and 4", rep.Shed, rep.Errors)
	}
}
