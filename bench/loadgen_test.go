package main

import (
	"math"
	"math/rand"
	"testing"
	"time"
)

// fakeClock advances only when the pacer sleeps or an emit stalls it, and
// oversleeps by a set amount on chosen sleeps.
type fakeClock struct {
	t         time.Duration
	sleeps    int
	overshoot map[int]time.Duration
}

func (c *fakeClock) now() time.Duration { return c.t }

func (c *fakeClock) sleep(d time.Duration) {
	c.t += d + c.overshoot[c.sleeps]
	c.sleeps++
}

// TestPaceLateness checks the open-loop accounting: a late wake-up makes
// every request that fell due meanwhile late by exactly its own delay, the
// pacer then sends them without sleeping, and the next request is back on
// its absolute schedule.
func TestPaceLateness(t *testing.T) {
	ms := time.Millisecond
	due := []time.Duration{10 * ms, 20 * ms, 21 * ms, 22 * ms, 40 * ms, 41 * ms}
	c := &fakeClock{overshoot: map[int]time.Duration{1: 5 * ms}}
	var late []time.Duration
	var at []time.Duration
	pace(c, due, func(i int, l time.Duration) {
		late = append(late, l)
		at = append(at, c.now())
		if i == 4 {
			c.t += 3 * ms // the emit itself stalled the pacer
		}
	})
	want := []time.Duration{0, 5 * ms, 4 * ms, 3 * ms, 0, 2 * ms}
	for i := range due {
		if late[i] != want[i] {
			t.Errorf("request %d (due %v, sent %v): late %v, want %v", i, due[i], at[i], late[i], want[i])
		}
		if at[i]-due[i] != late[i] {
			t.Errorf("request %d: late %v is not sent-due %v", i, late[i], at[i]-due[i])
		}
	}
	if c.sleeps != 3 {
		t.Errorf("pacer slept %d times, want 3 (no sleep while behind)", c.sleeps)
	}
}

// TestPhaseScore checks that a failed or unsent request counts as missing
// every latency limit and against goodput.
func TestPhaseScore(t *testing.T) {
	p := phase{window: time.Second}
	for i := range 100 {
		p.calls = append(p.calls, call{ok: i < 95, lat: time.Duration(i+1) * time.Millisecond})
		p.late = append(p.late, time.Duration(i)*time.Microsecond)
	}
	lat, good, late := p.score()
	if good != 0.95 {
		t.Errorf("goodput = %v, want 0.95", good)
	}
	if lat.TailPM != 900 || lat.Tail != 90*time.Millisecond || lat.P50 != 50*time.Millisecond {
		t.Errorf("latency = %+v", lat)
	}
	p.calls[0].ok = false
	for i := 80; i < 95; i++ {
		p.calls[i].ok = false
	}
	if lat, good, _ = p.score(); lat.Tail != time.Duration(math.MaxInt64) || good != 0.79 {
		t.Errorf("with 21 failures: tail %v goodput %v, want unbounded and 0.79", lat.Tail, good)
	}
	if late.Tail != 89*time.Microsecond {
		t.Errorf("lateness tail = %v", late.Tail)
	}
}

func TestPlansAreSeededAndFollowTheMix(t *testing.T) {
	a := planRequests(rand.New(rand.NewSource(7)), 20000)
	b := planRequests(rand.New(rand.NewSource(7)), 20000)
	counts := make([]int, len(endpointKinds))
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("request %d differs between plans of one seed", i)
		}
		counts[a[i].kind]++
	}
	prev := 0.0
	for k, cum := range mixCum {
		share := float64(counts[k]) / float64(len(a))
		if math.Abs(share-(cum-prev)) > 0.015 {
			t.Errorf("%s share %.3f, want %.3f", endpointKinds[k], share, cum-prev)
		}
		prev = cum
	}
	due := poissonSchedule(rand.New(rand.NewSource(7)), 1000, time.Second)
	if n := len(due); n < 900 || n > 1100 || due[n-1] >= time.Second {
		t.Errorf("1000/s for 1s gave %d arrivals, last at %v", n, due[n-1])
	}
}

func TestBisect(t *testing.T) {
	var probed []float64
	got := bisect(100, 3200, 6, func(r float64) bool {
		probed = append(probed, r)
		return r <= 1000
	})
	if got > 1000 || got < 1000-3100.0/64 || len(probed) != 6 {
		t.Errorf("bisect = %v after probes %v", got, probed)
	}
}
