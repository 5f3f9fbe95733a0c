package campaign

import (
	"errors"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"grid3/internal/core"
)

func testCfg() core.ScenarioConfig {
	return core.ScenarioConfig{
		Horizon:  12 * 24 * time.Hour,
		JobScale: 0.01,
	}
}

// TestSweepParallelMatchesSerial is the determinism property: sweeping seeds
// {1..4} across parallel workers must produce byte-identical per-seed
// Table 1 output and equal Milestones to running the same seeds one at a
// time. Each run owns a private engine, so placement on a worker goroutine
// cannot perturb the discrete-event order.
func TestSweepParallelMatchesSerial(t *testing.T) {
	if testing.Short() {
		t.Skip("sweep scenario in -short mode")
	}
	seeds := []int64{1, 2, 3, 4}
	parallel, err := Sweep(seeds, testCfg(), 4)
	if err != nil {
		t.Fatal(err)
	}
	serial, err := Sweep(seeds, testCfg(), 1)
	if err != nil {
		t.Fatal(err)
	}
	for i := range seeds {
		p, s := parallel.Runs[i], serial.Runs[i]
		if p.Seed != s.Seed {
			t.Fatalf("result order diverged: %d vs %d", p.Seed, s.Seed)
		}
		if p.Table1Text != s.Table1Text {
			t.Errorf("seed %d: parallel Table 1 differs from serial:\n--- parallel ---\n%s\n--- serial ---\n%s",
				p.Seed, p.Table1Text, s.Table1Text)
		}
		if !reflect.DeepEqual(p.Milestones, s.Milestones) {
			t.Errorf("seed %d: parallel Milestones differ from serial:\nparallel %+v\nserial   %+v",
				p.Seed, p.Milestones, s.Milestones)
		}
		if p.Events != s.Events || p.Submitted != s.Submitted || p.Records != s.Records {
			t.Errorf("seed %d: counters diverged: parallel {events %d jobs %d records %d}, serial {events %d jobs %d records %d}",
				p.Seed, p.Events, p.Submitted, p.Records, s.Events, s.Submitted, s.Records)
		}
	}
	// Distinct seeds must actually produce distinct campaigns.
	if parallel.Runs[0].Table1Text == parallel.Runs[1].Table1Text {
		t.Error("seeds 1 and 2 produced identical Table 1 output")
	}
}

func TestSweepAggregates(t *testing.T) {
	if testing.Short() {
		t.Skip("sweep scenario in -short mode")
	}
	rep, err := Sweep([]int64{7, 8}, testCfg(), 2)
	if err != nil {
		t.Fatal(err)
	}
	agg := rep.Agg
	if agg.JobsCompleted.Min <= 0 || agg.JobsCompleted.Min > agg.JobsCompleted.Mean ||
		agg.JobsCompleted.Mean > agg.JobsCompleted.Max {
		t.Fatalf("jobs stat out of order: %+v", agg.JobsCompleted)
	}
	if agg.PeakJobs.Max <= 0 {
		t.Fatalf("peak jobs = %+v", agg.PeakJobs)
	}
	if len(agg.EfficiencyByVO) == 0 {
		t.Fatal("no per-VO efficiency aggregates")
	}
	var buf strings.Builder
	rep.Write(&buf)
	out := buf.String()
	for _, want := range []string{"Campaign sweep: 2 seeds {7 8}", "Jobs completed", "Efficiency"} {
		if !strings.Contains(out, want) {
			t.Fatalf("report missing %q:\n%s", want, out)
		}
	}
}

func TestSweepRejectsEmpty(t *testing.T) {
	if _, err := Sweep(nil, testCfg(), 4); err == nil {
		t.Fatal("empty sweep did not error")
	}
}

func TestStat(t *testing.T) {
	s := newStat([]float64{3, 1, 2})
	if s.Min != 1 || s.Max != 3 || s.Mean != 2 {
		t.Fatalf("stat = %+v", s)
	}
	if z := newStat(nil); z != (Stat{}) {
		t.Fatalf("empty stat = %+v", z)
	}
}

// TestFanOut pins the helper every campaign runs through: each index runs
// exactly once, results land by index even when later indices finish
// first, the lowest failing index wins whatever order failures happen in,
// and the worker count is clamped.
func TestFanOut(t *testing.T) {
	const n = 8
	var calls [n]atomic.Int32
	out := make([]int, n)
	var mu sync.Mutex
	var finished []int
	var others sync.WaitGroup
	others.Add(n - 1)
	workers, err := fanOut(n, 4, func(i int) error {
		calls[i].Add(1)
		if i == 0 {
			others.Wait() // index 0 finishes after every later index
		} else {
			defer others.Done()
		}
		out[i] = i * i
		mu.Lock()
		finished = append(finished, i)
		mu.Unlock()
		return nil
	})
	if err != nil || workers != 4 {
		t.Fatalf("fanOut = (%d, %v), want (4, nil)", workers, err)
	}
	if finished[n-1] != 0 {
		t.Fatalf("completion order %v: index 0 did not finish last", finished)
	}
	for i := range out {
		if c := calls[i].Load(); c != 1 {
			t.Errorf("index %d ran %d times", i, c)
		}
		if out[i] != i*i {
			t.Errorf("slot %d holds %d, want %d", i, out[i], i*i)
		}
	}

	errLow, errHigh := errors.New("index 1"), errors.New("index 3")
	highFailed := make(chan struct{})
	_, err = fanOut(4, 4, func(i int) error {
		switch i {
		case 1:
			<-highFailed // index 1 fails after index 3 already has
			return errLow
		case 3:
			close(highFailed)
			return errHigh
		}
		return nil
	})
	if !errors.Is(err, errLow) || errors.Is(err, errHigh) {
		t.Fatalf("fanOut returned %v, want the lowest-index error %v", err, errLow)
	}

	noop := func(int) error { return nil }
	procs := runtime.GOMAXPROCS(0)
	for _, tc := range []struct{ n, workers, want int }{
		{3, 16, 3},
		{1, 0, 1},
		{procs + 1, 0, procs},
		{procs + 1, -1, procs},
	} {
		if got, _ := fanOut(tc.n, tc.workers, noop); got != tc.want {
			t.Errorf("fanOut(%d, %d) used %d workers, want %d", tc.n, tc.workers, got, tc.want)
		}
	}
}
