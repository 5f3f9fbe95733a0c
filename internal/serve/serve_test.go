package serve

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"grid3/internal/core"
)

// testConfig is a small scenario that assembles fast: a handful of testbed
// sites, a two-day horizon, a sliver of the workload.
func testConfig() Config {
	return Config{
		Scenario: core.ScenarioConfig{
			Config:   core.Config{Seed: 7, TestbedSites: 5},
			Horizon:  48 * time.Hour,
			JobScale: 0.001,
		},
		Pace: 3600, // one sim hour per wall second
		Tick: time.Millisecond,
	}
}

func TestServiceStepDeterminism(t *testing.T) {
	// Two services, same seed, same manual wall schedule: identical
	// trajectories. This is the ingress boundary's core promise.
	run := func() (uint64, time.Duration) {
		s, err := New(testConfig())
		if err != nil {
			t.Fatal(err)
		}
		wall0 := time.Unix(0, 0)
		s.Step(wall0) // anchor the governor
		for i := 1; i <= 10; i++ {
			s.Step(wall0.Add(time.Duration(i) * time.Second))
		}
		eng := s.Scenario().Grid.Eng
		return eng.Processed(), eng.Now()
	}
	ev1, now1 := run()
	ev2, now2 := run()
	if ev1 != ev2 || now1 != now2 {
		t.Fatalf("same seed diverged: (%d, %v) vs (%d, %v)", ev1, now1, ev2, now2)
	}
	if ev1 == 0 {
		t.Fatal("no events processed; the governor never advanced the engine")
	}
	// 10 wall seconds at pace 3600 = 10 sim hours.
	if want := 10 * time.Hour; now1 != want {
		t.Fatalf("sim now = %v, want %v", now1, want)
	}
}

func TestServiceStepRespectsHorizon(t *testing.T) {
	cfg := testConfig()
	cfg.Scenario.Horizon = 2 * time.Hour
	cfg.MaxStride = 365 * 24 * time.Hour // no stride bound for this test
	cfg.MaxLag = 365 * 24 * time.Hour    // nor lag forgiveness
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	wall0 := time.Unix(0, 0)
	s.Step(wall0)                // anchor
	s.Step(wall0.Add(time.Hour)) // schedule says 3600 sim hours; horizon says 2
	// Finish drains in-flight work for 6 sim hours past the horizon, the
	// same end-of-run bookkeeping a batch Run performs.
	if got := s.Scenario().Grid.Eng.Now(); got != 8*time.Hour {
		t.Fatalf("sim now = %v, want 2h horizon + 6h drain", got)
	}
	if !s.finished {
		t.Fatal("service did not finish at horizon")
	}
	// The service keeps answering after the horizon; time holds still.
	s.Step(wall0.Add(2 * time.Hour))
	if got := s.Scenario().Grid.Eng.Now(); got != 8*time.Hour {
		t.Fatalf("engine moved after finish: %v", got)
	}
}

func TestServiceStepBoundsStride(t *testing.T) {
	cfg := testConfig()
	cfg.MaxStride = 30 * time.Minute
	cfg.MaxLag = 365 * 24 * time.Hour
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	wall0 := time.Unix(0, 0)
	s.Step(wall0)                  // anchor
	s.Step(wall0.Add(time.Minute)) // schedule says 60 sim hours
	if got := s.Scenario().Grid.Eng.Now(); got != 30*time.Minute {
		t.Fatalf("sim now = %v, want one 30m stride", got)
	}
}

func TestServiceForgivesLag(t *testing.T) {
	cfg := testConfig()
	cfg.MaxStride = time.Minute
	cfg.MaxLag = time.Hour
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	wall0 := time.Unix(0, 0)
	s.Step(wall0) // anchor
	// Jump far ahead: schedule demands 1000 sim hours, stride allows 1
	// minute, so lag explodes past MaxLag and must be forgiven.
	s.Step(wall0.Add(1000 * time.Second))
	s.Step(wall0.Add(1001 * time.Second))
	if lag := s.gov.Lag(s.scen.Grid.Eng.Now(), wall0.Add(1001*time.Second)); lag > time.Hour {
		t.Fatalf("lag %v was not forgiven (MaxLag 1h)", lag)
	}
}

func TestServiceStartStop(t *testing.T) {
	s, err := New(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	s.Start()
	ran := false
	if err := s.Do(func() { ran = true }); err != nil {
		t.Fatalf("Do: %v", err)
	}
	if !ran {
		t.Fatal("closure did not run")
	}
	st, err := s.StatusNow()
	if err != nil {
		t.Fatalf("StatusNow: %v", err)
	}
	if st.Pace != 3600 {
		t.Fatalf("pace = %v, want 3600", st.Pace)
	}
	if st.Accepted == 0 {
		t.Fatal("accepted counter did not move")
	}
	s.Stop()
	if err := s.Do(func() {}); err != ErrStopped {
		t.Fatalf("Do after Stop = %v, want ErrStopped", err)
	}
	s.Stop() // idempotent
}

func TestServiceOverloadSheds(t *testing.T) {
	cfg := testConfig()
	cfg.MaxPending = 1
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	release := jam(s)
	if err := s.Do(func() {}); err != ErrOverloaded {
		t.Fatalf("Do on full queue = %v, want ErrOverloaded", err)
	}
	if s.shed.Load() != 1 {
		t.Fatalf("shed = %d, want 1", s.shed.Load())
	}
	release()
	s.Stop()
}

func TestServiceDoConcurrent(t *testing.T) {
	// Handlers call Do from many goroutines while the sim loop advances
	// and Stop lands part-way: each closure runs alone with the engine
	// (the race detector checks), none runs after shutdown, and every call
	// either runs or returns ErrStopped.
	s, err := New(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	s.Start()
	const workers, calls = 8, 200
	ran := 0 // guarded by the engine lock
	var refused atomic.Int64
	var wg sync.WaitGroup
	for w := range workers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range calls {
				if w == 0 && i == calls/2 {
					go s.Stop()
				}
				err := s.Do(func() {
					if s.stopped {
						t.Error("closure ran after shutdown")
					}
					ran++
					_ = s.scen.Grid.Eng.Now()
				})
				switch err {
				case nil:
				case ErrStopped:
					refused.Add(1)
				default:
					t.Errorf("Do: %v", err)
				}
			}
		}()
	}
	wg.Wait()
	s.Stop()
	if ran == 0 || ran+int(refused.Load()) != workers*calls {
		t.Fatalf("ran %d + refused %d, want %d calls with some run", ran, refused.Load(), workers*calls)
	}
}

// jam fills the queue of a service with MaxPending 1: one Do holds the
// engine lock and a second waits for it. release lets both run and returns
// once they have.
func jam(s *Service) (release func()) {
	holding, unblock := make(chan struct{}), make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		s.Do(func() { close(holding); <-unblock })
	}()
	<-holding
	go func() {
		defer wg.Done()
		s.Do(func() {})
	}()
	for s.waiting.Load() == 0 {
		time.Sleep(time.Millisecond)
	}
	return func() { close(unblock); wg.Wait() }
}

func TestServiceSetPace(t *testing.T) {
	s, err := New(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	s.Start()
	defer s.Stop()
	if err := s.SetPace(-1); err == nil {
		t.Fatal("negative pace accepted")
	}
	if err := s.SetPace(60); err != nil {
		t.Fatalf("SetPace: %v", err)
	}
	if got := s.Pace(); got != 60 {
		t.Fatalf("pace after SetPace = %v, want 60", got)
	}
}
