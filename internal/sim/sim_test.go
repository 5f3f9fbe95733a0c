package sim

import (
	"testing"
	"time"
)

func TestEngineOrdering(t *testing.T) {
	e := NewEngine(Grid3Epoch)
	var order []int
	e.Schedule(3*time.Second, func() { order = append(order, 3) })
	e.Schedule(1*time.Second, func() { order = append(order, 1) })
	e.Schedule(2*time.Second, func() { order = append(order, 2) })
	e.Run()
	if len(order) != 3 || order[0] != 1 || order[1] != 2 || order[2] != 3 {
		t.Fatalf("events fired out of order: %v", order)
	}
	if e.Now() != 3*time.Second {
		t.Fatalf("clock = %v, want 3s", e.Now())
	}
}

func TestEngineSameTimeFIFO(t *testing.T) {
	e := NewEngine(Grid3Epoch)
	var order []int
	for i := 0; i < 10; i++ {
		i := i
		e.Schedule(time.Second, func() { order = append(order, i) })
	}
	e.Run()
	for i, v := range order {
		if v != i {
			t.Fatalf("same-time events not FIFO: %v", order)
		}
	}
}

func TestEngineNestedScheduling(t *testing.T) {
	e := NewEngine(Grid3Epoch)
	var fired []time.Duration
	e.Schedule(time.Second, func() {
		fired = append(fired, e.Now())
		e.Schedule(time.Second, func() {
			fired = append(fired, e.Now())
		})
	})
	e.Run()
	if len(fired) != 2 || fired[0] != time.Second || fired[1] != 2*time.Second {
		t.Fatalf("nested schedule times = %v", fired)
	}
}

func TestEngineCancel(t *testing.T) {
	e := NewEngine(Grid3Epoch)
	ran := false
	ev := e.Schedule(time.Second, func() { ran = true })
	e.Cancel(ev)
	e.Cancel(ev) // double-cancel is a no-op
	e.Run()
	if ran {
		t.Fatal("cancelled event fired")
	}
	if !ev.Cancelled() {
		t.Fatal("event not marked cancelled")
	}
}

func TestEngineRunUntil(t *testing.T) {
	e := NewEngine(Grid3Epoch)
	var fired []int
	e.Schedule(1*time.Hour, func() { fired = append(fired, 1) })
	e.Schedule(2*time.Hour, func() { fired = append(fired, 2) })
	e.Schedule(3*time.Hour, func() { fired = append(fired, 3) })
	e.RunUntil(2 * time.Hour)
	if len(fired) != 2 {
		t.Fatalf("RunUntil fired %v, want events at 1h and 2h", fired)
	}
	if e.Now() != 2*time.Hour {
		t.Fatalf("clock after RunUntil = %v", e.Now())
	}
	e.RunFor(1 * time.Hour)
	if len(fired) != 3 {
		t.Fatalf("RunFor did not fire remaining event: %v", fired)
	}
}

func TestEngineRunUntilAdvancesIdleClock(t *testing.T) {
	e := NewEngine(Grid3Epoch)
	e.RunUntil(5 * time.Hour)
	if e.Now() != 5*time.Hour {
		t.Fatalf("idle clock = %v, want 5h", e.Now())
	}
}

func TestEngineWallClock(t *testing.T) {
	e := NewEngine(Grid3Epoch)
	e.RunUntil(24 * time.Hour)
	want := time.Date(2003, time.October, 24, 0, 0, 0, 0, time.UTC)
	if !e.WallClock().Equal(want) {
		t.Fatalf("WallClock = %v, want %v", e.WallClock(), want)
	}
}

func TestEnginePastSchedulingPanics(t *testing.T) {
	e := NewEngine(Grid3Epoch)
	e.RunUntil(time.Hour)
	defer func() {
		if recover() == nil {
			t.Fatal("At in the past did not panic")
		}
	}()
	e.At(time.Minute, func() {})
}

func TestEngineNegativeDelayPanics(t *testing.T) {
	e := NewEngine(Grid3Epoch)
	defer func() {
		if recover() == nil {
			t.Fatal("negative delay did not panic")
		}
	}()
	e.Schedule(-time.Second, func() {})
}

func TestEngineProcessedCount(t *testing.T) {
	e := NewEngine(Grid3Epoch)
	for i := 0; i < 5; i++ {
		e.Schedule(time.Duration(i)*time.Second, func() {})
	}
	e.Run()
	if e.Processed() != 5 {
		t.Fatalf("Processed = %d, want 5", e.Processed())
	}
}

func TestTickerFiresAtInterval(t *testing.T) {
	e := NewEngine(Grid3Epoch)
	var times []time.Duration
	tk := NewTicker(e, 15*time.Minute, func() { times = append(times, e.Now()) })
	e.RunUntil(time.Hour)
	tk.Stop()
	e.RunUntil(2 * time.Hour)
	if len(times) != 4 {
		t.Fatalf("ticker fired %d times in 1h at 15m interval, want 4: %v", len(times), times)
	}
	for i, at := range times {
		want := time.Duration(i+1) * 15 * time.Minute
		if at != want {
			t.Fatalf("fire %d at %v, want %v", i, at, want)
		}
	}
	if tk.Fires() != 4 {
		t.Fatalf("Fires = %d, want 4", tk.Fires())
	}
}

func TestTickerStopFromCallback(t *testing.T) {
	e := NewEngine(Grid3Epoch)
	var tk *Ticker
	count := 0
	tk = NewTicker(e, time.Minute, func() {
		count++
		if count == 3 {
			tk.Stop()
		}
	})
	e.Run()
	if count != 3 {
		t.Fatalf("ticker fired %d times after self-stop at 3", count)
	}
}

func TestReentrantRunPanics(t *testing.T) {
	e := NewEngine(Grid3Epoch)
	e.Schedule(time.Second, func() {
		defer func() {
			if recover() == nil {
				t.Error("re-entrant Run did not panic")
			}
		}()
		e.Run()
	})
	e.Run()
}

func TestEnginePendingExcludesCancelled(t *testing.T) {
	e := NewEngine(Grid3Epoch)
	evs := make([]Event, 10)
	for i := range evs {
		evs[i] = e.Schedule(time.Duration(i+1)*time.Second, func() {})
	}
	if e.Pending() != 10 {
		t.Fatalf("Pending = %d, want 10", e.Pending())
	}
	for i := 0; i < 4; i++ {
		e.Cancel(evs[i])
	}
	if e.Pending() != 6 {
		t.Fatalf("Pending after 4 cancels = %d, want 6 (cancelled must not count)", e.Pending())
	}
	e.Run()
	if e.Pending() != 0 {
		t.Fatalf("Pending after Run = %d", e.Pending())
	}
	if e.Processed() != 6 {
		t.Fatalf("Processed = %d, want 6", e.Processed())
	}
	if e.Discarded() != 4 {
		t.Fatalf("Discarded = %d, want 4 (cancelled events count as housekeeping)", e.Discarded())
	}
}

func TestEngineSlotReuseKeepsStaleHandlesSafe(t *testing.T) {
	e := NewEngine(Grid3Epoch)
	fired := 0
	stale := e.Schedule(time.Second, func() { fired++ })
	e.Run()
	// The slot is free now; the next event reuses it under a new generation.
	fresh := e.Schedule(time.Second, func() { fired++ })
	if stale.Pending() {
		t.Fatal("fired event still reports pending")
	}
	stale.Cancel() // must not cancel the slot's new occupant
	if fresh.Cancelled() || !fresh.Pending() {
		t.Fatal("stale Cancel aliased the reused slot")
	}
	if stale.Cancelled() {
		t.Fatal("fired event reports cancelled")
	}
	e.Run()
	if fired != 2 {
		t.Fatalf("fired = %d, want 2", fired)
	}
}

// lcgDelays is a deterministic LCG delay stream (0–999 ms), so the churn
// workloads below replay the identical event schedule on every build.
type lcgDelays struct{ state uint64 }

func (d *lcgDelays) next() time.Duration {
	d.state = d.state*6364136223846793005 + 1442695040888963407
	return time.Duration(d.state>>33%1000) * time.Millisecond
}

// scheduleStepOp returns one schedule+step pair on an engine whose arena
// and heap have already grown.
func scheduleStepOp() func() {
	e := NewEngine(Grid3Epoch)
	fn := func() {}
	for i := 0; i < 1024; i++ {
		e.Schedule(time.Duration(i)*time.Millisecond, fn)
	}
	e.Run()
	return func() {
		e.Schedule(time.Millisecond, fn)
		e.Step()
	}
}

// stepChurnOp returns one step of a churn of 1024 self-rescheduling events
// (the job/transfer pattern) plus 64 periodic tickers at i·137 ms (the
// monitoring/negotiation pattern, riding the timer wheel).
func stepChurnOp() func() {
	e := NewEngine(Grid3Epoch)
	delays := &lcgDelays{state: 1}
	var fn func()
	fn = func() { e.Schedule(delays.next(), fn) }
	for i := 0; i < 1024; i++ {
		e.Schedule(delays.next(), fn)
	}
	for i := 0; i < 64; i++ {
		NewTicker(e, time.Duration(i+1)*137*time.Millisecond, func() {})
	}
	return func() { e.Step() }
}

// cancelChurnOp returns one schedule-then-cancel pair and one step, on an
// engine churning 256 self-rescheduling events: the batch-system
// preemption pattern, which exercises lazy discard and compaction.
func cancelChurnOp() func() {
	e := NewEngine(Grid3Epoch)
	delays := &lcgDelays{state: 9}
	var fn func()
	fn = func() { e.Schedule(delays.next(), fn) }
	for i := 0; i < 256; i++ {
		e.Schedule(delays.next(), fn)
	}
	return func() {
		e.Schedule(delays.next(), func() {}).Cancel()
		e.Step()
	}
}

// The engine's steady state makes no allocation at all: each workload
// runs 10,000 operations to warm up, then must allocate nothing in the
// next 10,000.
func TestEngineScheduleDoesNotAllocate(t *testing.T) {
	const ops = 10000
	for _, tc := range []struct {
		name  string
		newOp func() func()
	}{
		{"schedule+step", scheduleStepOp},
		{"step churn", stepChurnOp},
		{"cancel churn", cancelChurnOp},
	} {
		t.Run(tc.name, func(t *testing.T) {
			op := tc.newOp()
			// One run of ops operations: AllocsPerRun warms up with a
			// first run, and its per-run figure is the exact total.
			allocs := testing.AllocsPerRun(1, func() {
				for i := 0; i < ops; i++ {
					op()
				}
			})
			if allocs != 0 {
				t.Fatalf("%s made %.0f allocations in %d operations, want 0", tc.name, allocs, ops)
			}
		})
	}
}

func TestEngineCompaction(t *testing.T) {
	e := NewEngine(Grid3Epoch)
	var keep []Event
	var cancel []Event
	for i := 0; i < 300; i++ {
		ev := e.Schedule(time.Duration(i+1)*time.Second, func() {})
		if i%3 == 0 {
			keep = append(keep, ev)
		} else {
			cancel = append(cancel, ev)
		}
	}
	for _, ev := range cancel {
		ev.Cancel()
	}
	// Cancelling 200 of 300 must have tripped compaction (at the point
	// cancellations exceeded half the queue); stragglers cancelled after
	// the pass stay lazily queued until they surface.
	if e.Discarded() == 0 {
		t.Fatal("compaction never triggered")
	}
	if e.Pending() != len(keep) {
		t.Fatalf("Pending = %d, want %d", e.Pending(), len(keep))
	}
	var fired int
	prev := time.Duration(-1)
	for e.Step() {
		if e.Now() <= prev {
			t.Fatalf("events fired out of order after compaction: %v after %v", e.Now(), prev)
		}
		prev = e.Now()
		fired++
	}
	if fired != len(keep) {
		t.Fatalf("fired %d, want %d", fired, len(keep))
	}
	if got := e.Discarded(); got != uint64(len(cancel)) {
		t.Fatalf("Discarded after drain = %d, want %d", got, len(cancel))
	}
	for _, ev := range keep {
		if ev.Cancelled() {
			t.Fatal("survivor reports cancelled")
		}
	}
}

func TestEngineHeapOrderRandomised(t *testing.T) {
	// A deterministic LCG shuffles insert order; the engine must still fire
	// in (time, seq) order. This exercises the 4-ary sift paths at depth.
	e := NewEngine(Grid3Epoch)
	const n = 5000
	state := uint64(0x9e3779b97f4a7c15)
	next := func() uint64 {
		state = state*6364136223846793005 + 1442695040888963407
		return state >> 33
	}
	var fired []time.Duration
	for i := 0; i < n; i++ {
		at := time.Duration(next()%10000) * time.Millisecond
		e.At(at, func() { fired = append(fired, e.Now()) })
	}
	e.Run()
	if len(fired) != n {
		t.Fatalf("fired %d of %d", len(fired), n)
	}
	for i := 1; i < n; i++ {
		if fired[i] < fired[i-1] {
			t.Fatalf("out of order at %d: %v < %v", i, fired[i], fired[i-1])
		}
	}
}

func TestPeriodicTimerWheel(t *testing.T) {
	e := NewEngine(Grid3Epoch)
	var ticks []time.Duration
	tm := e.Periodic(10*time.Minute, func() { ticks = append(ticks, e.Now()) })
	if !tm.Active() {
		t.Fatal("fresh timer inactive")
	}
	e.RunUntil(time.Hour)
	if len(ticks) != 6 {
		t.Fatalf("%d ticks in 1h at 10m, want 6: %v", len(ticks), ticks)
	}
	tm.Stop()
	tm.Stop() // double-stop is a no-op
	if tm.Active() {
		t.Fatal("stopped timer active")
	}
	e.RunUntil(2 * time.Hour)
	if len(ticks) != 6 {
		t.Fatalf("stopped timer kept firing: %d ticks", len(ticks))
	}
	if e.Pending() != 0 {
		t.Fatalf("Pending with only a stopped timer = %d, want 0", e.Pending())
	}
}

// TestPeriodicInterleavesWithEvents pins the determinism contract across the
// two queues: wheel timers and one-shot events share the (time, seq) order.
// At 1m the tick fires first (registered before the event, so earlier seq);
// at 2m the event fires first, because the re-arm drew its seq only when the
// 1m tick completed — exactly as the legacy re-scheduling Ticker behaved.
func TestPeriodicInterleavesWithEvents(t *testing.T) {
	e := NewEngine(Grid3Epoch)
	var order []string
	e.Periodic(time.Minute, func() { order = append(order, "tick") })
	e.At(time.Minute, func() { order = append(order, "event") })
	e.At(2*time.Minute, func() { order = append(order, "event") })
	e.RunUntil(2 * time.Minute)
	want := []string{"tick", "event", "event", "tick"}
	if len(order) != len(want) {
		t.Fatalf("order = %v, want %v", order, want)
	}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order = %v, want %v", order, want)
		}
	}
}

// TestTickerMatchesFallbackSchedule replays the same workload through the
// wheel fast path and the legacy re-scheduling path; the observable fire
// sequence must be identical.
func TestTickerMatchesFallbackSchedule(t *testing.T) {
	run := func(viaWheel bool) []time.Duration {
		e := NewEngine(Grid3Epoch)
		var fires []time.Duration
		fn := func() { fires = append(fires, e.Now()) }
		if viaWheel {
			NewTicker(e, 7*time.Minute, fn)
		} else {
			NewTicker(schedulerOnly{e}, 7*time.Minute, fn)
		}
		e.RunUntil(3 * time.Hour)
		return fires
	}
	wheel, legacy := run(true), run(false)
	if len(wheel) != len(legacy) {
		t.Fatalf("wheel fired %d, legacy %d", len(wheel), len(legacy))
	}
	for i := range wheel {
		if wheel[i] != legacy[i] {
			t.Fatalf("fire %d: wheel %v, legacy %v", i, wheel[i], legacy[i])
		}
	}
}

// schedulerOnly hides the *Engine concrete type so NewTicker takes the
// fallback path.
type schedulerOnly struct{ *Engine }

func TestZeroEventSafe(t *testing.T) {
	var ev Event
	if ev.Valid() || ev.Pending() || ev.Cancelled() {
		t.Fatal("zero Event not inert")
	}
	ev.Cancel() // must not panic
	var tm Timer
	if tm.Valid() || tm.Active() {
		t.Fatal("zero Timer not inert")
	}
	tm.Stop() // must not panic
}

func BenchmarkEngineScheduleRun(b *testing.B) {
	e := NewEngine(Grid3Epoch)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		e.Schedule(time.Duration(i%1000)*time.Millisecond, func() {})
		if i%1024 == 1023 {
			e.Run()
		}
	}
	e.Run()
}

// BenchmarkEngineStep measures the steady-state cost of one event on
// stepChurnOp's workload.
func BenchmarkEngineStep(b *testing.B) {
	op := stepChurnOp()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		op()
	}
}

// BenchmarkEngineCancel measures cancellation churn on cancelChurnOp's
// workload.
func BenchmarkEngineCancel(b *testing.B) {
	op := cancelChurnOp()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		op()
	}
}

func TestEnginePendingLiveCountInvariant(t *testing.T) {
	// Pending is maintained as an incremental live count, so it must track
	// the ground truth — scheduled minus fired minus cancelled, plus active
	// tickers — through every interaction: double cancels, cancels racing
	// compaction, lazy discards at the heap root, and timer-wheel ticks.
	e := NewEngine(Grid3Epoch)
	tick := NewTicker(e, 7*time.Second, func() {})

	check := func(want int, at string) {
		t.Helper()
		if got := e.Pending(); got != want {
			t.Fatalf("%s: Pending = %d, want %d", at, got, want)
		}
	}
	check(1, "ticker only")

	evs := make([]Event, 200)
	for i := range evs {
		evs[i] = e.Schedule(time.Duration(i+1)*time.Second, func() {})
	}
	check(201, "after scheduling")

	// Double-cancel and cancel-of-fired must not decrement twice.
	evs[0].Cancel()
	evs[0].Cancel()
	check(200, "after double cancel")

	// Cancel enough to trip compaction, then keep cancelling so lazy
	// discards at the root also exercise the count.
	for i := 1; i < 150; i++ {
		evs[i].Cancel()
	}
	check(51, "after mass cancel + compaction")

	e.RunUntil(200 * time.Second)
	// All 50 survivors (151..200s) fired; ticker still armed.
	check(1, "after drain")

	evs[160].Cancel() // already fired: must be a no-op on the count
	check(1, "after cancelling a fired event")

	tick.Stop()
	check(0, "after stopping the ticker")
}
