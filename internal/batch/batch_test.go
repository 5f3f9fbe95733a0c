package batch

import (
	"errors"
	"fmt"
	"testing"
	"time"

	"grid3/internal/sim"
)

func newSys(t *testing.T, slots int, opts ...func(*Config)) (*sim.Engine, *System) {
	t.Helper()
	eng := sim.NewEngine(sim.Grid3Epoch)
	cfg := Config{Name: "test-pbs", Slots: slots, Policy: FIFO{}, EnforceWall: true, MaxWall: 100 * time.Hour}
	for _, o := range opts {
		o(&cfg)
	}
	return eng, New(eng, cfg)
}

func job(id, vo string, runtime, walltime time.Duration) *Job {
	return &Job{ID: id, VO: vo, Account: "grp_" + vo, Runtime: runtime, Walltime: walltime}
}

// recorder is an Owner that logs the IDs it is told about.
type recorder struct{ started, done []string }

func (r *recorder) JobStarted(j *Job) { r.started = append(r.started, j.ID) }
func (r *recorder) JobDone(j *Job)    { r.done = append(r.done, j.ID) }

func TestSubmitRunComplete(t *testing.T) {
	eng, sys := newSys(t, 2)
	rec := &recorder{}
	j := job("j1", "usatlas", 2*time.Hour, 4*time.Hour)
	j.Owner = rec
	if err := sys.Submit(j); err != nil {
		t.Fatal(err)
	}
	eng.Run()
	if len(rec.started) != 1 || len(rec.done) != 1 {
		t.Fatalf("callbacks: started %v done %v", rec.started, rec.done)
	}
	if j.State != Done || j.Outcome != Completed {
		t.Fatalf("state %v outcome %v", j.State, j.Outcome)
	}
	if j.Ended-j.Started != 2*time.Hour {
		t.Fatalf("execution span = %v", j.Ended-j.Started)
	}
	if sys.TotalCompleted() != 1 || sys.TotalFailed() != 0 {
		t.Fatal("counters wrong")
	}
	if sys.BusyTime() != 2*time.Hour {
		t.Fatalf("BusyTime = %v", sys.BusyTime())
	}
}

func TestQueueingWhenFull(t *testing.T) {
	eng, sys := newSys(t, 1)
	j1 := job("j1", "a", time.Hour, 2*time.Hour)
	j2 := job("j2", "a", time.Hour, 2*time.Hour)
	sys.Submit(j1)
	sys.Submit(j2)
	if sys.RunningCount() != 1 || sys.QueuedCount() != 1 {
		t.Fatalf("running %d queued %d", sys.RunningCount(), sys.QueuedCount())
	}
	eng.Run()
	if j2.Started != time.Hour {
		t.Fatalf("j2 started at %v, want after j1 finishes", j2.Started)
	}
}

func TestWalltimeEnforcement(t *testing.T) {
	eng, sys := newSys(t, 1)
	j := job("over", "a", 10*time.Hour, 3*time.Hour)
	sys.Submit(j)
	eng.Run()
	if j.Outcome != WalltimeExceeded {
		t.Fatalf("outcome = %v, want WalltimeExceeded", j.Outcome)
	}
	if j.Ended != 3*time.Hour {
		t.Fatalf("killed at %v, want 3h", j.Ended)
	}
}

func TestCondorDoesNotEnforceWalltime(t *testing.T) {
	eng := sim.NewEngine(sim.Grid3Epoch)
	sys := New(eng, Config{Name: "condor", Slots: 1, Policy: FairShare{}, EnforceWall: false})
	j := job("over", "a", 10*time.Hour, 3*time.Hour)
	sys.Submit(j)
	eng.Run()
	if j.Outcome != Completed || j.Ended != 10*time.Hour {
		t.Fatalf("condor job outcome %v ended %v", j.Outcome, j.Ended)
	}
}

func TestAdmissionControl(t *testing.T) {
	_, sys := newSys(t, 1)
	long := job("long", "uscms", 200*time.Hour, 200*time.Hour)
	if err := sys.Submit(long); !errors.Is(err, ErrWalltimeTooLong) {
		t.Fatalf("admission err = %v", err)
	}
	if err := sys.Submit(&Job{ID: "nowall", VO: "a", Runtime: time.Hour}); err == nil {
		t.Fatal("zero-walltime job admitted")
	}
	if err := sys.Submit(&Job{VO: "a", Runtime: time.Hour, Walltime: time.Hour}); err == nil {
		t.Fatal("job without ID admitted")
	}
}

func TestDuplicateJobID(t *testing.T) {
	_, sys := newSys(t, 2)
	sys.Submit(job("dup", "a", time.Hour, 2*time.Hour))
	if err := sys.Submit(job("dup", "a", time.Hour, 2*time.Hour)); !errors.Is(err, ErrDuplicateJob) {
		t.Fatalf("duplicate err = %v", err)
	}
}

func TestCancelQueuedAndRunning(t *testing.T) {
	eng, sys := newSys(t, 1)
	j1 := job("run", "a", 5*time.Hour, 6*time.Hour)
	j2 := job("wait", "a", time.Hour, 2*time.Hour)
	sys.Submit(j1)
	sys.Submit(j2)
	if err := sys.Cancel("wait"); err != nil {
		t.Fatal(err)
	}
	if j2.Outcome != Cancelled {
		t.Fatalf("queued cancel outcome = %v", j2.Outcome)
	}
	eng.RunUntil(time.Hour)
	if err := sys.Cancel("run"); err != nil {
		t.Fatal(err)
	}
	if j1.Outcome != Cancelled || j1.State != Done {
		t.Fatalf("running cancel: %v %v", j1.State, j1.Outcome)
	}
	if sys.FreeSlots() != 1 {
		t.Fatalf("slot not freed: %d", sys.FreeSlots())
	}
	eng.Run()
	if err := sys.Cancel("run"); !errors.Is(err, ErrNoSuchJob) {
		t.Fatalf("cancel done job err = %v", err)
	}
}

func TestFIFOPriority(t *testing.T) {
	eng, sys := newSys(t, 1)
	blocker := job("blocker", "a", time.Hour, 2*time.Hour)
	low := job("low", "a", time.Hour, 2*time.Hour)
	low.Priority = -10 // exerciser backfill
	high := job("high", "a", time.Hour, 2*time.Hour)
	sys.Submit(blocker)
	sys.Submit(low)
	sys.Submit(high)
	eng.Run()
	if !(high.Started < low.Started) {
		t.Fatalf("priority ignored: high at %v, low at %v", high.Started, low.Started)
	}
}

func TestVOQuota(t *testing.T) {
	eng, sys := newSys(t, 4, func(c *Config) {
		c.VOQuota = map[string]int{"uscms": 1}
	})
	c1 := job("c1", "uscms", 4*time.Hour, 5*time.Hour)
	c2 := job("c2", "uscms", 4*time.Hour, 5*time.Hour)
	a1 := job("a1", "usatlas", time.Hour, 2*time.Hour)
	sys.Submit(c1)
	sys.Submit(c2)
	sys.Submit(a1)
	eng.RunUntil(time.Minute)
	if sys.RunningByVO("uscms") != 1 {
		t.Fatalf("uscms running = %d, want quota 1", sys.RunningByVO("uscms"))
	}
	if a1.State != Running {
		t.Fatal("quota on uscms blocked usatlas")
	}
	eng.Run()
	if c2.Started < c1.Ended {
		t.Fatal("second uscms job ran inside quota window")
	}
}

func TestFairShare(t *testing.T) {
	eng := sim.NewEngine(sim.Grid3Epoch)
	sys := New(eng, Config{Name: "condor", Slots: 1, Policy: FairShare{}, EnforceWall: false})
	// VO "hog" accumulates usage first.
	sys.Submit(job("hog1", "hog", 10*time.Hour, 12*time.Hour))
	// Queue one job from each VO while the slot is busy; when it frees,
	// fair-share should pick the zero-usage VO even though hog submitted
	// earlier.
	eng.RunUntil(9 * time.Hour)
	h2 := job("hog2", "hog", time.Hour, 2*time.Hour)
	n1 := job("new1", "newvo", time.Hour, 2*time.Hour)
	sys.Submit(h2)
	sys.Submit(n1)
	eng.Run()
	if !(n1.Started < h2.Started) {
		t.Fatalf("fair share ignored usage: new at %v, hog at %v", n1.Started, h2.Started)
	}
}

func TestFairShareWeights(t *testing.T) {
	eng := sim.NewEngine(sim.Grid3Epoch)
	shares := map[string]float64{"big": 4, "small": 1}
	sys := New(eng, Config{Name: "condor", Slots: 1, Policy: FairShare{Shares: shares}, EnforceWall: false})
	// Equal raw usage; big's share discounts it 4x so big goes first.
	sys.Submit(job("b0", "big", time.Hour, 2*time.Hour))
	eng.Run()
	sys.Submit(job("s0", "small", time.Hour, 2*time.Hour))
	eng.Run()
	// Occupy the slot so both contenders queue, then let the policy pick.
	sys.Submit(job("blocker", "other", time.Hour, 2*time.Hour))
	b1 := job("b1", "big", time.Hour, 2*time.Hour)
	s1 := job("s1", "small", time.Hour, 2*time.Hour)
	sys.Submit(s1)
	sys.Submit(b1)
	eng.Run()
	if !(b1.Started < s1.Started) {
		t.Fatalf("share weights ignored: big at %v, small at %v", b1.Started, s1.Started)
	}
}

func TestUsageDecay(t *testing.T) {
	eng := sim.NewEngine(sim.Grid3Epoch)
	sys := New(eng, Config{Name: "condor", Slots: 1, Policy: FairShare{}})
	sys.Submit(job("j", "vo1", 10*time.Hour, 12*time.Hour))
	eng.Run()
	u0 := sys.Usage("vo1")
	if u0 <= 0 {
		t.Fatal("no usage recorded")
	}
	eng.RunUntil(eng.Now() + fairShareHalfLife)
	u1 := sys.Usage("vo1")
	if u1 > u0*0.51 || u1 < u0*0.49 {
		t.Fatalf("usage after one half-life = %v, want ~%v/2", u1, u0)
	}
}

func TestPriorityPolicy(t *testing.T) {
	eng := sim.NewEngine(sim.Grid3Epoch)
	sys := New(eng, Config{Name: "lsf", Slots: 1, Policy: Priority{}, EnforceWall: true})
	sys.Submit(job("block", "a", time.Hour, 2*time.Hour))
	j1 := job("p1", "a", time.Hour, 2*time.Hour)
	j1.Priority = 1
	j5 := job("p5", "a", time.Hour, 2*time.Hour)
	j5.Priority = 5
	j5b := job("p5b", "a", time.Hour, 2*time.Hour)
	j5b.Priority = 5
	sys.Submit(j1)
	sys.Submit(j5)
	sys.Submit(j5b)
	eng.Run()
	if !(j5.Started < j5b.Started && j5b.Started < j1.Started) {
		t.Fatalf("priority order wrong: %v %v %v", j5.Started, j5b.Started, j1.Started)
	}
}

func TestKillRunning(t *testing.T) {
	eng, sys := newSys(t, 4)
	jobs := make([]*Job, 4)
	for i := range jobs {
		jobs[i] = job(fmt.Sprintf("j%d", i), "uscms", 10*time.Hour, 20*time.Hour)
		sys.Submit(jobs[i])
	}
	eng.RunUntil(time.Hour)
	// Whole-site service failure: all uscms jobs die in a group (§6.2).
	n := sys.KillRunning(func(j *Job) bool { return j.VO == "uscms" }, NodeFailure)
	if n != 4 {
		t.Fatalf("killed %d, want 4", n)
	}
	for _, j := range jobs {
		if j.Outcome != NodeFailure {
			t.Fatalf("job %s outcome %v", j.ID, j.Outcome)
		}
	}
	if sys.FreeSlots() != 4 {
		t.Fatalf("slots not freed: %d", sys.FreeSlots())
	}
	// The scheduled completion events must not fire afterwards.
	eng.Run()
	if sys.TotalCompleted() != 0 {
		t.Fatal("killed job later completed")
	}
}

func TestDrainSlotsIdleFirst(t *testing.T) {
	eng, sys := newSys(t, 4)
	sys.Submit(job("j1", "a", 10*time.Hour, 20*time.Hour))
	eng.RunUntil(time.Minute)
	killed := sys.DrainSlots(3) // 3 idle slots absorb it
	if killed != 0 {
		t.Fatalf("drain killed %d jobs with idle slots available", killed)
	}
	if sys.AvailableSlots() != 1 || sys.FreeSlots() != 0 {
		t.Fatalf("available %d free %d", sys.AvailableSlots(), sys.FreeSlots())
	}
}

func TestDrainSlotsKillsYoungest(t *testing.T) {
	eng, sys := newSys(t, 2)
	old := job("old", "a", 10*time.Hour, 20*time.Hour)
	sys.Submit(old)
	eng.RunUntil(time.Hour)
	young := job("young", "a", 10*time.Hour, 20*time.Hour)
	sys.Submit(young)
	eng.RunUntil(2 * time.Hour)
	killed := sys.DrainSlots(1)
	if killed != 1 {
		t.Fatalf("killed %d, want 1", killed)
	}
	if young.State != Done || young.Outcome != NodeFailure {
		t.Fatal("youngest job not the rollover victim")
	}
	if old.State != Running {
		t.Fatal("older job should survive")
	}
	sys.RestoreSlots(1)
	if sys.AvailableSlots() != 2 {
		t.Fatalf("restore failed: %d", sys.AvailableSlots())
	}
	eng.Run()
	if old.Outcome != Completed {
		t.Fatal("survivor did not complete")
	}
}

func TestDrainDoesNotLetQueueStealSlot(t *testing.T) {
	eng, sys := newSys(t, 1)
	running := job("r", "a", 10*time.Hour, 20*time.Hour)
	waiting := job("w", "a", time.Hour, 2*time.Hour)
	sys.Submit(running)
	sys.Submit(waiting)
	eng.RunUntil(time.Minute)
	sys.DrainSlots(1)
	if sys.FreeSlots() != 0 {
		t.Fatalf("free slots = %d after full drain", sys.FreeSlots())
	}
	if waiting.State == Running {
		t.Fatal("queued job started on a drained slot")
	}
	sys.RestoreSlots(1)
	eng.Run()
	if waiting.Outcome != Completed {
		t.Fatal("waiting job never ran after restore")
	}
}

func TestFlushQueue(t *testing.T) {
	eng, sys := newSys(t, 1)
	sys.Submit(job("r", "a", 10*time.Hour, 20*time.Hour))
	sys.Submit(job("q1", "a", time.Hour, 2*time.Hour))
	sys.Submit(job("q2", "a", time.Hour, 2*time.Hour))
	eng.RunUntil(time.Minute)
	if n := sys.FlushQueue(); n != 2 {
		t.Fatalf("flushed %d, want 2", n)
	}
	if sys.QueuedCount() != 0 || sys.RunningCount() != 1 {
		t.Fatal("flush disturbed running job")
	}
}

func TestRecordsDrain(t *testing.T) {
	eng, sys := newSys(t, 2)
	sys.Submit(job("a", "usatlas", time.Hour, 2*time.Hour))
	sys.Submit(job("b", "uscms", 30*time.Hour, 40*time.Hour))
	eng.Run()
	recs := sys.DrainRecords()
	if len(recs) != 2 {
		t.Fatalf("records = %d", len(recs))
	}
	byID := map[string]Record{}
	for _, r := range recs {
		byID[r.JobID] = r
	}
	if byID["a"].VO != "usatlas" || byID["a"].Runtime() != time.Hour {
		t.Fatalf("record a = %+v", byID["a"])
	}
	if byID["b"].Runtime() != 30*time.Hour {
		t.Fatalf("record b runtime = %v", byID["b"].Runtime())
	}
	if len(sys.DrainRecords()) != 0 {
		t.Fatal("drain did not clear records")
	}
}

func TestCloseRejectsSubmissions(t *testing.T) {
	_, sys := newSys(t, 1)
	sys.Close()
	if err := sys.Submit(job("x", "a", time.Hour, 2*time.Hour)); !errors.Is(err, ErrQueueClosed) {
		t.Fatalf("closed submit err = %v", err)
	}
}

func TestManyJobsThroughput(t *testing.T) {
	eng, sys := newSys(t, 10)
	const n = 500
	for i := 0; i < n; i++ {
		sys.Submit(job(fmt.Sprintf("j%03d", i), "ivdgl", time.Hour, 2*time.Hour))
	}
	eng.Run()
	if sys.TotalCompleted() != n {
		t.Fatalf("completed %d/%d", sys.TotalCompleted(), n)
	}
	// 500 1-hour jobs over 10 slots: 50 hours of makespan.
	if eng.Now() != 50*time.Hour {
		t.Fatalf("makespan = %v, want 50h", eng.Now())
	}
	if sys.BusyTime() != 500*time.Hour {
		t.Fatalf("busy time = %v", sys.BusyTime())
	}
}
