package gram

import (
	"errors"
	"fmt"
	"math"
	"testing"
	"time"

	"grid3/internal/batch"
	"grid3/internal/glue"
	"grid3/internal/gsi"
	"grid3/internal/sim"
	"grid3/internal/site"
)

type rig struct {
	eng  *sim.Engine
	site *site.Site
	bs   *batch.System
	gk   *Gatekeeper
}

func newRig(t *testing.T, slots int) *rig {
	t.Helper()
	eng := sim.NewEngine(sim.Grid3Epoch)
	st := site.MustNew(site.Config{
		Name: "IU_iuatlas", Host: "atlas.iu.edu", Tier: 2, CPUs: slots,
		DiskBytes: 1 << 40, WANMbps: 622, LRMS: glue.PBS, MaxWall: 100 * time.Hour,
		OwnerVO:  "usatlas",
		Accounts: map[string]string{"usatlas": "grp_usatlas", "ivdgl": "grp_ivdgl"},
	})
	bs := batch.New(eng, batch.Config{
		Name: st.Name, Slots: slots, Policy: batch.FIFO{}, EnforceWall: true, MaxWall: st.MaxWall,
	})
	gm := gsi.NewGridmap()
	gm.Map("/CN=atlas-prod", "grp_usatlas")
	gm.Map("/CN=ivdgl-user", "grp_ivdgl")
	gk := New(eng, st, bs, gm)
	return &rig{eng: eng, site: st, bs: bs, gk: gk}
}

// stateLog is a Watcher that records the states it is told of.
type stateLog []JobState

func (l *stateLog) StateChanged(_ *Job, st JobState) { *l = append(*l, st) }

func spec(subject, vo string, runtime time.Duration) Spec {
	return Spec{
		Subject: subject, VO: vo, Executable: "/bin/sim",
		Walltime: runtime * 2, Runtime: runtime, StagingFactor: 1,
	}
}

func TestSubmitLifecycle(t *testing.T) {
	r := newRig(t, 2)
	var states stateLog
	j, err := r.gk.Submit(spec("/CN=atlas-prod", "usatlas", 2*time.Hour), &states)
	if err != nil {
		t.Fatal(err)
	}
	if j.Account != "grp_usatlas" {
		t.Fatalf("account = %q", j.Account)
	}
	r.eng.Run()
	st, err := r.gk.Poll(j.ID)
	if err != nil || st != StateDone {
		t.Fatalf("final state = %v, %v", st, err)
	}
	// Free slot: job goes straight to ACTIVE, then DONE.
	if len(states) != 2 || states[0] != StateActive || states[1] != StateDone {
		t.Fatalf("state sequence = %v", states)
	}
	if r.gk.CompletedCount() != 1 {
		t.Fatal("completed counter")
	}
}

func TestPendingWhenQueued(t *testing.T) {
	r := newRig(t, 1)
	r.gk.Submit(spec("/CN=atlas-prod", "usatlas", 5*time.Hour), nil)
	var states stateLog
	j, err := r.gk.Submit(spec("/CN=atlas-prod", "usatlas", time.Hour), &states)
	if err != nil {
		t.Fatal(err)
	}
	if got, _ := r.gk.Poll(j.ID); got != StatePending {
		t.Fatalf("queued job state = %v", got)
	}
	r.eng.Run()
	if len(states) != 3 || states[0] != StatePending || states[1] != StateActive || states[2] != StateDone {
		t.Fatalf("state sequence = %v", states)
	}
}

func TestAuthRejections(t *testing.T) {
	r := newRig(t, 2)
	// Unknown DN.
	if _, err := r.gk.Submit(spec("/CN=stranger", "usatlas", time.Hour), nil); !errors.Is(err, ErrNotAuthorized) {
		t.Fatalf("stranger err = %v", err)
	}
	// Known DN, unsupported VO at site.
	if _, err := r.gk.Submit(spec("/CN=atlas-prod", "uscms", time.Hour), nil); !errors.Is(err, ErrNotAuthorized) {
		t.Fatalf("unsupported VO err = %v", err)
	}
	// Known DN claiming the wrong VO (account mismatch).
	if _, err := r.gk.Submit(spec("/CN=ivdgl-user", "usatlas", time.Hour), nil); !errors.Is(err, ErrNotAuthorized) {
		t.Fatalf("VO spoof err = %v", err)
	}
	if r.gk.Rejected() != 3 {
		t.Fatalf("rejected = %d", r.gk.Rejected())
	}
}

func TestSpecValidation(t *testing.T) {
	r := newRig(t, 1)
	bad := []Spec{
		{VO: "usatlas", Walltime: 1, Runtime: 1},
		{Subject: "/CN=x", Walltime: 1, Runtime: 1},
		{Subject: "/CN=x", VO: "v", Runtime: 1},
		{Subject: "/CN=x", VO: "v", Walltime: 1},
		{Subject: "/CN=x", VO: "v", Walltime: 1, Runtime: 1, StagingFactor: -1},
	}
	for i, s := range bad {
		if _, err := r.gk.Submit(s, nil); !errors.Is(err, ErrBadSpec) {
			t.Errorf("case %d err = %v", i, err)
		}
	}
}

func TestSiteDownRejectsSubmissions(t *testing.T) {
	r := newRig(t, 1)
	r.site.SetHealthy(false)
	if _, err := r.gk.Submit(spec("/CN=atlas-prod", "usatlas", time.Hour), nil); !errors.Is(err, ErrSiteDown) {
		t.Fatalf("down-site err = %v", err)
	}
}

func TestCancel(t *testing.T) {
	r := newRig(t, 1)
	j, _ := r.gk.Submit(spec("/CN=atlas-prod", "usatlas", 10*time.Hour), nil)
	r.eng.RunUntil(time.Hour)
	if err := r.gk.Cancel(j.ID); err != nil {
		t.Fatal(err)
	}
	if st, _ := r.gk.Poll(j.ID); st != StateFailed {
		t.Fatalf("cancelled state = %v", st)
	}
	if err := r.gk.Cancel(j.ID); err != nil {
		t.Fatal("cancel of terminal job should be a no-op")
	}
	if err := r.gk.Cancel("https://nowhere/99"); !errors.Is(err, ErrNoSuchJob) {
		t.Fatalf("cancel unknown err = %v", err)
	}
}

func TestWalltimeKillIsFailure(t *testing.T) {
	r := newRig(t, 1)
	s := spec("/CN=atlas-prod", "usatlas", 10*time.Hour)
	s.Walltime = 2 * time.Hour // under-requested
	j, err := r.gk.Submit(s, nil)
	if err != nil {
		t.Fatal(err)
	}
	r.eng.Run()
	if j.State != StateFailed || j.FailureReason != "walltime-exceeded" {
		t.Fatalf("state %v reason %q", j.State, j.FailureReason)
	}
	if r.gk.FailedCount() != 1 {
		t.Fatal("failed counter")
	}
}

func TestLoadModelSustained(t *testing.T) {
	// ~1000 managed jobs at staging factor 1 → load ≈ 225 (§6.4).
	r := newRig(t, 1000)
	r.gk.OverloadThreshold = 1e9
	for i := 0; i < 1000; i++ {
		if _, err := r.gk.Submit(spec("/CN=atlas-prod", "usatlas", 48*time.Hour), nil); err != nil {
			t.Fatal(err)
		}
	}
	// Let the submission spike decay (several 1-minute windows).
	r.eng.RunUntil(30 * time.Minute)
	load := r.gk.Load()
	if load < 215 || load > 235 {
		t.Fatalf("sustained load = %.1f, want ~225 per the paper", load)
	}
	if r.gk.ManagedJobs() != 1000 {
		t.Fatalf("managed = %d", r.gk.ManagedJobs())
	}
}

func TestLoadModelStagingFactor(t *testing.T) {
	r := newRig(t, 1000)
	r.gk.OverloadThreshold = 1e9
	for i := 0; i < 500; i++ {
		s := spec("/CN=atlas-prod", "usatlas", 48*time.Hour)
		s.StagingFactor = 4 // substantial file staging
		if _, err := r.gk.Submit(s, nil); err != nil {
			t.Fatal(err)
		}
	}
	r.eng.RunUntil(30 * time.Minute)
	load := r.gk.Load()
	// 500 jobs × 0.225 × 4 = 450.
	if load < 440 || load > 460 {
		t.Fatalf("staged load = %.1f, want ~450", load)
	}
}

func TestOverloadRejectsSubmissions(t *testing.T) {
	r := newRig(t, 5000)
	overloaded := 0
	for i := 0; i < 4000; i++ {
		_, err := r.gk.Submit(spec("/CN=atlas-prod", "usatlas", 48*time.Hour), nil)
		if errors.Is(err, ErrOverloaded) {
			overloaded++
		} else if err != nil {
			t.Fatal(err)
		}
	}
	if overloaded == 0 {
		t.Fatal("no submissions rejected despite load past threshold")
	}
	if r.gk.Load() < r.gk.OverloadThreshold*0.8 {
		t.Fatalf("load = %.0f after rejection onset", r.gk.Load())
	}
}

func TestSubmissionSpikeLoad(t *testing.T) {
	// "short duration high frequency computational jobs tend to sharply
	// increase the gatekeeper loading": a submission burst must raise Load
	// beyond the sustained term even with few managed jobs.
	r := newRig(t, 10)
	r.gk.OverloadThreshold = 1e9
	for i := 0; i < 100; i++ {
		r.gk.Submit(spec("/CN=atlas-prod", "usatlas", time.Minute), nil)
	}
	burstLoad := r.gk.Load()
	sustainedOnly := loadPerJob * 10 // only 10 can be managed at once... queue holds the rest
	if burstLoad < sustainedOnly+20 {
		t.Fatalf("burst load %.1f shows no submission spike", burstLoad)
	}
	// The spike decays once submissions stop.
	r.eng.RunUntil(20 * time.Minute)
	if r.gk.Load() > burstLoad/2 {
		t.Fatalf("load did not decay: %.1f -> %.1f", burstLoad, r.gk.Load())
	}
}

func TestFailAllManaged(t *testing.T) {
	r := newRig(t, 4)
	var jobs []*Job
	for i := 0; i < 8; i++ {
		j, err := r.gk.Submit(spec("/CN=atlas-prod", "usatlas", 10*time.Hour), nil)
		if err != nil {
			t.Fatal(err)
		}
		jobs = append(jobs, j)
	}
	r.eng.RunUntil(time.Hour)
	n := r.gk.FailAllManaged("gatekeeper service failure")
	if n != 8 {
		t.Fatalf("failed %d, want 8 (4 active + 4 pending)", n)
	}
	for _, j := range jobs {
		if j.State != StateFailed || j.FailureReason != "gatekeeper service failure" {
			t.Fatalf("job %s: %v %q", j.ID, j.State, j.FailureReason)
		}
	}
}

func TestPollUnknownJob(t *testing.T) {
	r := newRig(t, 1)
	if _, err := r.gk.Poll("https://nope/1"); !errors.Is(err, ErrNoSuchJob) {
		t.Fatalf("err = %v", err)
	}
	if _, err := r.gk.Job("https://nope/1"); !errors.Is(err, ErrNoSuchJob) {
		t.Fatalf("err = %v", err)
	}
}

func TestContactIDsUnique(t *testing.T) {
	r := newRig(t, 100)
	seen := map[string]bool{}
	for i := 0; i < 50; i++ {
		j, err := r.gk.Submit(spec("/CN=atlas-prod", "usatlas", time.Hour), nil)
		if err != nil {
			t.Fatal(err)
		}
		if seen[j.ID] {
			t.Fatalf("duplicate contact %s", j.ID)
		}
		seen[j.ID] = true
		if want := fmt.Sprintf("https://%s:2119/", r.site.Host); len(j.ID) <= len(want) {
			t.Fatalf("contact format %q", j.ID)
		}
	}
}

// contactID writes what the fmt format it replaces wrote.
func TestContactIDMatchesFmt(t *testing.T) {
	for _, n := range []int64{0, 1, 99_999_999, 100_000_000, math.MaxInt64} {
		if got, want := contactID("atlas.iu.edu", n), fmt.Sprintf("https://%s:2119/%d", "atlas.iu.edu", n); got != want {
			t.Errorf("contactID(%d) = %q, want %q", n, got, want)
		}
	}
}
