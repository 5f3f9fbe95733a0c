package condorg

import (
	"errors"
	"fmt"
	"testing"
	"time"
	"unsafe"

	"grid3/internal/batch"
	"grid3/internal/classad"
	"grid3/internal/dist"
	"grid3/internal/glue"
	"grid3/internal/gram"
	"grid3/internal/gsi"
	"grid3/internal/sim"
	"grid3/internal/site"
)

// rig builds a schedd over two sites with live CE ads.
type rig struct {
	eng    *sim.Engine
	schedd *Schedd
	sites  map[string]*site.Site
	batch  map[string]*batch.System
	gks    map[string]*gram.Gatekeeper
}

func newRig(t *testing.T) *rig {
	t.Helper()
	eng := sim.NewEngine(sim.Grid3Epoch)
	r := &rig{
		eng: eng, schedd: New(eng, 0),
		sites: map[string]*site.Site{}, batch: map[string]*batch.System{},
		gks: map[string]*gram.Gatekeeper{},
	}
	for _, cfg := range []struct {
		name  string
		slots int
		vos   []string
	}{
		{"BNL", 8, []string{"usatlas", "ivdgl"}},
		{"UC", 4, []string{"usatlas"}},
	} {
		accounts := map[string]string{}
		for _, vo := range cfg.vos {
			accounts[vo] = "grp_" + vo
		}
		st := site.MustNew(site.Config{
			Name: cfg.name, Host: cfg.name + ".example.org", CPUs: cfg.slots,
			DiskBytes: 1 << 40, WANMbps: 622, LRMS: glue.PBS,
			MaxWall: 100 * time.Hour, Accounts: accounts,
		})
		bs := batch.New(eng, batch.Config{Name: cfg.name, Slots: cfg.slots, EnforceWall: true, MaxWall: st.MaxWall})
		gm := gsi.NewGridmap()
		gm.Map("/CN=prod", "grp_usatlas")
		gk := gram.New(eng, st, bs, gm)
		r.sites[cfg.name] = st
		r.batch[cfg.name] = bs
		r.gks[cfg.name] = gk
		name := cfg.name
		r.schedd.AddResource(&Resource{
			Name:       name,
			Gatekeeper: gk,
			AdFunc: func() *classad.Ad {
				ce := &glue.CE{
					ID: name, SiteName: name, Host: name, LRMSType: glue.PBS,
					TotalCPUs: cfg.slots, FreeCPUs: r.batch[name].FreeSlots(),
					RunningJobs: r.batch[name].RunningCount(), WaitingJobs: r.batch[name].QueuedCount(),
					MaxWallTime: 100 * time.Hour, VOs: cfg.vos,
				}
				return ce.Ad()
			},
		})
	}
	return r
}

func gridJob(id string, runtime time.Duration) *GridJob {
	return &GridJob{
		ID: id,
		Spec: gram.Spec{
			Subject: "/CN=prod", VO: "usatlas", Executable: "/bin/sim",
			Walltime: runtime * 2, Runtime: runtime, StagingFactor: 1,
		},
	}
}

func TestSubmitMatchRun(t *testing.T) {
	r := newRig(t)
	var doneErr error
	done := false
	j := gridJob("j1", 2*time.Hour)
	j.Owner = DoneFunc(func(_ *GridJob, err error) { done = true; doneErr = err })
	if err := r.schedd.Submit(j); err != nil {
		t.Fatal(err)
	}
	if j.State != Running {
		t.Fatalf("state after submit = %v", j.State)
	}
	r.eng.RunUntil(3 * time.Hour)
	if !done || doneErr != nil {
		t.Fatalf("done=%v err=%v", done, doneErr)
	}
	if j.State != Completed || r.schedd.CompletedCount() != 1 {
		t.Fatalf("state %v completed %d", j.State, r.schedd.CompletedCount())
	}
	// Matchmaking picks BNL: more free CPUs, the job ad has no rank but
	// BestMatch breaks ties deterministically; verify it landed somewhere.
	if j.Site != "BNL" && j.Site != "UC" {
		t.Fatalf("site = %q", j.Site)
	}
}

func TestRankSteersPlacement(t *testing.T) {
	r := newRig(t)
	j := gridJob("ranked", time.Hour)
	j.Ad = classad.NewAd()
	j.Ad.SetExpr("Rank", "TARGET.FreeCpus")
	r.schedd.Submit(j)
	if j.Site != "BNL" {
		t.Fatalf("rank ignored: placed at %s", j.Site)
	}
}

func TestTargetSitePinning(t *testing.T) {
	r := newRig(t)
	j := gridJob("pinned", time.Hour)
	j.TargetSite = "UC"
	r.schedd.Submit(j)
	if j.Site != "UC" {
		t.Fatalf("pinned job placed at %q", j.Site)
	}
}

func TestNoMatchStaysIdle(t *testing.T) {
	r := newRig(t)
	j := gridJob("cms", time.Hour)
	j.Spec.VO = "uscms" // no site supports uscms
	r.schedd.Submit(j)
	if j.State != Idle || r.schedd.IdleCount() != 1 {
		t.Fatalf("state = %v idle = %d", j.State, r.schedd.IdleCount())
	}
	if r.schedd.MatchFailures() == 0 {
		t.Fatal("match failure not counted")
	}
}

func TestThrottleHoldsJobsAtSchedd(t *testing.T) {
	r := newRig(t)
	res, _ := r.schedd.Resource("UC")
	res.MaxSubmitted = 2
	for i := 0; i < 5; i++ {
		j := gridJob(fmt.Sprintf("t%d", i), time.Hour)
		j.TargetSite = "UC"
		r.schedd.Submit(j)
	}
	if got := r.schedd.IdleCount(); got != 3 {
		t.Fatalf("idle = %d, want 3 held back by throttle", got)
	}
	if r.gks["UC"].ManagedJobs() != 2 {
		t.Fatalf("gatekeeper managing %d", r.gks["UC"].ManagedJobs())
	}
	// As jobs finish, the negotiation ticker drains the idle queue.
	r.eng.RunUntil(10 * time.Hour)
	if r.schedd.CompletedCount() != 5 {
		t.Fatalf("completed = %d", r.schedd.CompletedCount())
	}
}

func TestBackoffAfterSiteDown(t *testing.T) {
	r := newRig(t)
	r.sites["BNL"].SetHealthy(false)
	r.sites["UC"].SetHealthy(false)
	j := gridJob("stuck", time.Hour)
	r.schedd.Submit(j)
	if j.State != Idle {
		t.Fatalf("state = %v", j.State)
	}
	// Site recovers; the next negotiation cycles place it after backoff.
	r.sites["BNL"].SetHealthy(true)
	r.sites["UC"].SetHealthy(true)
	r.eng.RunUntil(4 * time.Hour)
	if j.State != Completed {
		t.Fatalf("state after recovery = %v (err %v)", j.State, j.LastErr)
	}
}

func TestRetryAfterRemoteFailure(t *testing.T) {
	r := newRig(t)
	// Under-requested walltime: killed remotely, retried, fails again...
	j := gridJob("flaky", 4*time.Hour)
	j.Spec.Walltime = time.Hour
	j.MaxRetries = 1
	var finalErr error
	j.Owner = DoneFunc(func(_ *GridJob, err error) { finalErr = err })
	r.schedd.Submit(j)
	r.eng.RunUntil(24 * time.Hour)
	if j.State != Held {
		t.Fatalf("state = %v", j.State)
	}
	if !errors.Is(finalErr, ErrExhausted) {
		t.Fatalf("final err = %v", finalErr)
	}
	if j.Attempts != 2 {
		t.Fatalf("attempts = %d, want MaxRetries+1", j.Attempts)
	}
	if r.schedd.HeldCount() != 1 {
		t.Fatal("held counter")
	}
}

func TestAuthFailureDoesNotLoopForever(t *testing.T) {
	r := newRig(t)
	j := gridJob("mallory", time.Hour)
	j.Spec.Subject = "/CN=stranger"
	j.MaxRetries = 1
	var finalErr error
	j.Owner = DoneFunc(func(_ *GridJob, err error) { finalErr = err })
	r.schedd.Submit(j)
	r.eng.RunUntil(time.Hour)
	if j.State != Held || finalErr == nil {
		t.Fatalf("state = %v, err = %v", j.State, finalErr)
	}
}

func TestManyJobsLoadSpread(t *testing.T) {
	r := newRig(t)
	for i := 0; i < 12; i++ {
		j := gridJob(fmt.Sprintf("m%02d", i), time.Hour)
		j.Ad = classad.NewAd()
		j.Ad.SetExpr("Rank", "TARGET.FreeCpus")
		r.schedd.Submit(j)
	}
	// 12 slots total (8 BNL + 4 UC): everything should eventually run.
	r.eng.RunUntil(12 * time.Hour)
	if r.schedd.CompletedCount() != 12 {
		t.Fatalf("completed = %d", r.schedd.CompletedCount())
	}
	if r.batch["UC"].TotalCompleted() == 0 {
		t.Fatal("rank-based spread never used the smaller site")
	}
}

func TestResourceLookupError(t *testing.T) {
	r := newRig(t)
	if _, err := r.schedd.Resource("FNAL"); !errors.Is(err, ErrNoResource) {
		t.Fatalf("err = %v", err)
	}
	if err := r.schedd.Submit(&GridJob{}); err == nil {
		t.Fatal("job without ID accepted")
	}
}

// hooks is an Owner made of two optional functions.
type hooks struct {
	start func(*GridJob)
	done  func(*GridJob, error)
}

func (h hooks) JobStarted(j *GridJob) {
	if h.start != nil {
		h.start(j)
	}
}

func (h hooks) JobDone(j *GridJob, err error) {
	if h.done != nil {
		h.done(j, err)
	}
}

func TestOnStartFires(t *testing.T) {
	r := newRig(t)
	var startedAt []string
	j := gridJob("hooked", time.Hour)
	j.Owner = hooks{start: func(g *GridJob) { startedAt = append(startedAt, g.Site) }}
	r.schedd.Submit(j)
	r.eng.RunUntil(2 * time.Hour)
	if len(startedAt) != 1 || startedAt[0] == "" {
		t.Fatalf("JobStarted calls = %v", startedAt)
	}
	// A retried job tells its owner again on its second launch.
	j2 := gridJob("retry-hooked", 4*time.Hour)
	j2.Spec.Walltime = time.Hour // walltime-killed remotely
	j2.MaxRetries = 1
	starts := 0
	j2.Owner = hooks{start: func(*GridJob) { starts++ }}
	r.schedd.Submit(j2)
	r.eng.RunUntil(24 * time.Hour)
	if starts != 2 {
		t.Fatalf("retried JobStarted fired %d times, want 2", starts)
	}
}

// TestTerminalJobsKeepOnlyTheirRecord: once a job completes or is held,
// JobDone has fired exactly once and the schedd has dropped the job's ad,
// owner and resource, while Job still reports its state, site, contact and
// attempts.
func TestTerminalJobsKeepOnlyTheirRecord(t *testing.T) {
	r := newRig(t)
	ok := gridJob("ok", time.Hour)
	held := gridJob("held", 4*time.Hour)
	held.Spec.Walltime = time.Hour // walltime-killed remotely on every attempt
	held.MaxRetries = 1
	dones := map[string]int{}
	for _, j := range []*GridJob{ok, held} {
		j.Owner = hooks{done: func(g *GridJob, _ error) { dones[g.ID]++ }}
		if err := r.schedd.Submit(j); err != nil {
			t.Fatal(err)
		}
	}
	r.eng.RunUntil(24 * time.Hour)
	for _, c := range []struct {
		id       string
		state    JobState
		attempts int
	}{{"ok", Completed, 1}, {"held", Held, 2}} {
		j, found := r.schedd.Job(c.id)
		if !found {
			t.Fatalf("%s: Job lookup failed", c.id)
		}
		if dones[c.id] != 1 {
			t.Errorf("%s: JobDone fired %d times, want 1", c.id, dones[c.id])
		}
		if j.Ad != nil || j.Owner != nil || j.res != nil {
			t.Errorf("%s: terminal job keeps ad %v, owner %v, resource %v",
				c.id, j.Ad != nil, j.Owner != nil, j.res != nil)
		}
		if j.State != c.state || j.Attempts != c.attempts || j.Site == "" || j.Contact == "" {
			t.Errorf("%s: record = state %v attempts %d site %q contact %q, want %v after %d attempts",
				c.id, j.State, j.Attempts, j.Site, j.Contact, c.state, c.attempts)
		}
	}
}

func TestMaxMatchesPerCycle(t *testing.T) {
	r := newRig(t)
	r.schedd.MaxMatchesPerCycle = 3
	// Pin to an unhealthy site so nothing places; the cap bounds the
	// work per cycle but never loses jobs.
	r.sites["UC"].SetHealthy(false)
	for i := 0; i < 10; i++ {
		j := gridJob(fmt.Sprintf("capped%d", i), time.Hour)
		j.TargetSite = "UC"
		r.schedd.Submit(j)
	}
	if got := r.schedd.IdleCount(); got != 10 {
		t.Fatalf("idle = %d, want all 10 retained", got)
	}
	r.sites["UC"].SetHealthy(true)
	r.eng.RunUntil(48 * time.Hour)
	if r.schedd.CompletedCount() != 10 {
		t.Fatalf("completed = %d, want 10", r.schedd.CompletedCount())
	}
}

func TestAllResourcesThrottledFastPath(t *testing.T) {
	r := newRig(t)
	for _, name := range []string{"BNL", "UC"} {
		res, _ := r.schedd.Resource(name)
		res.MaxSubmitted = 1
	}
	for i := 0; i < 6; i++ {
		r.schedd.Submit(gridJob(fmt.Sprintf("f%d", i), time.Hour))
	}
	// Two in flight (one per resource), four idle; the fast path must
	// not drop them and the ticker drains everything eventually.
	if got := r.schedd.IdleCount(); got != 4 {
		t.Fatalf("idle = %d, want 4", got)
	}
	r.eng.RunUntil(24 * time.Hour)
	if r.schedd.CompletedCount() != 6 {
		t.Fatalf("completed = %d", r.schedd.CompletedCount())
	}
}

func TestBackoffJitterSpreadsRetries(t *testing.T) {
	// Two schedds see the same down site; with distinct jitter streams
	// their GridManager backoff windows must not stay in lockstep.
	until := func(seed int64) []time.Duration {
		r := newRig(t)
		r.schedd.BackoffJitter = dist.New(seed)
		r.sites["UC"].SetHealthy(false)
		j := gridJob("storm", time.Hour)
		j.TargetSite = "UC"
		r.schedd.Submit(j)
		var out []time.Duration
		res, _ := r.schedd.Resource("UC")
		for i := 0; i < 5; i++ {
			r.eng.RunFor(2 * time.Hour)
			out = append(out, res.backoffUntil)
		}
		return out
	}
	a := until(1)
	b := until(2)
	same := true
	for i := range a {
		if a[i] != b[i] {
			same = false
		}
	}
	if same {
		t.Fatalf("different jitter seeds produced identical backoff schedules: %v", a)
	}
	// Same seed must reproduce the schedule exactly (determinism).
	c := until(1)
	for i := range a {
		if a[i] != c[i] {
			t.Fatalf("same seed diverged: %v vs %v", a, c)
		}
	}
}

func TestJitterStaysWithinBackoffEnvelope(t *testing.T) {
	r := newRig(t)
	r.schedd.BackoffJitter = dist.New(7)
	r.sites["UC"].SetHealthy(false)
	j := gridJob("envelope", time.Hour)
	j.TargetSite = "UC"
	r.schedd.Submit(j) // first failure: step = initialBackoff, jittered ±25%
	res, _ := r.schedd.Resource("UC")
	delay := res.backoffUntil - r.eng.Now()
	lo := time.Duration(float64(initialBackoff) * (1 - backoffJitterFrac))
	hi := time.Duration(float64(initialBackoff) * (1 + backoffJitterFrac))
	if delay < lo || delay > hi {
		t.Fatalf("first jittered backoff %v outside [%v, %v]", delay, lo, hi)
	}
}

func TestExcludeSkipsSiteInMatchmaking(t *testing.T) {
	r := newRig(t)
	r.schedd.Exclude = func(site string) bool { return site == "BNL" }
	j := gridJob("steer", time.Hour)
	j.Ad = classad.NewAd()
	j.Ad.SetExpr("Rank", "TARGET.FreeCpus") // would pick BNL (8 > 4 CPUs)
	r.schedd.Submit(j)
	if j.Site != "UC" {
		t.Fatalf("excluded site still used: placed at %q", j.Site)
	}
}

func TestExcludedPinFallsBackToMatchmaking(t *testing.T) {
	r := newRig(t)
	r.schedd.Exclude = func(site string) bool { return site == "UC" }
	j := gridJob("pinned-sick", time.Hour)
	j.TargetSite = "UC"
	r.schedd.Submit(j)
	if j.Site != "BNL" {
		t.Fatalf("pinned job did not fall back: site %q state %v", j.Site, j.State)
	}
	// Without Exclude the pin is honored (regression guard).
	r2 := newRig(t)
	j2 := gridJob("pinned-ok", time.Hour)
	j2.TargetSite = "UC"
	r2.schedd.Submit(j2)
	if j2.Site != "UC" {
		t.Fatalf("pin not honored without exclusion: %q", j2.Site)
	}
}

func TestAvoidFailedSitesSteersRetry(t *testing.T) {
	r := newRig(t)
	r.schedd.AvoidFailedSites = true
	// Under-requested walltime: the job is killed wherever it runs, so
	// without avoidance the retry would land on the same best-ranked site.
	j := gridJob("avoider", 4*time.Hour)
	j.Spec.Walltime = time.Hour
	j.MaxRetries = 1
	j.Ad = classad.NewAd()
	j.Ad.SetExpr("Rank", "TARGET.FreeCpus")
	r.schedd.Submit(j)
	first := j.Site
	if first == "" {
		t.Fatalf("job not placed")
	}
	r.eng.RunUntil(24 * time.Hour)
	if j.Site == first {
		t.Fatalf("retry landed on the failed site %q again", first)
	}
	failedRes, err := r.schedd.Resource(first)
	if err != nil {
		t.Fatalf("failed site %q not registered: %v", first, err)
	}
	if !j.avoid[failedRes] {
		t.Fatalf("failed site %q not recorded: %v", first, j.avoid)
	}
}

// A negotiation cycle over an idle queue that cannot be placed refills the
// previous cycle's drained buffer, so its allocations do not grow with the
// queue.
func TestNegotiateSteadyQueueAllocations(t *testing.T) {
	cycleAllocs := func(queued int) float64 {
		eng := sim.NewEngine(sim.Grid3Epoch)
		s := New(eng, 0)
		ad := (&glue.CE{
			ID: "BNL", SiteName: "BNL", Host: "BNL", LRMSType: glue.PBS, TotalCPUs: 8, FreeCPUs: 8,
			MaxWallTime: 100 * time.Hour, VOs: []string{"usatlas"},
		}).Ad()
		s.AddResource(&Resource{Name: "BNL", AdFunc: func() *classad.Ad { return ad }})
		for i := 0; i < queued; i++ {
			j := gridJob(fmt.Sprintf("cms%d", i), time.Hour)
			j.Spec.VO = "uscms" // BNL does not support uscms
			s.Submit(j)
		}
		s.Negotiate() // the first cycle leaves a drained buffer behind
		allocs := testing.AllocsPerRun(10, s.Negotiate)
		if s.IdleCount() != queued {
			t.Fatalf("idle = %d, want %d", s.IdleCount(), queued)
		}
		return allocs
	}
	if small, large := cycleAllocs(10), cycleAllocs(2000); large > small {
		t.Fatalf("a cycle over 2000 idle jobs made %v allocations, over 10 made %v", large, small)
	}
}

// A job pinned to a site whose CE ad refuses it (its walltime is above the
// site's MaxWallTime) is asked about again at every negotiation cycle. The
// refusal is remembered on the job ad, and the collector's load refresh
// between cycles does not clear it: each cycle still counts a match
// failure, and a refused re-ask allocates nothing. Raising MaxWallTime
// ends it on the next cycle, and an open breaker sends the job to the full
// scan. Only a refusal allocates the memo, which lives behind a pointer
// the ad already had, so neither record grows.
func TestPinnedRefusalIsRemembered(t *testing.T) {
	if got := unsafe.Sizeof(GridJob{}); got != 256 {
		t.Errorf("GridJob is %d bytes, want 256", got)
	}
	if got := unsafe.Sizeof(classad.Ad{}); got != 32 {
		t.Errorf("classad.Ad is %d bytes, want 32", got)
	}
	r := newRig(t)
	ad := (&glue.CE{
		ID: "UC", SiteName: "UC", Host: "UC", LRMSType: glue.PBS, TotalCPUs: 4, FreeCPUs: 4,
		MaxWallTime: time.Hour, VOs: []string{"usatlas"},
	}).Ad()
	uc, _ := r.schedd.Resource("UC")
	uc.AdFunc = func() *classad.Ad { return ad }
	breaker := false
	uc.Excluded = func() bool { return breaker }

	j := gridJob("pinned", time.Hour) // walltime 2 h
	j.TargetSite = "UC"
	r.schedd.Submit(j)
	for cycle := 1; cycle <= 3; cycle++ {
		glue.SetAdLoad(ad, 4-cycle, cycle, 2*cycle)
		r.schedd.Negotiate()
		if got := r.schedd.MatchFailures(); got != 1+cycle || j.State != Idle {
			t.Fatalf("cycle %d: %d match failures, state %v; want %d, idle", cycle, got, j.State, 1+cycle)
		}
	}
	glue.SetAdLoad(ad, 4, 0, 0)
	if allocs := testing.AllocsPerRun(20, r.schedd.Negotiate); allocs != 0 {
		t.Fatalf("a cycle that re-asks a refused pinned job made %v allocations, want 0", allocs)
	}

	ad.SetInt("MaxWallTime", int64(3*time.Hour/time.Second))
	r.schedd.Negotiate()
	if j.State != Running || j.Site != "UC" {
		t.Fatalf("after MaxWallTime was raised: state %v at %q, want running at UC", j.State, j.Site)
	}

	ad.SetInt("MaxWallTime", int64(time.Hour/time.Second))
	k := gridJob("pinned-sick", time.Hour)
	k.TargetSite = "UC"
	r.schedd.Submit(k)
	r.schedd.Negotiate()
	if k.State != Idle {
		t.Fatalf("job refused by UC is %v", k.State)
	}
	breaker = true
	r.schedd.Negotiate()
	if k.State != Running || k.Site != "BNL" {
		t.Fatalf("with UC's breaker open: state %v at %q, want running at BNL", k.State, k.Site)
	}
	breaker = false

	// First asks of fresh pinned jobs: one that matches allocates nothing,
	// one that is refused allocates its own ad's memo and no more.
	firstAsk := func(walltime time.Duration) float64 {
		jobs := make([]*GridJob, 21)
		for i := range jobs {
			jobs[i] = gridJob(fmt.Sprintf("fresh-%d", i), time.Hour)
			jobs[i].TargetSite = "UC"
			jobs[i].Ad = classad.NewAd()
			jobs[i].Ad.SetString("vo", "usatlas")
			jobs[i].Ad.SetInt("walltime", int64(walltime/time.Second))
		}
		n := 0
		return testing.AllocsPerRun(20, func() {
			r.schedd.pickResource(jobs[n], r.eng.Now())
			n++
		})
	}
	if allocs := firstAsk(time.Hour); allocs != 0 {
		t.Errorf("a pinned job that matched on its first ask made %v allocations, want 0", allocs)
	}
	if allocs := firstAsk(2 * time.Hour); allocs != 1 {
		t.Errorf("a pinned job refused on its first ask made %v allocations, want 1", allocs)
	}
}
