package apps

import (
	"fmt"
	"math"
	"testing"
	"time"

	"grid3/internal/dist"
	"grid3/internal/sim"
	"grid3/internal/vo"
)

const scenarioHorizon = 183 * 24 * time.Hour // Oct 23 2003 – Apr 23 2004

func TestGrid3ClassesCalibration(t *testing.T) {
	classes := Grid3Classes()
	if len(classes) != 7 {
		t.Fatalf("classes = %d", len(classes))
	}
	users := 0
	for _, c := range classes {
		users += c.Users
		if c.TotalJobs <= 0 || c.MeanRuntime <= 0 || c.MaxRuntime < c.MeanRuntime {
			t.Errorf("class %s has bad calibration: %+v", c.VO, c)
		}
		var sum float64
		for _, w := range c.MonthWeights {
			if w < 0 {
				t.Errorf("class %s negative month weight", c.VO)
			}
			sum += w
		}
		if sum <= 0 {
			t.Errorf("class %s has no production profile", c.VO)
		}
		if len(c.UserDNs()) != c.Users {
			t.Errorf("class %s UserDNs = %d", c.VO, len(c.UserDNs()))
		}
	}
	// Table 1 user total: 1+24+7+9+25+26+3 = 95 (plus admins elsewhere).
	if users != 95 {
		t.Fatalf("total users = %d, want 95", users)
	}
	if _, ok := ClassByVO(classes, vo.USCMS); !ok {
		t.Fatal("ClassByVO failed")
	}
	if _, ok := ClassByVO(classes, "nope"); ok {
		t.Fatal("phantom class")
	}
}

func TestMonthWindows(t *testing.T) {
	ws := MonthWindows(sim.Grid3Epoch, scenarioHorizon)
	if len(ws) != 7 {
		t.Fatalf("windows = %d: %v", len(ws), ws)
	}
	if ws[0].Label != "10-2003" || ws[6].Label != "04-2004" {
		t.Fatalf("labels = %v .. %v", ws[0].Label, ws[6].Label)
	}
	// October window is the 9 partial days from Oct 23.
	if ws[0].Start != 0 || ws[0].End != 9*24*time.Hour {
		t.Fatalf("october window = %+v", ws[0])
	}
	// February 2004 is a leap month: 29 days.
	feb := ws[4]
	if feb.Label != "02-2004" || feb.End-feb.Start != 29*24*time.Hour {
		t.Fatalf("february window = %+v", feb)
	}
	// Contiguous coverage.
	for i := 1; i < len(ws); i++ {
		if ws[i].Start != ws[i-1].End {
			t.Fatalf("gap between %+v and %+v", ws[i-1], ws[i])
		}
	}
	if ws[6].End != scenarioHorizon {
		t.Fatalf("horizon clamp = %v", ws[6].End)
	}
}

func TestGeneratorJobCountAndRuntimes(t *testing.T) {
	eng := sim.NewEngine(sim.Grid3Epoch)
	rng := dist.New(42)
	var reqs []Request
	classes := Grid3Classes()
	cms, _ := ClassByVO(classes, vo.USCMS)
	g := NewGenerator(eng, rng, sim.Grid3Epoch, cms, SubmitterFunc(func(r Request) {
		reqs = append(reqs, r)
	}), []string{"FNAL", "UFlorida", "UCSD"})
	g.Start(scenarioHorizon)
	eng.RunUntil(scenarioHorizon)

	n := len(reqs)
	if math.Abs(float64(n)-float64(cms.TotalJobs))/float64(cms.TotalJobs) > 0.15 {
		t.Fatalf("generated %d jobs, want ~%d", n, cms.TotalJobs)
	}
	// Mean runtime tracks the Table 1 column.
	var sum time.Duration
	var maxRT time.Duration
	pinned := 0
	fnal := 0
	under := 0
	for _, r := range reqs {
		sum += r.Runtime
		if r.Runtime > maxRT {
			maxRT = r.Runtime
		}
		if r.Preferred != "" {
			pinned++
			if r.Preferred == "FNAL" {
				fnal++
			}
		}
		if r.Walltime < r.Runtime {
			under++
		}
		if r.VO != vo.USCMS || r.User == "" || r.ID == "" {
			t.Fatalf("malformed request %+v", r)
		}
	}
	meanH := sum.Hours() / float64(n)
	if math.Abs(meanH-41.85)/41.85 > 0.20 {
		t.Fatalf("mean runtime = %.2f h, want ~41.85", meanH)
	}
	if maxRT > 1239*time.Hour {
		t.Fatalf("max runtime %v beyond Table 1 cap", maxRT)
	}
	// Affinity: pinned fraction tracks the class's calibrated probability,
	// and the favorite site dominates within the pinned set.
	pinFrac := float64(pinned) / float64(n)
	if math.Abs(pinFrac-cms.AffinityProb) > 0.1 {
		t.Fatalf("pinned fraction = %.2f, want ~%.2f", pinFrac, cms.AffinityProb)
	}
	favFrac := float64(fnal) / float64(pinned)
	if math.Abs(favFrac-cms.FavoriteShare-(1-cms.FavoriteShare)/3) > 0.12 {
		t.Fatalf("favorite-site share = %.2f", favFrac)
	}
	// A few percent underestimate their walltime.
	underFrac := float64(under) / float64(n)
	if underFrac < 0.01 || underFrac > 0.12 {
		t.Fatalf("underestimate fraction = %.3f", underFrac)
	}
}

func TestGeneratorMonthProfile(t *testing.T) {
	eng := sim.NewEngine(sim.Grid3Epoch)
	rng := dist.New(7)
	byMonth := map[string]int{}
	classes := Grid3Classes()
	btev, _ := ClassByVO(classes, vo.BTeV)
	months := MonthWindows(sim.Grid3Epoch, scenarioHorizon)
	g := NewGenerator(eng, rng, sim.Grid3Epoch, btev, SubmitterFunc(func(r Request) {
		now := eng.Now()
		for _, m := range months {
			if now >= m.Start && now < m.End {
				byMonth[m.Label]++
				return
			}
		}
	}), nil)
	g.Start(scenarioHorizon)
	eng.RunUntil(scenarioHorizon)
	// BTeV's production peaks hard in November 2003 (91% weight).
	total := 0
	for _, n := range byMonth {
		total += n
	}
	if total == 0 {
		t.Fatal("nothing generated")
	}
	novShare := float64(byMonth["11-2003"]) / float64(total)
	if novShare < 0.75 {
		t.Fatalf("november share = %.2f (%v)", novShare, byMonth)
	}
}

func TestGeneratorDeterministic(t *testing.T) {
	gen := func() []Request {
		eng := sim.NewEngine(sim.Grid3Epoch)
		rng := dist.New(99)
		var reqs []Request
		classes := Grid3Classes()
		sdss, _ := ClassByVO(classes, vo.SDSS)
		g := NewGenerator(eng, rng, sim.Grid3Epoch, sdss, SubmitterFunc(func(r Request) {
			reqs = append(reqs, r)
		}), []string{"FNAL"})
		g.Start(scenarioHorizon)
		eng.RunUntil(scenarioHorizon)
		return reqs
	}
	a, b := gen(), gen()
	if len(a) != len(b) {
		t.Fatalf("lengths differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("request %d differs", i)
		}
	}
}

// memTransferSvc completes transfers instantly.
type memTransferSvc struct {
	calls int
	bytes int64
	fail  bool
}

func (m *memTransferSvc) StartTransfer(src, dst string, n int64, label string, done func(error)) {
	m.calls++
	m.bytes += n
	if m.fail {
		done(errTest)
		return
	}
	done(nil)
}

var errTest = &testErr{}

type testErr struct{}

func (*testErr) Error() string { return "test" }

func TestTransferDemoDailyTarget(t *testing.T) {
	eng := sim.NewEngine(sim.Grid3Epoch)
	rng := dist.New(3)
	svc := &memTransferSvc{}
	d := NewTransferDemo(eng, rng, svc, []string{"BNL", "FNAL", "UC", "Caltech"})
	d.Start()
	eng.RunUntil(10 * 24 * time.Hour)
	d.Stop()
	rate := d.DailyRate(eng.Now())
	target := float64(d.DailyTargetBytes)
	if math.Abs(rate-target)/target > 0.25 {
		t.Fatalf("daily rate = %.2f TB, want ~%.2f TB",
			rate/(1<<40), target/(1<<40))
	}
	if d.Completed() != d.Started() || d.Failed() != 0 {
		t.Fatalf("counters: started %d completed %d failed %d", d.Started(), d.Completed(), d.Failed())
	}
}

func TestTransferDemoFailuresCounted(t *testing.T) {
	eng := sim.NewEngine(sim.Grid3Epoch)
	rng := dist.New(3)
	svc := &memTransferSvc{fail: true}
	d := NewTransferDemo(eng, rng, svc, []string{"A", "B"})
	d.Start()
	eng.RunUntil(2 * time.Hour)
	d.Stop()
	if d.Failed() == 0 || d.Completed() != 0 {
		t.Fatalf("failed %d completed %d", d.Failed(), d.Completed())
	}
	if d.BytesMoved() != 0 {
		t.Fatal("failed transfers counted as moved bytes")
	}
}

func TestTransferDemoNeedsTwoSites(t *testing.T) {
	eng := sim.NewEngine(sim.Grid3Epoch)
	svc := &memTransferSvc{}
	d := NewTransferDemo(eng, dist.New(1), svc, []string{"only"})
	d.Start()
	eng.RunUntil(2 * time.Hour)
	d.Stop()
	if svc.calls != 0 {
		t.Fatal("single-site matrix transferred")
	}
}

// requestID writes what the fmt format it replaces wrote.
func TestRequestIDMatchesFmt(t *testing.T) {
	for _, n := range []int{0, 1, 99_999_999, 100_000_000, math.MaxInt} {
		if got, want := requestID("usatlas", n), fmt.Sprintf("%s-%06d", "usatlas", n); got != want {
			t.Errorf("requestID(%d) = %q, want %q", n, got, want)
		}
	}
}
