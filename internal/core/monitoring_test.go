package core

import (
	"fmt"
	"math"
	"strings"
	"testing"
	"time"

	"grid3/internal/apps"
	"grid3/internal/dial"
	"grid3/internal/gridftp"
	"grid3/internal/obs"
	"grid3/internal/vo"
)

// TestMonitoringCrosscheck exercises the §5.2 observation that "similar
// information [is] collected by different paths ... permitting crosschecks
// on the data collected": the ACDC job warehouse (pull from batch logs)
// and the MonALISA repository (periodic sampling of running-job gauges)
// must agree on how much CPU one site delivered.
func TestMonitoringCrosscheck(t *testing.T) {
	g, err := New(Config{Seed: 31, MonitorInterval: 10 * time.Minute})
	if err != nil {
		t.Fatal(err)
	}
	const siteName = "BNL_ATLAS_Tier1" // dedicated: no local load in the gauge
	// A steady stream of ATLAS jobs at one site for two days.
	for i := 0; i < 40; i++ {
		delay := time.Duration(i) * time.Hour
		i := i
		g.Eng.Schedule(delay, func() {
			g.SubmitJob(apps.Request{
				ID: "xc", VO: vo.USATLAS,
				User:      "/DC=org/DC=doegrids/OU=People/CN=usatlas user 00",
				Runtime:   6 * time.Hour,
				Walltime:  8 * time.Hour,
				Preferred: siteName,
			})
			_ = i
		})
	}
	g.Eng.RunUntil(72 * time.Hour)
	g.ACDC.Pull()

	// Path 1: ACDC records → CPU-days at the site.
	acdcDays := g.ACDC.CPUDaysBySiteForVO(vo.USATLAS, 0, 72*time.Hour)[siteName]

	// Path 2: MonALISA running-jobs series → integrate CPUs over time.
	// The hourly archive (index 1) spans the whole window; the 5-minute
	// ring only keeps the last 48 h.
	pts, err := g.Repo.History(siteName, "grid3.jobs.running", 1, 0, 72*time.Hour)
	if err != nil {
		t.Fatal(err)
	}
	mlDays := 0.0
	for _, p := range pts {
		if !math.IsNaN(p.Value) {
			mlDays += p.Value / 24 // hourly buckets of mean CPUs
		}
	}
	if acdcDays < 5 {
		t.Fatalf("too little work recorded to crosscheck: %v CPU-days", acdcDays)
	}
	if math.Abs(mlDays-acdcDays)/acdcDays > 0.15 {
		t.Fatalf("monitoring paths disagree: ACDC %.2f vs MonALISA %.2f CPU-days", acdcDays, mlDays)
	}
}

// TestVOGIISViews: each VO's index serves exactly the sites supporting it.
func TestVOGIISViews(t *testing.T) {
	g, err := New(Config{Seed: 31})
	if err != nil {
		t.Fatal(err)
	}
	for _, voName := range vo.Grid3VOs {
		idx := g.VOGIIS[voName]
		if idx == nil {
			t.Fatalf("no GIIS for %s", voName)
		}
		want := len(g.SitesSupporting(voName))
		if got := len(idx.Entries()); got != want {
			t.Fatalf("%s GIIS serves %d entries, want %d", voName, got, want)
		}
	}
	// The top-level index holds each site exactly once.
	if got := len(g.TopGIIS.Entries()); got != 27 {
		t.Fatalf("top GIIS entries = %d", got)
	}
}

// TestVOMSPropagation: a user added to a VOMS server mid-run gains access
// everywhere after the next edg-mkgridmap cycle (§5.3) — and not before.
func TestVOMSPropagation(t *testing.T) {
	g, err := New(Config{Seed: 33})
	if err != nil {
		t.Fatal(err)
	}
	const newDN = "/DC=org/DC=doegrids/OU=People/CN=new postdoc"
	server, err := g.Registry.Server(vo.USATLAS)
	if err != nil {
		t.Fatal(err)
	}
	if err := server.Add(newDN, "New Postdoc"); err != nil {
		t.Fatal(err)
	}
	submit := func(id string) {
		g.SubmitJob(apps.Request{
			ID: id, VO: vo.USATLAS, User: newDN,
			Runtime: time.Hour, Walltime: 2 * time.Hour,
		})
	}
	// Before the refresh cycle the gatekeepers still reject the DN
	// (Condor-G burns its retries against authorization failures).
	submit("early")
	g.Eng.RunUntil(time.Hour)
	st := g.Stats(vo.USATLAS)
	if st.Completed != 0 {
		t.Fatalf("job from unpropagated user completed: %+v", st)
	}
	// After the 6 h edg-mkgridmap tick, the same user runs fine.
	g.Eng.RunUntil(7 * time.Hour)
	submit("late")
	g.Eng.RunUntil(12 * time.Hour)
	if st.Completed != 1 {
		t.Fatalf("job after propagation did not complete: %+v", st)
	}
}

// TestUsagePlotParametric: the MDViewer-style query aggregates occupancy
// correctly for both groupings and arbitrary windows.
func TestUsagePlotParametric(t *testing.T) {
	g, err := New(Config{Seed: 35})
	if err != nil {
		t.Fatal(err)
	}
	s := &Scenario{Grid: g, Cfg: ScenarioConfig{Config: Config{Seed: 35}}}
	// Two 12 h jobs at one site, one 12 h job at another.
	for i, site := range []string{"BNL_ATLAS_Tier1", "BNL_ATLAS_Tier1", "UC_ATLAS_Tier2"} {
		g.SubmitJob(apps.Request{
			ID: fmt.Sprintf("up%d", i), VO: vo.USATLAS,
			User:      "/DC=org/DC=doegrids/OU=People/CN=usatlas user 00",
			Runtime:   12 * time.Hour,
			Walltime:  14 * time.Hour,
			Preferred: site,
		})
	}
	g.Eng.RunUntil(24 * time.Hour)
	g.ACDC.Pull()

	byVO := s.UsagePlot(0, 24*time.Hour, 12*time.Hour, ByVO)
	if err := byVO.Validate(); err != nil {
		t.Fatal(err)
	}
	if len(byVO.Series) != 1 || byVO.Series[0].Name != vo.USATLAS {
		t.Fatalf("series = %+v", byVO.Series)
	}
	// First 12 h bin: 3 CPUs in use; second bin: 0.
	if math.Abs(byVO.Series[0].Values[0]-3) > 1e-9 || byVO.Series[0].Values[1] != 0 {
		t.Fatalf("values = %v", byVO.Series[0].Values)
	}
	bySite := s.UsagePlot(0, 24*time.Hour, 12*time.Hour, BySite)
	if len(bySite.Series) != 2 {
		t.Fatalf("site series = %d", len(bySite.Series))
	}
	// Sorted by total: BNL (2 jobs) before UC (1).
	if bySite.Series[0].Name != "BNL_ATLAS_Tier1" {
		t.Fatalf("series order = %v, %v", bySite.Series[0].Name, bySite.Series[1].Name)
	}
	// CSV renders.
	var sb strings.Builder
	if err := bySite.WriteCSV(&sb); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "BNL_ATLAS_Tier1") {
		t.Fatal("csv missing site column")
	}
}

// TestTraceJob links submit-side and execution-side job identities (§8).
func TestTraceJob(t *testing.T) {
	g, err := New(Config{Seed: 36})
	if err != nil {
		t.Fatal(err)
	}
	g.SubmitJob(apps.Request{
		ID: "traced", VO: vo.USCMS,
		User:     "/DC=org/DC=doegrids/OU=People/CN=uscms user 00",
		Runtime:  time.Hour,
		Walltime: 2 * time.Hour,
	})
	// Find the schedd-side ID through the schedd itself.
	g.Eng.RunUntil(30 * time.Minute)
	var id string
	for i := 1; i < 10; i++ {
		cand := fmt.Sprintf("grid3-%s-%08d", vo.USCMS, i)
		if _, ok := g.Schedds[vo.USCMS].Job(cand); ok {
			id = cand
			break
		}
	}
	if id == "" {
		t.Fatal("submitted job not found in schedd")
	}
	tr, ok := g.TraceJob(id)
	if !ok {
		t.Fatal("TraceJob failed")
	}
	if tr.Site == "" || tr.Contact == "" {
		t.Fatalf("trace incomplete: %+v", tr)
	}
	if !strings.Contains(tr.Contact, "https://") || !strings.Contains(tr.Contact, ":2119/") {
		t.Fatalf("contact format: %q", tr.Contact)
	}
	if _, ok := g.TraceJob("grid3-nope-00000001"); ok {
		t.Fatal("phantom trace")
	}
}

// TestDIALAnalysis: production feeds the dataset catalog; a DIAL task
// splits into grid jobs at the archive and merges histograms (§4.1/§6.1).
func TestDIALAnalysis(t *testing.T) {
	g, err := New(Config{Seed: 37})
	if err != nil {
		t.Fatal(err)
	}
	const user = "/DC=org/DC=doegrids/OU=People/CN=usatlas user 00"
	for i := 0; i < 9; i++ {
		g.SubmitJob(apps.Request{
			ID: fmt.Sprintf("prod%d", i), VO: vo.USATLAS, User: user,
			Runtime: time.Hour, Walltime: 2 * time.Hour,
			OutputBytes: 2 << 30,
		})
	}
	g.Eng.RunUntil(12 * time.Hour)
	ds, err := g.DIAL.Lookup("usatlas.produced")
	if err != nil || len(ds.Files) != 9 {
		t.Fatalf("dataset = %+v, %v", ds, err)
	}

	task := &dial.Task{
		Name:        "mass-histo",
		FilesPerJob: 4,
		Process: func(lfn string, bytes int64) (*dial.Histogram, error) {
			return &dial.Histogram{Bins: []float64{1}}, nil
		},
	}
	var res dial.Result
	fired := false
	if err := g.AnalyzeDataset(vo.USATLAS, user, "usatlas.produced", task,
		30*time.Minute, func(r dial.Result) { res = r; fired = true }); err != nil {
		t.Fatal(err)
	}
	g.Eng.RunUntil(48 * time.Hour)
	if !fired {
		t.Fatal("analysis never completed")
	}
	if res.SubJobs != 3 || res.Failed != 0 {
		t.Fatalf("result = %+v", res)
	}
	if res.Histogram.Bins[0] != 9 {
		t.Fatalf("histogram entries = %v, want one per file", res.Histogram.Bins[0])
	}
	// The analysis jobs ran at the archive site (data locality).
	if g.Nodes["BNL_ATLAS_Tier1"].Batch.TotalCompleted() < 3 {
		t.Fatal("analysis jobs did not run at the archive")
	}
}

// TestSubmitJobFunc: the end-to-end callback fires once, after stage-out
// and registration, for both success and failure paths.
func TestSubmitJobFunc(t *testing.T) {
	g, err := New(Config{Seed: 38})
	if err != nil {
		t.Fatal(err)
	}
	okCh := 0
	var okErr error
	g.SubmitJobFunc(apps.Request{
		ID: "cb-ok", VO: vo.USCMS,
		User:        "/DC=org/DC=doegrids/OU=People/CN=uscms user 00",
		Runtime:     time.Hour,
		Walltime:    2 * time.Hour,
		OutputBytes: 1 << 30,
	}, func(err error) { okCh++; okErr = err })
	failCh := 0
	var failErr error
	g.SubmitJobFunc(apps.Request{
		ID: "cb-bad", VO: "freeloaders", User: "/CN=x",
		Runtime: time.Hour, Walltime: 2 * time.Hour,
	}, func(err error) { failCh++; failErr = err })
	g.Eng.RunUntil(24 * time.Hour)
	if okCh != 1 || okErr != nil {
		t.Fatalf("success callback: n=%d err=%v", okCh, okErr)
	}
	if failCh != 1 || failErr == nil {
		t.Fatalf("failure callback: n=%d err=%v", failCh, failErr)
	}
	// The success fired only after archival: the dataset is cataloged.
	if _, err := g.DIAL.Lookup(vo.USCMS + ".produced"); err != nil {
		t.Fatal("callback fired before registration")
	}
}

// TestNetLoggerAttach: with transfer instruments attached to the WAN,
// every completed transfer leaves start and end records in the trace's
// NetLogger render (§4.7's NetLogger demonstrator). Attaching is explicit:
// the scenario's own trace-level NetLogger output comes from the obs
// layer's NetLogger sink.
func TestNetLoggerAttach(t *testing.T) {
	if testing.Short() {
		t.Skip("scenario in -short mode")
	}
	s, err := NewScenario(ScenarioConfig{
		Config:          Config{Seed: 39},
		Horizon:         2 * 24 * time.Hour,
		JobScale:        0.001,
		DisableFailures: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	o := obs.New(s.Grid.Eng.Now)
	s.Grid.Network.Ins = gridftp.NewInstruments(o)
	s.Run()
	var sb strings.Builder
	if err := o.Tracer.Trace().WriteNetLogger(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	starts := strings.Count(out, "NL.EVNT=gridftp.transfer.start ")
	ends := strings.Count(out, "NL.EVNT=gridftp.transfer.end ")
	if starts == 0 || ends == 0 {
		t.Fatalf("records: %d starts, %d ends", starts, ends)
	}
	if ends > starts {
		t.Fatalf("more ends (%d) than starts (%d)", ends, starts)
	}
}
