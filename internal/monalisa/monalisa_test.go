package monalisa

import (
	"testing"
	"time"

	"grid3/internal/sim"
)

func TestStationPollsAgentsIntoRepository(t *testing.T) {
	eng := sim.NewEngine(sim.Grid3Epoch)
	repo := NewRepository(eng)
	st := NewStation(eng, "UC_ATLAS_Tier2", 5*time.Minute)
	running := 12.0
	st.AddAgent(GaugeAgent("grid3.jobs.running", func() float64 { return running }))
	st.Forward(repo.Ingest)
	eng.RunUntil(time.Hour)
	m, ok := repo.Last("UC_ATLAS_Tier2", "grid3.jobs.running")
	if !ok || m.Value != 12 {
		t.Fatalf("last = %+v, %v", m, ok)
	}
	series := repo.Series()
	if len(series) != 1 || series[0] != "UC_ATLAS_Tier2/grid3.jobs.running" {
		t.Fatalf("series = %v", series)
	}
}

func TestRepositoryHistory(t *testing.T) {
	eng := sim.NewEngine(sim.Grid3Epoch)
	repo := NewRepository(eng)
	st := NewStation(eng, "farm", 5*time.Minute)
	v := 1.0
	st.AddAgent(GaugeAgent("p", func() float64 { return v }))
	st.Forward(repo.Ingest)
	eng.RunUntil(time.Hour)
	v = 5
	eng.RunUntil(2 * time.Hour)
	pts, err := repo.History("farm", "p", 0, 0, 2*time.Hour)
	if err != nil {
		t.Fatal(err)
	}
	// The bucket ending at the first tick is empty (NaN); check the next.
	if len(pts) < 20 || pts[1].Value != 1 || pts[len(pts)-1].Value != 5 {
		t.Fatalf("history = %d points, ends %v", len(pts), pts[len(pts)-1])
	}
	if _, err := repo.History("farm", "nope", 0, 0, time.Hour); err == nil {
		t.Fatal("missing series history succeeded")
	}
}

func TestMultiAgentStation(t *testing.T) {
	eng := sim.NewEngine(sim.Grid3Epoch)
	repo := NewRepository(eng)
	st := NewStation(eng, "farm", time.Minute)
	st.AddAgent(AgentFunc(func() []Metric {
		return []Metric{
			{Param: "vo.usatlas.jobs", Value: 3},
			{Param: "vo.uscms.jobs", Value: 7},
		}
	}))
	st.AddAgent(GaugeAgent("gram.load", func() float64 { return 2.25 }))
	st.Forward(repo.Ingest)
	eng.RunUntil(5 * time.Minute)
	if len(repo.Series()) != 3 {
		t.Fatalf("series = %v", repo.Series())
	}
	if m, _ := repo.Last("farm", "vo.uscms.jobs"); m.Value != 7 {
		t.Fatalf("uscms jobs = %v", m.Value)
	}
}

func TestFilterAndScaleIntermediaries(t *testing.T) {
	eng := sim.NewEngine(sim.Grid3Epoch)
	repo := NewRepository(eng)
	st := NewStation(eng, "farm", time.Minute)
	st.AddAgent(AgentFunc(func() []Metric {
		return []Metric{
			{Param: "keep.bytes", Value: 1024},
			{Param: "drop.this", Value: 1},
		}
	}))
	// Chain: keep only "keep.*", convert bytes to KiB, then ingest.
	st.Forward(Filter(
		func(m Metric) bool { return m.Param == "keep.bytes" },
		Scale(1.0/1024, repo.Ingest),
	))
	eng.RunUntil(5 * time.Minute)
	if len(repo.Series()) != 1 {
		t.Fatalf("filter leaked: %v", repo.Series())
	}
	if m, _ := repo.Last("farm", "keep.bytes"); m.Value != 1 {
		t.Fatalf("scale wrong: %v", m.Value)
	}
}

func TestSubscriptions(t *testing.T) {
	eng := sim.NewEngine(sim.Grid3Epoch)
	repo := NewRepository(eng)
	var all, filtered int
	repo.Subscribe(nil, func(Metric) { all++ })
	repo.Subscribe(func(m Metric) bool { return m.Farm == "bnl" }, func(Metric) { filtered++ })
	repo.Ingest(Metric{Farm: "bnl", Param: "x", Time: time.Second, Value: 1})
	repo.Ingest(Metric{Farm: "uc", Param: "x", Time: 2 * time.Second, Value: 1})
	if all != 2 || filtered != 1 {
		t.Fatalf("subs: all=%d filtered=%d", all, filtered)
	}
}

func TestFarmTotal(t *testing.T) {
	eng := sim.NewEngine(sim.Grid3Epoch)
	repo := NewRepository(eng)
	repo.Ingest(Metric{Farm: "a", Param: "jobs", Time: time.Second, Value: 10})
	repo.Ingest(Metric{Farm: "b", Param: "jobs", Time: time.Second, Value: 20})
	repo.Ingest(Metric{Farm: "a", Param: "other", Time: time.Second, Value: 99})
	if got := repo.FarmTotal("jobs"); got != 30 {
		t.Fatalf("FarmTotal = %v", got)
	}
}

// TestLateSampleKeepsLatest: a sample older than its series' last update
// is refused by the ring, so it must not replace the latest value that
// Last and FarmTotal report, though live subscribers still receive it.
func TestLateSampleKeepsLatest(t *testing.T) {
	eng := sim.NewEngine(sim.Grid3Epoch)
	repo := NewRepository(eng)
	var delivered int
	repo.Subscribe(nil, func(Metric) { delivered++ })
	latest := Metric{Farm: "p", Param: "jobs", Time: 10 * time.Minute, Value: 5}
	repo.Ingest(latest)
	repo.Ingest(Metric{Farm: "p", Param: "jobs", Time: 5 * time.Minute, Value: 1})
	if got, ok := repo.Last("p", "jobs"); !ok || got != latest {
		t.Fatalf("Last = %+v, %v; want %+v", got, ok, latest)
	}
	if got := repo.FarmTotal("jobs"); got != 5 {
		t.Fatalf("FarmTotal = %v, want 5", got)
	}
	eng.RunUntil(15 * time.Minute)
	pts, err := repo.History("p", "jobs", 0, 0, 15*time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	if n := len(pts); n == 0 || pts[n-1].Value != 5 {
		t.Fatalf("history = %v, want it to end at 5", pts)
	}
	if delivered != 2 {
		t.Fatalf("subscribers saw %d samples, want 2", delivered)
	}
}

func TestStationStop(t *testing.T) {
	eng := sim.NewEngine(sim.Grid3Epoch)
	st := NewStation(eng, "farm", time.Minute)
	polls := 0
	st.AddAgent(AgentFunc(func() []Metric { polls++; return nil }))
	eng.RunUntil(10 * time.Minute)
	st.Stop()
	at := polls
	eng.RunUntil(time.Hour)
	if polls != at {
		t.Fatal("station polled after Stop")
	}
}

// TestIngestKnownSeriesAllocatesNothing holds the repository's hot path
// allocation-free: a metric for a series that already exists is looked
// up by its (farm, parameter) pair, with no joined name built.
func TestIngestKnownSeriesAllocatesNothing(t *testing.T) {
	eng := sim.NewEngine(sim.Grid3Epoch)
	repo := NewRepository(eng)
	m := Metric{Farm: "UC_ATLAS_Tier2", Param: "grid3.jobs.running", Value: 3}
	repo.Ingest(m)
	allocs := testing.AllocsPerRun(500, func() {
		m.Time += time.Minute
		repo.Ingest(m)
	})
	if allocs != 0 {
		t.Fatalf("Ingest into a known series: %v allocs per event, want 0", allocs)
	}
	if last, ok := repo.Last(m.Farm, m.Param); !ok || last != m {
		t.Fatalf("last = %+v, %v; want %+v", last, ok, m)
	}
}
