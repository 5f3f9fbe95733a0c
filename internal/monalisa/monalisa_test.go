package monalisa

import (
	"math"
	"math/rand"
	"slices"
	"sort"
	"testing"
	"time"

	"grid3/internal/rrd"
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

// TestFarmTotalOrder: in farm-name order, 1e16 + -1e16 + 1 is 1, while
// another order loses the 1 to rounding; every call must add in the same
// order.
func TestFarmTotalOrder(t *testing.T) {
	eng := sim.NewEngine(sim.Grid3Epoch)
	repo := NewRepository(eng)
	repo.Ingest(Metric{Farm: "a", Param: "load", Time: time.Second, Value: 1e16})
	repo.Ingest(Metric{Farm: "b", Param: "load", Time: time.Second, Value: -1e16})
	repo.Ingest(Metric{Farm: "c", Param: "load", Time: time.Second, Value: 1})
	for i := 0; i < 200; i++ {
		if got := repo.FarmTotal("load"); got != 1 {
			t.Fatalf("call %d: FarmTotal = %v, want 1", i, got)
		}
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

// refRepository is the two-map repository that the single series map
// replaced, kept as the reference it must reproduce.
type refRepository struct {
	clock  sim.Clock
	series map[seriesKey]*rrd.Database
	last   map[seriesKey]Metric
}

func (r *refRepository) Ingest(m Metric) {
	key := seriesKey{m.Farm, m.Param}
	db, ok := r.series[key]
	if !ok {
		db = rrd.MustNew(DefaultArchives...)
		r.series[key] = db
	}
	if db.Update(m.Time, m.Value) == nil {
		r.last[key] = m
	}
}

func (r *refRepository) Series() []string {
	var out []string
	for k := range r.series {
		out = append(out, k.farm+"/"+k.param)
	}
	sort.Strings(out)
	return out
}

func (r *refRepository) History(farm, param string, idx int, from, to time.Duration) ([]rrd.Point, bool) {
	db, ok := r.series[seriesKey{farm, param}]
	if !ok {
		return nil, false
	}
	db.FlushTo(r.clock.Now())
	pts, _ := db.Fetch(idx, from, to)
	return pts, true
}

func (r *refRepository) FarmTotal(param string) float64 {
	var farms []Metric
	for _, m := range r.last {
		if m.Param == param {
			farms = append(farms, m)
		}
	}
	sort.Slice(farms, func(i, j int) bool { return farms[i].Farm < farms[j].Farm })
	t := 0.0
	for _, m := range farms {
		t += m.Value
	}
	return t
}

// sameBits compares floats bit for bit, so NaNs and signed zeros count.
func sameBits(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }

// TestPublishedStationMatchesReference runs two stations whose agent
// changes the parameter at an output position from poll to poll (and the
// number of positions), publishing into a repository while the two-map
// reference is fed the same metrics as a forward sink. Late samples
// ingested directly into the same series are refused by both. Last,
// History, Series and FarmTotal must agree bit for bit after every poll.
func TestPublishedStationMatchesReference(t *testing.T) {
	eng := sim.NewEngine(sim.Grid3Epoch)
	repo := NewRepository(eng)
	ref := &refRepository{clock: eng, series: map[seriesKey]*rrd.Database{}, last: map[seriesKey]Metric{}}
	rng := rand.New(rand.NewSource(3))
	params := []string{"jobs", "load", "vo.uscms.jobs", "vo.usatlas.jobs"}
	farms := []string{"BNL_ATLAS", "UC_ATLAS_Tier2"}
	for _, farm := range farms {
		st := NewStation(eng, farm, 30*time.Minute)
		var buf []Metric
		st.AddAgent(AgentFunc(func() []Metric {
			buf = buf[:0]
			for n := 1 + rng.Intn(4); n > 0; n-- {
				v := math.Round(rng.NormFloat64()*1e3) / 8
				switch rng.Intn(10) {
				case 0:
					v = math.NaN()
				case 1:
					v = 1e16 * float64(1-2*rng.Intn(2))
				}
				buf = append(buf, Metric{Param: params[rng.Intn(len(params))], Value: v})
			}
			return buf
		}))
		st.AddAgent(GaugeAgent("grid3.gram.load", func() float64 { return float64(rng.Intn(9)) }))
		st.Forward(ref.Ingest)
		st.Publish(repo)
	}
	for poll := 1; poll <= 200; poll++ {
		eng.RunUntil(time.Duration(poll) * 30 * time.Minute)
		if poll%7 == 0 {
			late := Metric{Farm: farms[poll%2], Param: params[poll%len(params)], Time: eng.Now() - time.Hour, Value: 1}
			repo.Ingest(late)
			ref.Ingest(late)
		}
		if got, want := repo.Series(), ref.Series(); !slices.Equal(got, want) {
			t.Fatalf("poll %d: Series = %v, reference %v", poll, got, want)
		}
		for _, param := range append(params, "grid3.gram.load", "never") {
			if got, want := repo.FarmTotal(param), ref.FarmTotal(param); !sameBits(got, want) {
				t.Fatalf("poll %d: FarmTotal(%s) = %v, reference %v", poll, param, got, want)
			}
			for _, farm := range farms {
				got, ok := repo.Last(farm, param)
				want, wok := ref.last[seriesKey{farm, param}]
				if ok != wok || got.Farm != want.Farm || got.Param != want.Param ||
					got.Time != want.Time || !sameBits(got.Value, want.Value) {
					t.Fatalf("poll %d: Last(%s, %s) = %+v, %v; reference %+v, %v", poll, farm, param, got, ok, want, wok)
				}
				for idx := range DefaultArchives {
					pts, err := repo.History(farm, param, idx, 0, eng.Now())
					rpts, rok := ref.History(farm, param, idx, 0, eng.Now())
					if (err == nil) != rok || len(pts) != len(rpts) {
						t.Fatalf("poll %d: History(%s, %s, %d) = %d points (%v), reference %d",
							poll, farm, param, idx, len(pts), err, len(rpts))
					}
					for i := range pts {
						if pts[i].Time != rpts[i].Time || !sameBits(pts[i].Value, rpts[i].Value) {
							t.Fatalf("poll %d: History(%s, %s, %d)[%d] = %+v, reference %+v",
								poll, farm, param, idx, i, pts[i], rpts[i])
						}
					}
				}
			}
		}
	}
}

// TestStationPollAllocatesNothing: after the first poll has resolved each
// output position's series, a poll collects, forwards and publishes
// without allocating. Small rings, filled before the measurement, keep
// ring growth out of it.
func TestStationPollAllocatesNothing(t *testing.T) {
	eng := sim.NewEngine(sim.Grid3Epoch)
	repo := NewRepository(eng)
	repo.specs = []rrd.ArchiveSpec{
		{Step: time.Minute, Rows: 8, CF: rrd.Average},
		{Step: 5 * time.Minute, Rows: 4, CF: rrd.Max},
	}
	st := NewStation(eng, "UC_ATLAS_Tier2", time.Minute)
	running := 0.0
	st.AddAgent(GaugeAgent("grid3.jobs.running", func() float64 { running++; return running }))
	st.AddAgent(GaugeAgent("grid3.jobs.queued", func() float64 { return running / 2 }))
	st.AddAgent(GaugeAgent("grid3.gram.load", func() float64 { return 0.5 }))
	forwarded := 0
	st.Forward(func(Metric) { forwarded++ })
	st.Publish(repo)
	eng.RunUntil(time.Hour)
	// One measured run of 100 polls: its count is exact, where an
	// average over 100 runs would truncate a stray allocation away.
	allocs := testing.AllocsPerRun(1, func() { eng.RunFor(100 * time.Minute) })
	if allocs != 0 {
		t.Fatalf("100 station polls allocated %v times, want 0", allocs)
	}
	if m, ok := repo.Last("UC_ATLAS_Tier2", "grid3.jobs.running"); !ok || m.Value != running || m.Time != eng.Now() {
		t.Fatalf("last = %+v, %v; want %v at %v", m, ok, running, eng.Now())
	}
	if forwarded != 3*int(eng.Now()/time.Minute) {
		t.Fatalf("forwarded %d metrics over %v", forwarded, eng.Now())
	}
}
