package ganglia

import (
	"math"
	"math/rand"
	"strconv"
	"testing"
	"time"

	"grid3/internal/rrd"
	"grid3/internal/sim"
)

// TestGmondSample: a gmetad poll reads each gauge live, and Register
// replaces a gauge of the same name.
func TestGmondSample(t *testing.T) {
	eng := sim.NewEngine(sim.Grid3Epoch)
	gm := NewGmetad(eng, "site", 5*time.Minute)
	g := NewGmond("wn01.uchicago.edu")
	load := 0.5
	g.Register("load_one", func() float64 { return load })
	g.Register("cpu_num", func() float64 { return 2 })
	gm.Watch(g)
	eng.RunUntil(6 * time.Minute)
	if s := gm.Summary().Metrics; s["load_one"] != 0.5 || s["cpu_num"] != 2 {
		t.Fatalf("sample = %v", s)
	}
	load = 1.5
	eng.RunUntil(11 * time.Minute)
	if gm.Summary().Metrics["load_one"] != 1.5 {
		t.Fatal("gauge not live")
	}
	g.Register("cpu_num", func() float64 { return 4 })
	eng.RunUntil(16 * time.Minute)
	if s := gm.Summary().Metrics; s["cpu_num"] != 4 || len(s) != 2 {
		t.Fatalf("sample after replacing cpu_num = %v", s)
	}
}

func TestGmetadAggregation(t *testing.T) {
	eng := sim.NewEngine(sim.Grid3Epoch)
	gm := NewGmetad(eng, "UC_ATLAS_Tier2", 5*time.Minute)
	for i := 0; i < 4; i++ {
		node := NewGmond("wn")
		node.Register("cpu_num", func() float64 { return 2 })
		node.Register("load_one", func() float64 { return 0.5 })
		gm.Watch(node)
	}
	eng.RunUntil(time.Hour)
	sum := gm.Summary()
	if sum.Hosts != 4 || sum.Metrics["cpu_num"] != 8 || sum.Metrics["load_one"] != 2 {
		t.Fatalf("summary = %+v", sum)
	}
	if sum.Cluster != "UC_ATLAS_Tier2" || gm.Cluster() != sum.Cluster {
		t.Fatal("cluster name wrong")
	}
}

func TestGmetadHistory(t *testing.T) {
	eng := sim.NewEngine(sim.Grid3Epoch)
	gm := NewGmetad(eng, "site", 5*time.Minute)
	busy := 0.0
	node := NewGmond("wn")
	node.Register("load_one", func() float64 { return busy })
	gm.Watch(node)
	eng.RunUntil(time.Hour)
	busy = 10
	eng.RunUntil(2 * time.Hour)
	pts, err := gm.History("load_one", 0, 0, 2*time.Hour)
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) < 20 {
		t.Fatalf("history points = %d", len(pts))
	}
	// The bucket ending at the very first tick is empty (NaN); the next
	// buckets carry the low then high values.
	if pts[1].Value != 0 || pts[len(pts)-1].Value != 10 {
		t.Fatalf("history endpoints = %v .. %v", pts[1], pts[len(pts)-1])
	}
	if _, err := gm.History("no_such_metric", 0, 0, time.Hour); err == nil {
		t.Fatal("missing metric history succeeded")
	}
}

func TestGmetadStop(t *testing.T) {
	eng := sim.NewEngine(sim.Grid3Epoch)
	gm := NewGmetad(eng, "site", 5*time.Minute)
	node := NewGmond("wn")
	calls := 0
	node.Register("x", func() float64 { calls++; return 0 })
	gm.Watch(node)
	eng.RunUntil(30 * time.Minute)
	gm.Stop()
	at := calls
	eng.RunUntil(2 * time.Hour)
	if calls != at {
		t.Fatalf("gauge polled after Stop: %d -> %d", at, calls)
	}
}

func TestGridHierarchicalView(t *testing.T) {
	eng := sim.NewEngine(sim.Grid3Epoch)
	grid := NewGrid()
	for _, cfg := range []struct {
		name string
		cpus float64
	}{{"BNL_ATLAS_Tier1", 400}, {"FNAL_CMS", 500}, {"UC_ATLAS_Tier2", 64}} {
		gm := NewGmetad(eng, cfg.name, 5*time.Minute)
		node := NewGmond("head")
		cpus := cfg.cpus
		node.Register("cpu_num", func() float64 { return cpus })
		gm.Watch(node)
		grid.Add(gm)
	}
	eng.RunUntil(time.Hour)
	if total := grid.Total("cpu_num"); total != 964 {
		t.Fatalf("grid total CPUs = %v", total)
	}
	sums := grid.Summaries()
	if len(sums) != 3 || sums[0].Cluster != "BNL_ATLAS_Tier1" {
		t.Fatalf("summaries = %+v", sums)
	}
}

// refGmond and refGmetad are the map-based daemon and aggregator the
// metric table replaced, kept as the reference it must reproduce.
type refGmond struct{ gauges map[string]Gauge }

func (g *refGmond) Register(metric string, fn Gauge) { g.gauges[metric] = fn }

type refGmetad struct {
	eng     *sim.Engine
	cluster string
	gmonds  []*refGmond
	last    ClusterSummary
	history map[string]*rrd.Database
}

func (g *refGmetad) poll() {
	sum := ClusterSummary{
		Cluster: g.cluster,
		Time:    g.eng.Now(),
		Hosts:   len(g.gmonds),
		Metrics: make(map[string]float64),
	}
	for _, m := range g.gmonds {
		for metric, fn := range m.gauges {
			sum.Metrics[metric] += fn()
		}
	}
	g.last = sum
	for metric, v := range sum.Metrics {
		db, ok := g.history[metric]
		if !ok {
			db = rrd.MustNew(DefaultArchives...)
			g.history[metric] = db
		}
		db.Update(sum.Time, v)
	}
}

func (g *refGmetad) History(metric string, idx int, from, to time.Duration) ([]rrd.Point, bool) {
	db, ok := g.history[metric]
	if !ok {
		return nil, false
	}
	db.FlushTo(g.eng.Now())
	pts, _ := db.Fetch(idx, from, to)
	return pts, true
}

// sameBits compares floats bit for bit, so NaNs and signed zeros count.
func sameBits(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }

// checkAgainstRef compares gm's summary and every metric's history with
// the reference's.
func checkAgainstRef(t *testing.T, gm *Gmetad, ref *refGmetad, metrics []string) {
	t.Helper()
	got, want := gm.Summary(), ref.last
	if got.Cluster != want.Cluster || got.Time != want.Time || got.Hosts != want.Hosts ||
		len(got.Metrics) != len(want.Metrics) || (got.Metrics == nil) != (want.Metrics == nil) {
		t.Fatalf("at %v: summary %+v, reference %+v", ref.eng.Now(), got, want)
	}
	for m, v := range want.Metrics {
		if g, ok := got.Metrics[m]; !ok || !sameBits(g, v) {
			t.Fatalf("at %v: %s = %v (%v), reference %v", ref.eng.Now(), m, g, ok, v)
		}
	}
	for _, m := range metrics {
		grid := NewGrid(gm)
		if total, v := grid.Total(m), want.Metrics[m]; !sameBits(total, 0+v) {
			t.Fatalf("at %v: Total(%s) = %v, reference %v", ref.eng.Now(), m, total, v)
		}
		for idx := range DefaultArchives {
			pts, err := gm.History(m, idx, 0, ref.eng.Now())
			rpts, ok := ref.History(m, idx, 0, ref.eng.Now())
			if (err == nil) != ok || len(pts) != len(rpts) {
				t.Fatalf("at %v: %s archive %d: %d points (%v), reference %d (%v)",
					ref.eng.Now(), m, idx, len(pts), err, len(rpts), ok)
			}
			for i := range pts {
				if pts[i].Time != rpts[i].Time || !sameBits(pts[i].Value, rpts[i].Value) {
					t.Fatalf("at %v: %s archive %d point %d = %+v, reference %+v",
						ref.eng.Now(), m, idx, i, pts[i], rpts[i])
				}
			}
		}
	}
}

// TestGmetadMatchesMapReference drives the same gauges through a Gmetad
// and the map-based reference, polled at the same instants: one gmond and
// four, metrics shared between gmonds, values whose float sum depends on
// its order, NaN gauges, a gauge registered after Watch and after polls,
// a re-registered metric, a gmond watched after the first poll, and one
// watched with no gauges, which changes only the host count.
// Summary, Total and History must agree bit for bit before and after
// every hour's polls.
func TestGmetadMatchesMapReference(t *testing.T) {
	metrics := []string{"cpu_num", "load_one", "disk_used_frac", "late", "solo", "never"}
	for _, hosts := range []int{1, 4} {
		eng := sim.NewEngine(sim.Grid3Epoch)
		rng := rand.New(rand.NewSource(int64(hosts)))
		vals := map[string]float64{}
		gauge := func(key string) Gauge { return func() float64 { return vals[key] } }
		gm := NewGmetad(eng, "site", 30*time.Minute)
		ref := &refGmetad{eng: eng, cluster: "site", history: map[string]*rrd.Database{}}
		sim.NewTicker(eng, 30*time.Minute, ref.poll)
		type pair struct {
			g *Gmond
			r *refGmond
		}
		var nodes []pair
		register := func(n pair, metric, key string) {
			n.g.Register(metric, gauge(key))
			n.r.Register(metric, gauge(key))
		}
		watch := func(i, gauges int) {
			n := pair{NewGmond("wn" + strconv.Itoa(i)), &refGmond{gauges: map[string]Gauge{}}}
			for _, m := range metrics[:gauges] {
				register(n, m, n.g.Host+"/"+m)
			}
			if i == 2 && gauges > 0 {
				register(n, "solo", "solo")
			}
			gm.Watch(n.g)
			ref.gmonds = append(ref.gmonds, n.r)
			nodes = append(nodes, n)
		}
		for i := 0; i < hosts; i++ {
			watch(i, 3)
		}
		for hour := 1; hour <= 72; hour++ {
			for _, n := range nodes {
				for _, m := range metrics {
					key := n.g.Host + "/" + m
					switch r := rng.Intn(12); {
					case r == 0:
						vals[key] = math.NaN()
					case r == 1:
						vals[key] = 1e16 * float64(1-2*rng.Intn(2))
					case r == 2:
						vals[key] = math.Copysign(0, -1)
					default:
						vals[key] = math.Round(rng.NormFloat64()*1e4) / 64
					}
				}
			}
			vals["solo"] = float64(hour)
			switch hour {
			case 5:
				// A metric registered after Watch and after polls.
				register(nodes[0], "late", nodes[0].g.Host+"/late")
			case 9:
				// Re-registering replaces the gauge under the same name.
				register(nodes[len(nodes)-1], "cpu_num", "solo")
			case 13:
				watch(len(nodes), 3)
			case 17:
				watch(len(nodes), 0)
			case 21:
				register(nodes[len(nodes)-1], "late", "solo")
			}
			// Until the next poll, a new gmond or gauge must not show.
			checkAgainstRef(t, gm, ref, metrics)
			eng.RunUntil(time.Duration(hour) * time.Hour)
			checkAgainstRef(t, gm, ref, metrics)
		}
	}
}

// TestGmetadPollAllocatesNothing: once the first poll has built the
// metric table, a poll sums into its slots and updates its databases
// without allocating. Small rings, filled before the measurement, keep
// ring growth out of it.
func TestGmetadPollAllocatesNothing(t *testing.T) {
	eng := sim.NewEngine(sim.Grid3Epoch)
	gm := NewGmetad(eng, "site", time.Minute)
	gm.specs = []rrd.ArchiveSpec{
		{Step: time.Minute, Rows: 8, CF: rrd.Average},
		{Step: 5 * time.Minute, Rows: 4, CF: rrd.Max},
	}
	for i := 0; i < 4; i++ {
		node := NewGmond("wn" + strconv.Itoa(i))
		load := float64(i)
		node.Register("cpu_num", func() float64 { return 2 })
		node.Register("load_one", func() float64 { load += 0.25; return load })
		node.Register("wn"+strconv.Itoa(i), func() float64 { return load })
		gm.Watch(node)
	}
	eng.RunUntil(time.Hour)
	// One measured run of 100 polls: its count is exact, where an
	// average over 100 runs would truncate a stray allocation away.
	allocs := testing.AllocsPerRun(1, func() { eng.RunFor(100 * time.Minute) })
	if allocs != 0 {
		t.Fatalf("100 gmetad polls allocated %v times, want 0", allocs)
	}
	if sum := gm.Summary(); sum.Hosts != 4 || sum.Metrics["cpu_num"] != 8 || len(sum.Metrics) != 6 {
		t.Fatalf("summary = %+v", sum)
	}
}
