// Package ganglia implements cluster telemetry in the style of Ganglia as
// deployed on Grid3 (§5.1-5.2): per-node metric daemons (gmond), per-site
// aggregation, and a hierarchical grid-level view served centrally at the
// iGOC (gmetad).
//
// "Ganglia is used to collect cluster monitoring information such as CPU
// and network load and memory and disk usage. Ganglia-collected information
// is available through web pages served at the sites and a summary [at] a
// central server at iGOC."
package ganglia

import (
	"fmt"
	"slices"
	"sort"
	"time"

	"grid3/internal/rrd"
	"grid3/internal/sim"
)

// Gauge supplies the current value of one metric; the site adapter wires
// gauges to live batch/storage state.
type Gauge func() float64

// Gmond is a node- or cluster-level metric daemon: a named set of gauges.
type Gmond struct {
	Host   string
	gauges []gauge // sorted by metric name
}

type gauge struct {
	metric string
	fn     Gauge
}

// NewGmond creates a daemon for a host.
func NewGmond(host string) *Gmond {
	return &Gmond{Host: host}
}

// Register adds a metric gauge, replacing any gauge of the same name.
func (g *Gmond) Register(metric string, fn Gauge) {
	i := sort.Search(len(g.gauges), func(i int) bool { return g.gauges[i].metric >= metric })
	if i < len(g.gauges) && g.gauges[i].metric == metric {
		g.gauges[i].fn = fn
		return
	}
	g.gauges = slices.Insert(g.gauges, i, gauge{metric, fn})
}

// Metrics returns registered metric names, sorted.
func (g *Gmond) Metrics() []string {
	out := make([]string, len(g.gauges))
	for i, ga := range g.gauges {
		out[i] = ga.metric
	}
	return out
}

// ClusterSummary is one site's aggregate at a sample instant.
type ClusterSummary struct {
	Cluster string
	Time    time.Duration
	Hosts   int
	// Metrics holds per-metric sums across the cluster's gmonds.
	Metrics map[string]float64
}

// Gmetad polls a set of gmonds on a fixed interval, keeps the latest
// cluster summary, and records each metric into an RRD for history.
//
// It polls through a metric table: the sorted union of its gmonds'
// metrics, with one database and one sum per metric, and the slot (table
// index) of each watched gmond's gauges in gmond order. The first poll
// builds the table; a later poll rebuilds it only when a gmond has been
// watched or has gained a gauge since. Gauges never leave a gmond and a
// poll calls each gauge's current function, so the gmond and gauge
// counts tell when the table is stale. A poll then costs no map access
// and no allocation.
type Gmetad struct {
	eng     sim.Scheduler
	cluster string
	gmonds  []*Gmond
	ticker  *sim.Ticker
	specs   []rrd.ArchiveSpec

	// The metric table, as of the last poll.
	metrics []string
	history []*rrd.Database
	sums    []float64
	slots   []int // the table index of each watched gmond's gauges
	hosts   int   // the number of gmonds the table covers
	polled  bool
	at      time.Duration
}

// DefaultArchives is the Grid3 dashboard configuration: 5-minute buckets
// for a day, 1-hour buckets for 200 days (covering the whole Table 1
// window).
var DefaultArchives = []rrd.ArchiveSpec{
	{Step: 5 * time.Minute, Rows: 288, CF: rrd.Average},
	{Step: time.Hour, Rows: 4800, CF: rrd.Average},
}

// NewGmetad creates an aggregator polling every interval.
func NewGmetad(eng sim.Scheduler, cluster string, interval time.Duration) *Gmetad {
	g := &Gmetad{
		eng:     eng,
		cluster: cluster,
		specs:   DefaultArchives,
	}
	g.ticker = sim.NewTicker(eng, interval, g.poll)
	return g
}

// Cluster returns the aggregator's cluster name.
func (g *Gmetad) Cluster() string { return g.cluster }

// Watch adds a gmond to the polling set.
func (g *Gmetad) Watch(m *Gmond) { g.gmonds = append(g.gmonds, m) }

// Stop halts polling.
func (g *Gmetad) Stop() { g.ticker.Stop() }

func (g *Gmetad) poll() {
	if g.stale() {
		g.build()
	}
	clear(g.sums)
	// A float sum depends on its order: each metric adds its gmonds'
	// values in the order the gmonds were watched.
	k := 0
	for _, m := range g.gmonds {
		for _, ga := range m.gauges {
			g.sums[g.slots[k]] += ga.fn()
			k++
		}
	}
	g.polled, g.at = true, g.eng.Now()
	for i, db := range g.history {
		db.Update(g.at, g.sums[i])
	}
}

// stale reports whether the metric table misses a gmond or a gauge.
func (g *Gmetad) stale() bool {
	if g.hosts != len(g.gmonds) {
		return true
	}
	n := 0
	for _, m := range g.gmonds {
		n += len(m.gauges)
	}
	return n != len(g.slots)
}

// build rebuilds the metric table, keeping each known metric's database.
// Gmonds only gain metrics, so every old metric is still in the table.
func (g *Gmetad) build() {
	var metrics []string
	for _, m := range g.gmonds {
		for _, ga := range m.gauges {
			metrics = append(metrics, ga.metric)
		}
	}
	slices.Sort(metrics)
	metrics = slices.Compact(metrics)
	history := make([]*rrd.Database, len(metrics))
	for i, name := range metrics {
		if j, ok := slices.BinarySearch(g.metrics, name); ok {
			history[i] = g.history[j]
		} else {
			history[i] = rrd.MustNew(g.specs...)
		}
	}
	g.metrics, g.history = metrics, history
	g.sums = make([]float64, len(metrics))
	g.slots, g.hosts = g.slots[:0], len(g.gmonds)
	for _, m := range g.gmonds {
		for _, ga := range m.gauges {
			i, _ := slices.BinarySearch(metrics, ga.metric)
			g.slots = append(g.slots, i)
		}
	}
}

// Summary returns the most recent cluster summary, built from the last
// poll's sums; it is the zero ClusterSummary before the first poll.
func (g *Gmetad) Summary() ClusterSummary {
	if !g.polled {
		return ClusterSummary{}
	}
	sum := ClusterSummary{
		Cluster: g.cluster,
		Time:    g.at,
		Hosts:   g.hosts,
		Metrics: make(map[string]float64, len(g.metrics)),
	}
	for i, name := range g.metrics {
		sum.Metrics[name] = g.sums[i]
	}
	return sum
}

// last returns the last poll's sum of one metric, 0 when no poll has
// seen it.
func (g *Gmetad) last(metric string) float64 {
	if i, ok := slices.BinarySearch(g.metrics, metric); ok {
		return g.sums[i]
	}
	return 0
}

// History returns consolidated points of a metric from archive idx in
// (from, to].
func (g *Gmetad) History(metric string, idx int, from, to time.Duration) ([]rrd.Point, error) {
	i, ok := slices.BinarySearch(g.metrics, metric)
	if !ok {
		return nil, fmt.Errorf("ganglia: no history for metric %q at %s", metric, g.cluster)
	}
	db := g.history[i]
	db.FlushTo(g.eng.Now())
	return db.Fetch(idx, from, to)
}

// Grid is the iGOC's hierarchical view over all site aggregators.
type Grid struct {
	metads []*Gmetad
}

// NewGrid builds the top-level view.
func NewGrid(metads ...*Gmetad) *Grid {
	return &Grid{metads: metads}
}

// Add attaches another site aggregator.
func (g *Grid) Add(m *Gmetad) { g.metads = append(g.metads, m) }

// Summaries returns per-site summaries sorted by cluster name.
func (g *Grid) Summaries() []ClusterSummary {
	out := make([]ClusterSummary, 0, len(g.metads))
	for _, m := range g.metads {
		out = append(out, m.Summary())
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Cluster < out[j].Cluster })
	return out
}

// Total sums one metric across all sites' latest summaries — the grid-wide
// resource availability number on the iGOC front page.
func (g *Grid) Total(metric string) float64 {
	t := 0.0
	for _, m := range g.metads {
		t += m.last(metric)
	}
	return t
}
