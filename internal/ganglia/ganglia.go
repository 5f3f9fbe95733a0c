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
	gauges map[string]Gauge
}

// NewGmond creates a daemon for a host.
func NewGmond(host string) *Gmond {
	return &Gmond{Host: host, gauges: make(map[string]Gauge)}
}

// Register adds a metric gauge.
func (g *Gmond) Register(metric string, fn Gauge) {
	g.gauges[metric] = fn
}

// Sample reads all gauges.
func (g *Gmond) Sample() map[string]float64 {
	out := make(map[string]float64, len(g.gauges))
	for m, fn := range g.gauges {
		out[m] = fn()
	}
	return out
}

// Metrics returns registered metric names, sorted.
func (g *Gmond) Metrics() []string {
	out := make([]string, 0, len(g.gauges))
	for m := range g.gauges {
		out = append(out, m)
	}
	sort.Strings(out)
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
type Gmetad struct {
	eng     sim.Scheduler
	cluster string
	gmonds  []*Gmond
	ticker  *sim.Ticker
	last    ClusterSummary
	history map[string]*rrd.Database
	specs   []rrd.ArchiveSpec
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
		history: make(map[string]*rrd.Database),
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
	sum := ClusterSummary{
		Cluster: g.cluster,
		Time:    g.eng.Now(),
		Hosts:   len(g.gmonds),
		Metrics: make(map[string]float64),
	}
	for _, m := range g.gmonds {
		for metric, v := range m.Sample() {
			sum.Metrics[metric] += v
		}
	}
	g.last = sum
	// Every metric has its own RRD, so the map's iteration order cannot
	// show in the history.
	for metric, v := range sum.Metrics {
		db, ok := g.history[metric]
		if !ok {
			db = rrd.MustNew(g.specs...)
			g.history[metric] = db
		}
		db.Update(sum.Time, v)
	}
}

// Summary returns the most recent cluster summary.
func (g *Gmetad) Summary() ClusterSummary { return g.last }

// History returns consolidated points of a metric from archive idx in
// (from, to].
func (g *Gmetad) History(metric string, idx int, from, to time.Duration) ([]rrd.Point, error) {
	db, ok := g.history[metric]
	if !ok {
		return nil, fmt.Errorf("ganglia: no history for metric %q at %s", metric, g.cluster)
	}
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
		t += m.last.Metrics[metric]
	}
	return t
}
