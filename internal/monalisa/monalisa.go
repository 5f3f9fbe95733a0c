// Package monalisa implements the MonALISA agent-based monitoring
// framework as used on Grid3 (§5.2): per-site station servers hosting
// monitoring agents (GRAM-log watchers, queue probes, Ganglia bridges),
// a central repository aggregating every station's stream into round-robin
// storage, and subscription-based consumers.
//
// "MonALISA provides access to monitoring data provided by a variety of
// information providers, including agents which monitored the GRAM
// logfiles, job queues, and Ganglia metrics. ... The MonALISA central
// repository collects its information in a central server at the iGOC,
// storing it in a round robin-like database."
package monalisa

import (
	"fmt"
	"sort"
	"time"

	"grid3/internal/rrd"
	"grid3/internal/sim"
)

// Metric is one monitored tuple: (farm, cluster, parameter) → value, the
// MonALISA naming scheme where "farm" is the site.
type Metric struct {
	Farm  string
	Param string
	Time  time.Duration
	Value float64
}

// Agent produces metrics when polled. VO-specific agents (jobs run per VO,
// compute element usage, I/O) implement this.
type Agent interface {
	// Collect returns current metric values; Farm and Time are filled in
	// by the station server. The returned slice may be the agent's own
	// buffer: the station reads it before the next Collect and keeps no
	// reference to it.
	Collect() []Metric
}

// AgentFunc adapts a closure.
type AgentFunc func() []Metric

// Collect implements Agent.
func (f AgentFunc) Collect() []Metric { return f() }

// GaugeAgent monitors one named parameter via a closure.
func GaugeAgent(param string, fn func() float64) Agent {
	return &gaugeAgent{fn: fn, out: [1]Metric{{Param: param}}}
}

// gaugeAgent collects into a one-element buffer it owns.
type gaugeAgent struct {
	fn  func() float64
	out [1]Metric
}

func (a *gaugeAgent) Collect() []Metric {
	a.out[0].Value = a.fn()
	return a.out[:]
}

// Station is a site's MonALISA server: it polls local agents on an
// interval and forwards to subscribers (normally the central repository,
// plus any site-local clients).
type Station struct {
	eng    sim.Scheduler
	farm   string
	agents []Agent
	sinks  []func(Metric)
	ticker *sim.Ticker
	// repo is the repository the station publishes to, if any, and
	// resolved[i] the series its i-th metric of a poll went to last time.
	repo     *Repository
	resolved []*series
}

// NewStation creates a station server for a farm (site), polling at the
// given interval.
func NewStation(eng sim.Scheduler, farm string, interval time.Duration) *Station {
	s := &Station{eng: eng, farm: farm}
	s.ticker = sim.NewTicker(eng, interval, s.poll)
	return s
}

// Farm returns the station's site name.
func (s *Station) Farm() string { return s.farm }

// AddAgent registers a local monitoring agent.
func (s *Station) AddAgent(a Agent) { s.agents = append(s.agents, a) }

// Forward adds a metric sink (repository, filter, or client).
func (s *Station) Forward(sink func(Metric)) { s.sinks = append(s.sinks, sink) }

// Publish makes r the station's repository: each metric goes to r after
// the forward sinks have seen it, as r.Ingest would store it. The station
// remembers the series each output position of a poll resolved to and
// looks r up again only when the parameter at that position changes.
func (s *Station) Publish(r *Repository) {
	s.repo = r
	s.resolved = s.resolved[:0]
}

// Stop halts polling.
func (s *Station) Stop() { s.ticker.Stop() }

func (s *Station) poll() {
	now := s.eng.Now()
	pos := 0
	for _, a := range s.agents {
		for _, m := range a.Collect() {
			m.Farm = s.farm
			m.Time = now
			for _, sink := range s.sinks {
				sink(m)
			}
			if s.repo != nil {
				s.repo.store(s.seriesAt(pos, m.Param), m)
			}
			pos++
		}
	}
}

// seriesAt returns the repository series of the station's metric at
// output position pos, resolving it when the position is new or its
// parameter changed.
func (s *Station) seriesAt(pos int, param string) *series {
	if pos < len(s.resolved) && s.resolved[pos].param == param {
		return s.resolved[pos]
	}
	sr := s.repo.lookup(s.farm, param)
	if pos < len(s.resolved) {
		s.resolved[pos] = sr
	} else {
		s.resolved = append(s.resolved, sr)
	}
	return sr
}

// Filter is an intermediary: it transforms or drops metrics before
// forwarding (§5.2 "intermediaries have both roles, sometimes providing
// aggregation or filtering functions").
func Filter(pred func(Metric) bool, next func(Metric)) func(Metric) {
	return func(m Metric) {
		if pred(m) {
			next(m)
		}
	}
}

// Scale is an intermediary multiplying values (e.g. unit conversion).
func Scale(factor float64, next func(Metric)) func(Metric) {
	return func(m Metric) {
		m.Value *= factor
		next(m)
	}
}

// Repository is the iGOC central store: per-series round-robin history
// plus live subscriptions.
type Repository struct {
	clock  sim.Clock
	series map[seriesKey]*series
	specs  []rrd.ArchiveSpec
	subs   []subscription
}

// seriesKey identifies a series by its (farm, parameter) pair, so the
// ingest path looks series up without building a joined name.
type seriesKey struct{ farm, param string }

// series is one (farm, parameter) series: its ring and its latest
// accepted sample.
type series struct {
	param   string
	db      *rrd.Database
	last    Metric
	hasLast bool
}

type subscription struct {
	pred func(Metric) bool
	fn   func(Metric)
}

// DefaultArchives matches the Grid3 repository: 5-minute detail for two
// days and hourly history long enough to span the full scenario.
var DefaultArchives = []rrd.ArchiveSpec{
	{Step: 5 * time.Minute, Rows: 576, CF: rrd.Average},
	{Step: time.Hour, Rows: 4800, CF: rrd.Average},
}

// NewRepository creates an empty central repository.
func NewRepository(clock sim.Clock) *Repository {
	return &Repository{
		clock:  clock,
		series: make(map[seriesKey]*series),
		specs:  DefaultArchives,
	}
}

// Ingest stores a metric; use it as a Station sink.
func (r *Repository) Ingest(m Metric) { r.store(r.lookup(m.Farm, m.Param), m) }

// lookup returns the series of (farm, param), creating it on first use.
func (r *Repository) lookup(farm, param string) *series {
	key := seriesKey{farm, param}
	sr, ok := r.series[key]
	if !ok {
		sr = &series{param: param, db: rrd.MustNew(r.specs...)}
		r.series[key] = sr
	}
	return sr
}

// store records m into its series sr and delivers it to subscribers.
func (r *Repository) store(sr *series, m Metric) {
	// Late-arriving samples from a slow station are dropped rather than
	// corrupting the ring (RRD semantics), and do not become the series'
	// latest sample either; live subscribers still see them.
	if sr.db.Update(m.Time, m.Value) == nil {
		sr.last, sr.hasLast = m, true
	}
	for _, sub := range r.subs {
		if sub.pred == nil || sub.pred(m) {
			sub.fn(m)
		}
	}
}

// Subscribe attaches a live consumer; pred nil means all metrics.
func (r *Repository) Subscribe(pred func(Metric) bool, fn func(Metric)) {
	r.subs = append(r.subs, subscription{pred: pred, fn: fn})
}

// Last returns the latest sample of a series.
func (r *Repository) Last(farm, param string) (Metric, bool) {
	if sr, ok := r.series[seriesKey{farm, param}]; ok && sr.hasLast {
		return sr.last, true
	}
	return Metric{}, false
}

// Series lists known series as "farm/param" names, sorted.
func (r *Repository) Series() []string {
	out := make([]string, 0, len(r.series))
	for k := range r.series {
		out = append(out, k.farm+"/"+k.param)
	}
	sort.Strings(out)
	return out
}

// History fetches consolidated points for one series from archive idx.
func (r *Repository) History(farm, param string, idx int, from, to time.Duration) ([]rrd.Point, error) {
	sr, ok := r.series[seriesKey{farm, param}]
	if !ok {
		return nil, fmt.Errorf("monalisa: no series %s/%s", farm, param)
	}
	sr.db.FlushTo(r.clock.Now())
	return sr.db.Fetch(idx, from, to)
}

// FarmTotal sums the latest values of one parameter across all farms — the
// repository's grid-wide aggregate view. It adds them in farm-name order:
// a float sum depends on its order, and map order changes from call to
// call.
func (r *Repository) FarmTotal(param string) float64 {
	var farms []Metric
	for _, sr := range r.series {
		if sr.hasLast && sr.param == param {
			farms = append(farms, sr.last)
		}
	}
	sort.Slice(farms, func(i, j int) bool { return farms[i].Farm < farms[j].Farm })
	t := 0.0
	for _, m := range farms {
		t += m.Value
	}
	return t
}
