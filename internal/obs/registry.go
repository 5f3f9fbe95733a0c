package obs

import (
	"fmt"
	"io"
	"sort"
)

// DurationBounds is the default histogram bucket ladder for sim-time
// latencies, in seconds: sub-second through a week, roughly geometric.
// Grid3 stage latencies span five orders of magnitude (a GRAM auth is
// instantaneous; a CMS OSCAR job runs 30+ hours; a match can wait days on a
// saturated grid), so the ladder is wide rather than fine.
var DurationBounds = []float64{
	0.5, 1, 2, 5, 10, 30,
	60, 120, 300, 600, 1800,
	3600, 7200, 14400, 43200,
	86400, 172800, 604800,
}

// Counter is a monotonically increasing uint64. A nil *Counter is a valid
// disabled counter: Add/Inc are no-ops and Value is zero, mirroring the nil
// Tracer contract so instrument structs can be wired partially.
type Counter struct {
	name string
	v    uint64
}

// Name returns the registered name.
func (c *Counter) Name() string {
	if c == nil {
		return ""
	}
	return c.name
}

// Add increments the counter by n.
func (c *Counter) Add(n uint64) {
	if c != nil {
		c.v += n
	}
}

// Inc increments the counter by one.
func (c *Counter) Inc() { c.Add(1) }

// Value returns the current count.
func (c *Counter) Value() uint64 {
	if c == nil {
		return 0
	}
	return c.v
}

// Gauge reports an instantaneous value through a closure, sampled only when
// a snapshot or the MonALISA bridge reads it.
type Gauge struct {
	name string
	fn   func() float64
}

// Name returns the registered name.
func (g *Gauge) Name() string { return g.name }

// Value samples the gauge.
func (g *Gauge) Value() float64 {
	if g == nil || g.fn == nil {
		return 0
	}
	return g.fn()
}

// Histogram is a fixed-bucket histogram: observations land in the first
// bucket whose upper bound is >= the value, or in the overflow bucket. The
// bounds are fixed at registration, so Observe is a linear scan over a
// small array — no allocation, no map.
type Histogram struct {
	name   string
	bounds []float64
	counts []uint64 // len(bounds)+1; last is overflow
	sum    float64
	n      uint64
}

// Name returns the registered name.
func (h *Histogram) Name() string {
	if h == nil {
		return ""
	}
	return h.name
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	if h == nil {
		return
	}
	i := 0
	for i < len(h.bounds) && v > h.bounds[i] {
		i++
	}
	h.counts[i]++
	h.sum += v
	h.n++
}

// Count returns the number of observations.
func (h *Histogram) Count() uint64 {
	if h == nil {
		return 0
	}
	return h.n
}

// Quantile returns the q-quantile (0 ≤ q ≤ 1) estimated by linear
// interpolation within the bucket where the rank falls. Values in the
// overflow bucket report the last bound.
func (h *Histogram) Quantile(q float64) float64 {
	if h == nil {
		return 0
	}
	return h.Snapshot().Quantile(q)
}

// Snapshot copies the histogram state into a mergeable value.
func (h *Histogram) Snapshot() HistSnapshot {
	if h == nil {
		return HistSnapshot{}
	}
	s := HistSnapshot{
		Name:   h.name,
		Bounds: h.bounds, // bounds are immutable after registration
		Counts: append([]uint64(nil), h.counts...),
		Sum:    h.sum,
		N:      h.n,
	}
	return s
}

// HistSnapshot is a point-in-time copy of a Histogram, safe to merge across
// scenario runs: the campaign sweeper merges per-seed snapshots of the same
// histogram and quantiles the union, which is how per-stage latency error
// bars are produced without shipping raw spans between goroutines.
type HistSnapshot struct {
	Name   string
	Bounds []float64
	Counts []uint64
	Sum    float64
	N      uint64
}

// Merge adds another snapshot of the same histogram shape into s.
// Mismatched bucket layouts are ignored rather than corrupting the merge.
func (s *HistSnapshot) Merge(o HistSnapshot) {
	if len(s.Counts) == 0 {
		s.Name, s.Bounds = o.Name, o.Bounds
		s.Counts = append([]uint64(nil), o.Counts...)
		s.Sum, s.N = o.Sum, o.N
		return
	}
	if len(o.Counts) != len(s.Counts) {
		return
	}
	for i, c := range o.Counts {
		s.Counts[i] += c
	}
	s.Sum += o.Sum
	s.N += o.N
}

// Mean returns the average observation, or 0 with no observations.
func (s HistSnapshot) Mean() float64 {
	if s.N == 0 {
		return 0
	}
	return s.Sum / float64(s.N)
}

// Quantile estimates the q-quantile by interpolating inside the bucket
// containing the rank. The overflow bucket reports the last bound.
func (s HistSnapshot) Quantile(q float64) float64 {
	if s.N == 0 || len(s.Counts) == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	rank := q * float64(s.N)
	cum := 0.0
	for i, c := range s.Counts {
		prev := cum
		cum += float64(c)
		if cum < rank || c == 0 {
			continue
		}
		if i >= len(s.Bounds) { // overflow bucket: no upper bound to lerp to
			return s.Bounds[len(s.Bounds)-1]
		}
		lo := 0.0
		if i > 0 {
			lo = s.Bounds[i-1]
		}
		hi := s.Bounds[i]
		frac := (rank - prev) / float64(c)
		return lo + (hi-lo)*frac
	}
	return s.Bounds[len(s.Bounds)-1]
}

// Registry is the scenario-wide metrics namespace. Metrics are get-or-create
// by name; iteration (snapshots, the text exporter, the MonALISA bridge) is
// in registration order, which is deterministic because the whole simulation
// is. A nil *Registry hands out nil metrics, which are themselves no-ops.
type Registry struct {
	counters map[string]*Counter
	hists    map[string]*Histogram
	gauges   map[string]*Gauge

	counterOrder []*Counter
	histOrder    []*Histogram
	gaugeOrder   []*Gauge
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters: map[string]*Counter{},
		hists:    map[string]*Histogram{},
		gauges:   map[string]*Gauge{},
	}
}

// Counter returns the named counter, creating it on first use.
func (r *Registry) Counter(name string) *Counter {
	if r == nil {
		return nil
	}
	if c, ok := r.counters[name]; ok {
		return c
	}
	c := &Counter{name: name}
	r.counters[name] = c
	r.counterOrder = append(r.counterOrder, c)
	return c
}

// Histogram returns the named histogram, creating it with the given
// ascending bucket upper bounds on first use (later calls keep the original
// bounds).
func (r *Registry) Histogram(name string, bounds []float64) *Histogram {
	if r == nil {
		return nil
	}
	if h, ok := r.hists[name]; ok {
		return h
	}
	h := &Histogram{
		name:   name,
		bounds: bounds,
		counts: make([]uint64, len(bounds)+1),
	}
	r.hists[name] = h
	r.histOrder = append(r.histOrder, h)
	return h
}

// Gauge registers (or replaces) the named gauge closure.
func (r *Registry) Gauge(name string, fn func() float64) *Gauge {
	if r == nil {
		return nil
	}
	if g, ok := r.gauges[name]; ok {
		g.fn = fn
		return g
	}
	g := &Gauge{name: name, fn: fn}
	r.gauges[name] = g
	r.gaugeOrder = append(r.gaugeOrder, g)
	return g
}

// Counters returns the registered counters in registration order. The
// slice is the registry's own and grows as counters are registered;
// callers must not modify it.
func (r *Registry) Counters() []*Counter {
	if r == nil {
		return nil
	}
	return r.counterOrder
}

// CounterSample and GaugeSample are snapshot rows.
type CounterSample struct {
	Name  string
	Value uint64
}

// GaugeSample is one sampled gauge.
type GaugeSample struct {
	Name  string
	Value float64
}

// Snapshot captures every metric. Counters and histograms come back in
// registration order; gauges are sampled at call time.
type Snapshot struct {
	Counters   []CounterSample
	Gauges     []GaugeSample
	Histograms []HistSnapshot
}

// Snapshot samples the whole registry.
func (r *Registry) Snapshot() *Snapshot {
	if r == nil {
		return &Snapshot{}
	}
	s := &Snapshot{}
	for _, c := range r.counterOrder {
		s.Counters = append(s.Counters, CounterSample{Name: c.name, Value: c.v})
	}
	for _, g := range r.gaugeOrder {
		s.Gauges = append(s.Gauges, GaugeSample{Name: g.name, Value: g.Value()})
	}
	for _, h := range r.histOrder {
		s.Histograms = append(s.Histograms, h.Snapshot())
	}
	return s
}

// WriteText renders the snapshot as an aligned, human-readable report:
// counters, then gauges, then histograms with count/mean/p50/p90/p99.
// Metrics with zero activity are skipped so a lightly-instrumented run
// stays readable.
func (s *Snapshot) WriteText(w io.Writer) error {
	if len(s.Counters) > 0 {
		if _, err := fmt.Fprintln(w, "# counters"); err != nil {
			return err
		}
		for _, c := range s.Counters {
			if c.Value == 0 {
				continue
			}
			if _, err := fmt.Fprintf(w, "%-40s %12d\n", c.Name, c.Value); err != nil {
				return err
			}
		}
	}
	if len(s.Gauges) > 0 {
		if _, err := fmt.Fprintln(w, "# gauges"); err != nil {
			return err
		}
		for _, g := range s.Gauges {
			if g.Value == 0 {
				continue
			}
			if _, err := fmt.Fprintf(w, "%-40s %12.2f\n", g.Name, g.Value); err != nil {
				return err
			}
		}
	}
	if len(s.Histograms) > 0 {
		if _, err := fmt.Fprintln(w, "# histograms (count mean p50 p90 p99)"); err != nil {
			return err
		}
		for _, h := range s.Histograms {
			if h.N == 0 {
				continue
			}
			if _, err := fmt.Fprintf(w, "%-40s %12d %12.2f %12.2f %12.2f %12.2f\n",
				h.Name, h.N, h.Mean(), h.Quantile(0.50), h.Quantile(0.90), h.Quantile(0.99)); err != nil {
				return err
			}
		}
	}
	return nil
}

// StageLatencies extracts the per-stage span-duration snapshots
// ("span.<kind>.seconds") keyed by stage name, the shape the campaign
// aggregator merges across seeds.
func (s *Snapshot) StageLatencies() map[string]HistSnapshot {
	out := map[string]HistSnapshot{}
	for _, h := range s.Histograms {
		const prefix, suffix = "span.", ".seconds"
		if len(h.Name) > len(prefix)+len(suffix) &&
			h.Name[:len(prefix)] == prefix && h.Name[len(h.Name)-len(suffix):] == suffix {
			out[h.Name[len(prefix):len(h.Name)-len(suffix)]] = h
		}
	}
	return out
}

// SortedStageNames returns the stage keys of a StageLatencies map in a
// stable order for rendering.
func SortedStageNames(m map[string]HistSnapshot) []string {
	names := make([]string, 0, len(m))
	for n := range m {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}
