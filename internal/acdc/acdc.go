// Package acdc implements the ACDC Job Monitor from the University at
// Buffalo's Advanced Computational Data Center (§5.2): pull-based
// collection of job records from every site's local job manager into a
// web-visible warehouse, and the aggregate queries behind the paper's
// Table 1 ("Grid3 computational job statistics ... source ACDC University
// at Buffalo").
package acdc

import (
	"fmt"
	"sort"
	"time"

	"grid3/internal/batch"
	"grid3/internal/sim"
)

// JobRecord is one warehouse row: a batch completion record plus the site
// it ran at.
type JobRecord struct {
	Site string
	batch.Record
}

// Month renders the record's completion month as "MM-YYYY" (the Table 1
// "Peak Production Month-Year" format), given the scenario epoch.
func (r JobRecord) Month(epoch time.Time) string {
	t := epoch.Add(r.Ended)
	return fmt.Sprintf("%02d-%d", int(t.Month()), t.Year())
}

// source is one watched batch system.
type source struct {
	site string
	sys  *batch.System
}

// Monitor pulls completion logs from all watched sites on a fixed
// interval — "collects information from local job managers using a typical
// pull-based model".
type Monitor struct {
	eng     sim.Scheduler
	epoch   time.Time
	sources []source
	ticker  *sim.Ticker
	records []JobRecord
	// Ignore lists VO names whose records are dropped at collection time
	// (local non-grid jobs on shared facilities).
	Ignore map[string]bool

	// cpuByVO tallies completed CPU seconds per VO incrementally at
	// append time, so the usage ledger's per-window sampling is O(#VOs)
	// instead of a warehouse rescan per seal.
	cpuByVO map[string]uint64
}

// New creates a monitor pulling every interval. epoch anchors month
// bucketing (the Grid3 scenario epoch).
func New(eng sim.Scheduler, epoch time.Time, interval time.Duration) *Monitor {
	m := &Monitor{eng: eng, epoch: epoch, cpuByVO: make(map[string]uint64)}
	m.ticker = sim.NewTicker(eng, interval, m.Pull)
	return m
}

// Watch adds a site's batch system to the polling set.
func (m *Monitor) Watch(siteName string, sys *batch.System) {
	m.sources = append(m.sources, source{site: siteName, sys: sys})
}

// Pull drains every watched system's completion log into the warehouse.
// The ticker calls this periodically; call it once more at scenario end to
// capture the tail.
func (m *Monitor) Pull() {
	for _, src := range m.sources {
		for _, r := range src.sys.DrainRecords() {
			if m.Ignore != nil && m.Ignore[r.VO] {
				continue
			}
			rec := JobRecord{Site: src.site, Record: r}
			m.account(rec)
			m.records = append(m.records, rec)
		}
	}
}

// account folds one record into the incremental per-VO CPU tally.
func (m *Monitor) account(r JobRecord) {
	if r.Outcome == batch.Completed {
		m.cpuByVO[r.VO] += uint64(r.Runtime() / time.Second)
	}
}

// Stop halts polling.
func (m *Monitor) Stop() { m.ticker.Stop() }

// Records returns the warehouse contents (live slice; do not mutate).
func (m *Monitor) Records() []JobRecord {
	return m.records
}

// Len returns the warehouse row count.
func (m *Monitor) Len() int {
	return len(m.records)
}

// CPUSecondsByVO returns cumulative completed CPU seconds per VO over
// the whole warehouse — the ledger's per-window accounting source
// (window deltas of this map). The returned map is a fresh copy.
func (m *Monitor) CPUSecondsByVO() map[string]uint64 {
	out := make(map[string]uint64, len(m.cpuByVO))
	for k, v := range m.cpuByVO {
		out[k] = v
	}
	return out
}

// ClassStats is one Table 1 column.
type ClassStats struct {
	VO              string
	Jobs            int // completed production jobs
	SitesUsed       int
	AvgRuntimeHours float64
	MaxRuntimeHours float64
	TotalCPUDays    float64
	// Peak production month (by completed jobs).
	PeakMonth         string
	PeakMonthJobs     int
	PeakMonthCPUDays  float64
	PeakResources     int // sites used during the peak month
	MaxSingleSiteJobs int // most jobs from one site in the peak month
	MaxSingleSitePct  float64
	// Efficiency counts all terminal records, not just completions.
	Failed int
}

// Efficiency returns completed/(completed+failed), the §7 job-completion
// metric; 0 when no jobs ran.
func (s ClassStats) Efficiency() float64 {
	total := s.Jobs + s.Failed
	if total == 0 {
		return 0
	}
	return float64(s.Jobs) / float64(total)
}

// Stats computes the Table 1 column for one VO.
func (m *Monitor) Stats(vo string) ClassStats {
	st := ClassStats{VO: vo}
	sites := map[string]bool{}
	var totalRuntime time.Duration
	// month → (jobs, cpu, per-site jobs)
	type monthAgg struct {
		jobs   int
		cpu    time.Duration
		bySite map[string]int
	}
	months := map[string]*monthAgg{}

	for _, r := range m.records {
		if r.VO != vo {
			continue
		}
		if r.Outcome != batch.Completed {
			st.Failed++
			continue
		}
		st.Jobs++
		sites[r.Site] = true
		rt := r.Runtime()
		totalRuntime += rt
		if h := rt.Hours(); h > st.MaxRuntimeHours {
			st.MaxRuntimeHours = h
		}
		key := r.Month(m.epoch)
		agg := months[key]
		if agg == nil {
			agg = &monthAgg{bySite: map[string]int{}}
			months[key] = agg
		}
		agg.jobs++
		agg.cpu += rt
		agg.bySite[r.Site]++
	}
	st.SitesUsed = len(sites)
	if st.Jobs > 0 {
		st.AvgRuntimeHours = totalRuntime.Hours() / float64(st.Jobs)
		st.TotalCPUDays = totalRuntime.Hours() / 24
	}
	// Peak month by job count; ties break to the earlier month.
	keys := make([]string, 0, len(months))
	for k := range months {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool { return monthLess(keys[i], keys[j]) })
	for _, k := range keys {
		if months[k].jobs > st.PeakMonthJobs {
			st.PeakMonth = k
			st.PeakMonthJobs = months[k].jobs
		}
	}
	if st.PeakMonth != "" {
		agg := months[st.PeakMonth]
		st.PeakMonthCPUDays = agg.cpu.Hours() / 24
		st.PeakResources = len(agg.bySite)
		for _, n := range agg.bySite {
			if n > st.MaxSingleSiteJobs {
				st.MaxSingleSiteJobs = n
			}
		}
		st.MaxSingleSitePct = 100 * float64(st.MaxSingleSiteJobs) / float64(agg.jobs)
	}
	return st
}

// monthLess orders "MM-YYYY" keys chronologically.
func monthLess(a, b string) bool {
	var am, ay, bm, by int
	fmt.Sscanf(a, "%d-%d", &am, &ay)
	fmt.Sscanf(b, "%d-%d", &bm, &by)
	if ay != by {
		return ay < by
	}
	return am < bm
}

// VOs returns every VO present in the warehouse, sorted.
func (m *Monitor) VOs() []string {
	seen := map[string]bool{}
	for _, r := range m.records {
		seen[r.VO] = true
	}
	out := make([]string, 0, len(seen))
	for vo := range seen {
		out = append(out, vo)
	}
	sort.Strings(out)
	return out
}

// JobsByMonth counts completed jobs per month across all VOs — Figure 6,
// "Distribution of the number of jobs run on Grid3 by month". Keys are
// chronological.
func (m *Monitor) JobsByMonth() ([]string, []int) {
	counts := map[string]int{}
	for _, r := range m.records {
		if r.Outcome != batch.Completed {
			continue
		}
		counts[r.Month(m.epoch)]++
	}
	keys := make([]string, 0, len(counts))
	for k := range counts {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool { return monthLess(keys[i], keys[j]) })
	out := make([]int, len(keys))
	for i, k := range keys {
		out[i] = counts[k]
	}
	return keys, out
}

// overlap returns the execution time a record spent inside (from, to].
func overlap(r JobRecord, from, to time.Duration) time.Duration {
	start, end := r.Started, r.Ended
	if start < from {
		start = from
	}
	if end > to {
		end = to
	}
	if end <= start {
		return 0
	}
	return end - start
}

// CPUDaysBySiteForVO returns CPU-days per site for one VO within
// (from, to] — the Figure 4 query (CMS cumulative usage by site). Jobs
// spanning the window boundary contribute only their overlap.
func (m *Monitor) CPUDaysBySiteForVO(vo string, from, to time.Duration) map[string]float64 {
	out := map[string]float64{}
	for _, r := range m.records {
		if r.VO != vo || r.Outcome != batch.Completed {
			continue
		}
		if d := overlap(r, from, to); d > 0 {
			out[r.Site] += d.Hours() / 24
		}
	}
	return out
}

// CPUDaysByVO returns CPU-days per VO within (from, to] — the Figure 2
// query (integrated usage by VO during the SC2003 window). Jobs spanning
// the window boundary contribute only their overlap.
func (m *Monitor) CPUDaysByVO(from, to time.Duration) map[string]float64 {
	out := map[string]float64{}
	for _, r := range m.records {
		if r.Outcome != batch.Completed {
			continue
		}
		if d := overlap(r, from, to); d > 0 {
			out[r.VO] += d.Hours() / 24
		}
	}
	return out
}

// AvgCPUsByVO returns the time-averaged number of CPUs in use per VO in
// each bin of width bin across (from, to] — the Figure 3 query
// (differential usage). The result maps VO → one value per bin.
func (m *Monitor) AvgCPUsByVO(from, to, bin time.Duration) map[string][]float64 {
	if bin <= 0 || to <= from {
		return nil
	}
	nbins := int((to - from + bin - 1) / bin)
	out := map[string][]float64{}
	for _, r := range m.records {
		if r.Outcome != batch.Completed {
			continue
		}
		series := out[r.VO]
		if series == nil {
			series = make([]float64, nbins)
			out[r.VO] = series
		}
		first, last := 0, nbins-1
		if r.Started > from {
			first = int((r.Started - from) / bin)
		}
		if r.Ended < to {
			last = int((r.Ended - from) / bin)
			if last >= nbins {
				last = nbins - 1
			}
		}
		for b := first; b <= last && b >= 0; b++ {
			bFrom := from + time.Duration(b)*bin
			bTo := bFrom + bin
			if bTo > to {
				bTo = to
			}
			if d := overlap(r, bFrom, bTo); d > 0 {
				series[b] += float64(d) / float64(bTo-bFrom)
			}
		}
	}
	return out
}
