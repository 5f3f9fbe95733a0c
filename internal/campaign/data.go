package campaign

import (
	"fmt"
	"io"
	"time"

	"grid3/internal/core"
)

// DataSweepConfig shapes a data-plane campaign: for every seed the sweep
// runs the same scenario twice — once with the historical data plane (raw
// GridFTP writes, unbounded WAN flows, first-listed replica) and once with
// the managed plane (SRM reservations + lifecycle cleanup, per-endpoint
// transfer doors, load-ranked replica selection). The outcomes put numbers
// on the §7 "2-3 TB/day" milestone and the Figure 5 per-VO split, and show
// what the management machinery costs or buys.
type DataSweepConfig struct {
	// Seeds are the campaign seeds; empty means {1, 2, 3}.
	Seeds []int64
	// Base rides along into every run. A zero Horizon means 30 days (the
	// SC2003 window), and a zero TransferDoors gives the managed runs 4
	// doors (a typical gsiftp door count). The managed runs keep Base's
	// CleanupWatermark; seed and the data-plane toggles are overridden per
	// run.
	Base core.ScenarioConfig
	// Workers caps sweep parallelism (<=0 means GOMAXPROCS).
	Workers int
}

// DataOutcome is one run's data-plane scorecard.
type DataOutcome struct {
	// TBTotal and TBPerDay cover the whole run, all VO labels.
	TBTotal  float64            `json:"tb_total"`
	TBPerDay float64            `json:"tb_per_day"`
	ByVO     map[string]float64 `json:"tb_per_day_by_vo"`
	// WAN activity.
	Transfers    int64   `json:"transfers_completed"`
	Failures     int64   `json:"transfers_failed"`
	Queued       int64   `json:"transfers_queued"`
	PeakQueue    int     `json:"peak_queue_depth"`
	MeanWaitSecs float64 `json:"mean_queue_wait_seconds"`
	// SRM lifecycle totals across all sites.
	Granted      int   `json:"srm_granted"`
	Denied       int   `json:"srm_denied"`
	Expired      int   `json:"srm_expired"`
	Evicted      int   `json:"srm_evicted"`
	EvictedBytes int64 `json:"srm_evicted_bytes"`
	// RLIIndex is the replica index size at end of run — bounded by the
	// soft-state GC even as files churn.
	RLIIndex int `json:"rli_index_lfns"`
}

// DataPoint pairs the baseline and managed outcomes at one seed.
type DataPoint struct {
	Seed     int64       `json:"seed"`
	Baseline DataOutcome `json:"baseline"`
	Managed  DataOutcome `json:"managed"`
}

// DataReport is a completed data sweep.
type DataReport struct {
	Days     int
	JobScale float64
	Doors    int
	Elapsed  time.Duration
	// Points are ordered by seed in input order.
	Points []DataPoint
	// Managed TB/day across seeds — the milestone evidence.
	MinTBPerDay, MeanTBPerDay, MaxTBPerDay float64
}

// DataSweep runs the campaign. Runs fan across a worker pool exactly like
// Sweep: each run owns a private engine, so per-run determinism is
// untouched by parallel execution.
func DataSweep(cfg DataSweepConfig) (*DataReport, error) {
	if len(cfg.Seeds) == 0 {
		cfg.Seeds = []int64{1, 2, 3}
	}
	if cfg.Base.Horizon == 0 {
		cfg.Base.Horizon = 30 * 24 * time.Hour
	}
	if cfg.Base.TransferDoors == 0 {
		cfg.Base.TransferDoors = 4
	}

	// Flatten into independent runs: a baseline + managed pair per seed.
	var runs []core.ScenarioConfig
	mk := func(seed int64, managed bool) core.ScenarioConfig {
		sc := cfg.Base
		sc.Seed = seed
		// The baseline is the historical plane whatever Base carries.
		sc.UseSRM = managed
		sc.EnableReplicaRanking = managed
		sc.EnableStorageCleanup = managed
		if !managed {
			sc.TransferDoors = 0
			sc.CleanupWatermark = 0
		}
		return sc
	}
	for _, seed := range cfg.Seeds {
		runs = append(runs, mk(seed, false), mk(seed, true))
	}

	start := time.Now()
	outcomes := make([]DataOutcome, len(runs))
	// The report records the horizon, scale and doors as the first managed
	// run resolved them.
	var ran core.ScenarioConfig
	if _, err := fanOut(len(runs), cfg.Workers, func(i int) error {
		s, err := runScenario(runs[i])
		if err != nil {
			return fmt.Errorf("campaign: data seed %d: %w", runs[i].Seed, err)
		}
		outcomes[i] = scoreData(s)
		if i == 1 {
			ran = s.Cfg
		}
		return nil
	}); err != nil {
		return nil, err
	}

	rep := &DataReport{
		Days:     int(ran.Horizon / (24 * time.Hour)),
		JobScale: ran.JobScale,
		Doors:    ran.TransferDoors,
		Elapsed:  time.Since(start),
	}
	for i, seed := range cfg.Seeds {
		pt := DataPoint{Seed: seed, Baseline: outcomes[2*i], Managed: outcomes[2*i+1]}
		rep.Points = append(rep.Points, pt)
		v := pt.Managed.TBPerDay
		if i == 0 || v < rep.MinTBPerDay {
			rep.MinTBPerDay = v
		}
		if v > rep.MaxTBPerDay {
			rep.MaxTBPerDay = v
		}
		rep.MeanTBPerDay += v
	}
	rep.MeanTBPerDay /= float64(len(cfg.Seeds))
	return rep, nil
}

// scoreData scores one finished scenario's data plane.
func scoreData(s *core.Scenario) DataOutcome {
	g := s.Grid
	out := DataOutcome{ByVO: map[string]float64{}}

	days := g.Eng.Now().Hours() / 24
	var bytes int64
	for label, v := range g.Network.BytesByLabel() {
		bytes += v
		if days > 0 {
			out.ByVO[label] = float64(v) / float64(1<<40) / days
		}
	}
	out.TBTotal = float64(bytes) / float64(1<<40)
	if days > 0 {
		out.TBPerDay = out.TBTotal / days
	}

	out.Transfers = g.Network.Completed()
	out.Failures = g.Network.Failures()
	out.Queued = g.Network.QueuedTotal()
	out.PeakQueue = g.Network.PeakQueueDepth()
	out.MeanWaitSecs = g.Network.MeanQueueWait().Seconds()

	for _, name := range g.Order {
		m := g.Nodes[name].SRM
		out.Granted += m.Granted()
		out.Denied += m.Denied()
		out.Expired += m.Expired()
		out.Evicted += m.Evicted()
		out.EvictedBytes += m.EvictedBytes()
	}
	out.RLIIndex = g.RLI.KnownLFNs()
	return out
}

// Write renders the sweep as a baseline-vs-managed table.
func (rep *DataReport) Write(w io.Writer) {
	fmt.Fprintf(w, "Data sweep: %d day(s) per run, %d doors, %d points in %v\n",
		rep.Days, rep.Doors, len(rep.Points), rep.Elapsed.Round(time.Millisecond))
	fmt.Fprintf(w, "  %-6s | %-30s | %s\n", "seed", "baseline (raw GridFTP)", "managed (SRM + doors + ranking)")
	for _, pt := range rep.Points {
		b, m := pt.Baseline, pt.Managed
		fmt.Fprintf(w, "  %-6d | %6.2f TB/day %6d xfers %4d fail | %6.2f TB/day %6d xfers %4d fail, queued %d (peak %d, wait %s), srm %d/%d/%d g/d/e, evicted %d\n",
			pt.Seed,
			b.TBPerDay, b.Transfers, b.Failures,
			m.TBPerDay, m.Transfers, m.Failures,
			m.Queued, m.PeakQueue, (time.Duration(m.MeanWaitSecs * float64(time.Second))).Round(time.Second),
			m.Granted, m.Denied, m.Expired, m.Evicted)
	}
	fmt.Fprintf(w, "  managed TB/day across seeds: min %.2f  mean %.2f  max %.2f (milestone target 2-3)\n",
		rep.MinTBPerDay, rep.MeanTBPerDay, rep.MaxTBPerDay)
}
