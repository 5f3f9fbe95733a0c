package campaign

import (
	"fmt"
	"io"
	"sort"
	"time"

	"grid3/internal/core"
	"grid3/internal/failure"
	"grid3/internal/obs"
	"grid3/internal/vo"
)

// ChaosSweepConfig shapes a chaos campaign: for every (seed, intensity)
// pair the sweep runs the same scenario twice — once with injection only
// (the no-reaction baseline) and once with the closed fault-management loop
// (EnableRecovery) — plus one failure-free reference run per seed. The
// resulting curves show how much goodput the recovery loop buys back as
// failure intensity climbs.
type ChaosSweepConfig struct {
	// Seeds are the campaign seeds; empty means {1}.
	Seeds []int64
	// Intensities are the failure multipliers to sweep (see
	// failure.Scaled); empty means {1, 2, 4}.
	Intensities []float64
	// Base rides along into every run, horizon and job scale included;
	// seed, intensity, failure and recovery toggles are overridden per run.
	Base core.ScenarioConfig
	// Workers caps sweep parallelism (<=0 means GOMAXPROCS).
	Workers int
}

// KindStats aggregates detection and repair latency for one failure kind,
// measured by correlating injected incidents with the health monitor's
// outage spans (breaker open → close).
type KindStats struct {
	Injected int           // incidents injected
	Detected int           // incidents matched to an outage span
	MTTD     time.Duration // mean time from injection to breaker open
	MTTR     time.Duration // mean time from injection to breaker close
}

// ChaosOutcome is one run's fault-tolerance scorecard.
type ChaosOutcome struct {
	Submitted      int
	Completed      int
	JobsLost       int     // jobs that reached a failed terminal state
	CompletionRate float64 // completed / decided (completed + lost)
	// GoodputRetention is completed jobs as a fraction of the same seed's
	// failure-free run — how much of the clean-weather goodput survived.
	GoodputRetention float64
	Incidents        int
	// Recovery-loop activity (zero in baseline runs).
	ReplicaFailovers uint64
	StageRetries     uint64
	BreakersOpened   uint64
	TicketsOpened    int
	// Outages maps failure kind → detection/repair latency; only populated
	// for recovery runs (the baseline has no health monitor watching).
	Outages map[string]KindStats
}

// ChaosPoint pairs the baseline and recovery outcomes at one (seed,
// intensity) coordinate.
type ChaosPoint struct {
	Seed      int64
	Intensity float64
	Baseline  ChaosOutcome
	Recovery  ChaosOutcome
}

// ChaosReport is a completed chaos sweep.
type ChaosReport struct {
	Scale   float64
	Horizon time.Duration
	Elapsed time.Duration
	// CleanCompleted is each seed's failure-free completion count — the
	// denominator of every goodput-retention figure.
	CleanCompleted map[int64]int
	// Points are ordered by (seed, intensity) in input order.
	Points []ChaosPoint
}

// ChaosSweep runs the campaign. Runs fan across a worker pool exactly like
// Sweep: each run owns a private engine, so per-run determinism is
// untouched by parallel execution.
func ChaosSweep(cfg ChaosSweepConfig) (*ChaosReport, error) {
	if len(cfg.Seeds) == 0 {
		cfg.Seeds = []int64{1}
	}
	if len(cfg.Intensities) == 0 {
		cfg.Intensities = []float64{1, 2, 4}
	}

	// Flatten the campaign into independent runs: one clean run per seed,
	// then a baseline + recovery pair per (seed, intensity).
	var runs []core.ScenarioConfig
	mk := func(seed int64, intensity float64, recovery, clean bool) core.ScenarioConfig {
		sc := cfg.Base
		sc.Seed = seed
		sc.ChaosIntensity = intensity
		sc.DisableFailures = clean
		sc.EnableRecovery = recovery
		if recovery {
			// MTTD/MTTR come from outage spans, so recovery runs trace.
			sc.EnableObservability = true
		}
		return sc
	}
	for _, seed := range cfg.Seeds {
		runs = append(runs, mk(seed, 0, false, true))
		for _, in := range cfg.Intensities {
			runs = append(runs, mk(seed, in, false, false))
			runs = append(runs, mk(seed, in, true, false))
		}
	}

	start := time.Now()
	outcomes := make([]ChaosOutcome, len(runs))
	// Every run shares Base's horizon and scale; the report records them as
	// the first run resolved them.
	var ran core.ScenarioConfig
	if _, err := fanOut(len(runs), cfg.Workers, func(i int) error {
		s, err := runScenario(runs[i])
		if err != nil {
			return fmt.Errorf("campaign: chaos seed %d: %w", runs[i].Seed, err)
		}
		outcomes[i] = scoreChaos(s)
		if i == 0 {
			ran = s.Cfg
		}
		return nil
	}); err != nil {
		return nil, err
	}

	rep := &ChaosReport{
		Scale:          ran.JobScale,
		Horizon:        ran.Horizon,
		Elapsed:        time.Since(start),
		CleanCompleted: make(map[int64]int),
	}
	i := 0
	for _, seed := range cfg.Seeds {
		clean := outcomes[i]
		i++
		rep.CleanCompleted[seed] = clean.Completed
		for _, in := range cfg.Intensities {
			pt := ChaosPoint{Seed: seed, Intensity: in, Baseline: outcomes[i], Recovery: outcomes[i+1]}
			i += 2
			if clean.Completed > 0 {
				pt.Baseline.GoodputRetention = float64(pt.Baseline.Completed) / float64(clean.Completed)
				pt.Recovery.GoodputRetention = float64(pt.Recovery.Completed) / float64(clean.Completed)
			}
			rep.Points = append(rep.Points, pt)
		}
	}
	return rep, nil
}

// scoreChaos scores one finished scenario.
func scoreChaos(s *core.Scenario) ChaosOutcome {
	g := s.Grid
	var out ChaosOutcome
	for _, voName := range vo.Grid3VOs {
		st := g.Stats(voName)
		out.Submitted += st.Submitted
		out.Completed += st.Completed
		out.JobsLost += st.ExecFailures + st.StageOutFailures + st.SRMDeferred
	}
	// Rate over decided jobs: a bounded-horizon run cuts off jobs still in
	// flight, which are neither successes nor casualties.
	if decided := out.Completed + out.JobsLost; decided > 0 {
		out.CompletionRate = float64(out.Completed) / float64(decided)
	}
	if s.Injector != nil {
		out.Incidents = len(s.Injector.Events())
	}
	if o := g.Obs; o != nil {
		for _, c := range o.Metrics.Snapshot().Counters {
			switch c.Name {
			case "health.failover.replica":
				out.ReplicaFailovers = c.Value
			case "health.retry.stage":
				out.StageRetries = c.Value
			case "health.breaker.opened":
				out.BreakersOpened = c.Value
			}
		}
	}
	if g.Health != nil {
		out.TicketsOpened = g.Desk.TicketCount()
		if s.Injector != nil && g.Obs != nil {
			out.Outages = outageStats(s.Injector.Events(), g.Obs.Tracer.Spans())
		}
	}
	return out
}

// outageService maps an injected failure kind to the probed service whose
// breaker detects it; kinds with no service-level symptom (rollovers,
// random loss) produce no outage span and are not latency-scored.
func outageService(k failure.Kind) (string, bool) {
	switch k {
	case failure.ServiceFailure:
		return "gram", true
	case failure.NetworkOutage:
		return "gridftp", true
	case failure.DiskFull:
		return "srm", true
	}
	return "", false
}

// outageStats greedily matches injected incidents to the health monitor's
// KindOutage spans (same site and service, span opens at or after
// injection) and averages detection and repair latency per kind.
func outageStats(events []failure.Event, spans []obs.Span) map[string]KindStats {
	type epKey struct{ site, svc string }
	bySurface := map[epKey][]obs.Span{}
	for _, sp := range spans {
		if sp.Kind != obs.KindOutage || !sp.Ended() {
			continue
		}
		k := epKey{sp.Site, sp.Job} // outage spans carry the service in Job
		bySurface[k] = append(bySurface[k], sp)
	}
	for k := range bySurface {
		sort.Slice(bySurface[k], func(i, j int) bool { return bySurface[k][i].Start < bySurface[k][j].Start })
	}
	used := map[epKey]int{}
	out := map[string]KindStats{}
	for _, e := range events {
		svc, ok := outageService(e.Kind)
		if !ok {
			continue
		}
		st := out[e.Kind.String()]
		st.Injected++
		k := epKey{e.Site, svc}
		// Consume the first unclaimed span opening at or after injection.
		for i := used[k]; i < len(bySurface[k]); i++ {
			sp := bySurface[k][i]
			if sp.Start < e.At {
				used[k] = i + 1
				continue
			}
			used[k] = i + 1
			st.Detected++
			st.MTTD += sp.Start - e.At
			st.MTTR += sp.End - e.At
			break
		}
		out[e.Kind.String()] = st
	}
	for kind, st := range out {
		if st.Detected > 0 {
			st.MTTD /= time.Duration(st.Detected)
			st.MTTR /= time.Duration(st.Detected)
		}
		out[kind] = st
	}
	return out
}

// Write renders the sweep as goodput-retention and recovery-latency curves.
func (rep *ChaosReport) Write(w io.Writer) {
	fmt.Fprintf(w, "Chaos sweep: %d points in %v\n", len(rep.Points), rep.Elapsed.Round(time.Millisecond))
	fmt.Fprintf(w, "  %-6s %-9s | %-28s | %-28s | %s\n",
		"seed", "intensity", "baseline (no reaction)", "recovery (closed loop)", "loop activity")
	for _, pt := range rep.Points {
		b, r := pt.Baseline, pt.Recovery
		fmt.Fprintf(w, "  %-6d %-9.2g | done %5d/%-5d ret %5.1f%% | done %5d/%-5d ret %5.1f%% | failovers %d, stage retries %d, breakers %d, tickets %d\n",
			pt.Seed, pt.Intensity,
			b.Completed, b.Submitted, 100*b.GoodputRetention,
			r.Completed, r.Submitted, 100*r.GoodputRetention,
			r.ReplicaFailovers, r.StageRetries, r.BreakersOpened, r.TicketsOpened)
		kinds := make([]string, 0, len(r.Outages))
		for k := range r.Outages {
			kinds = append(kinds, k)
		}
		sort.Strings(kinds)
		for _, k := range kinds {
			st := r.Outages[k]
			if st.Detected == 0 {
				continue
			}
			fmt.Fprintf(w, "    %-18s injected %3d detected %3d  MTTD %8s  MTTR %8s\n",
				k, st.Injected, st.Detected, st.MTTD.Round(time.Second), st.MTTR.Round(time.Second))
		}
	}
}
