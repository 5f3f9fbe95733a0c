// Package campaign fans independent Grid3 scenarios across CPUs.
//
// The paper's result is sustained production — 27 sites serving seven
// application classes for a 183-day sample window — and reproducing it
// credibly means running the campaign many times: across seeds for error
// bars, across configurations for ablations. Every mode takes its axes
// plus one core.ScenarioConfig that rides into each of its runs. A Sweep
// runs that scenario once per seed in parallel, one discrete-event Engine
// per worker goroutine, so each seed's run is bit-for-bit identical to
// running it alone; only the wall-clock time changes. Aggregation reports
// min/mean/max across seeds for the Table 1 and §7 milestone quantities.
package campaign

import (
	"bytes"
	"fmt"
	"io"
	"runtime"
	"sort"
	"sync"
	"time"

	"grid3/internal/acdc"
	"grid3/internal/core"
	"grid3/internal/obs"
)

// Result captures one run's outputs. Table1Text is the rendered Table 1,
// retained verbatim so determinism can be asserted byte-for-byte against
// a serial run of the same seed.
type Result struct {
	Seed       int64
	Scale      float64
	Elapsed    time.Duration // wall-clock build+run time for this seed
	Submitted  int
	Records    int
	Events     uint64 // engine events processed
	Milestones core.Milestones
	Table1     []acdc.ClassStats
	Table1Text string
	// StageLatencies holds the run's per-stage span-duration histograms
	// (stage name → snapshot), nil unless the run had observability on.
	StageLatencies map[string]obs.HistSnapshot
	// Waves carries the operational wave-family counters (rolling
	// upgrades, cert storms); zero when neither family was armed.
	Waves core.WaveStats
}

// Stat is a min/mean/max summary across seeds.
type Stat struct {
	Min, Mean, Max float64
}

func newStat(vals []float64) Stat {
	if len(vals) == 0 {
		return Stat{}
	}
	s := Stat{Min: vals[0], Max: vals[0]}
	sum := 0.0
	for _, v := range vals {
		if v < s.Min {
			s.Min = v
		}
		if v > s.Max {
			s.Max = v
		}
		sum += v
	}
	s.Mean = sum / float64(len(vals))
	return s
}

// StageQuantiles summarizes one lifecycle stage's latency across all seeds
// (histogram-merged, so quantiles are bucket-interpolated estimates).
type StageQuantiles struct {
	Count         uint64
	P50, P90, P99 float64 // seconds
}

// Aggregate summarizes the sweep across seeds.
type Aggregate struct {
	JobsCompleted  Stat // all classes combined
	PeakJobs       Stat
	Utilization    Stat
	DataTBPerDay   Stat
	SupportFTEs    Stat
	ConcurrentVO   Stat // sites serving ≥2 VOs
	EfficiencyByVO map[string]Stat
	// StageLatency maps lifecycle stage (submit, match, run, ...) to its
	// cross-seed latency quantiles; nil unless runs had observability on.
	StageLatency map[string]StageQuantiles
}

// Report is a completed sweep: per-seed results in input order plus the
// cross-seed aggregate.
type Report struct {
	Runs    []Result
	Workers int
	Elapsed time.Duration // wall clock for the whole sweep
	Agg     Aggregate
}

// Sweep runs base once per seed, fanning across at most workers goroutines
// (workers <= 0 means GOMAXPROCS). Each worker owns a private Engine, RNG,
// and grid, so per-seed determinism is untouched; results come back in
// seed order regardless of completion order. A failed run fails the sweep
// with the lowest-index error.
func Sweep(seeds []int64, base core.ScenarioConfig, workers int) (*Report, error) {
	if len(seeds) == 0 {
		return nil, fmt.Errorf("campaign: empty sweep")
	}
	start := time.Now()
	results := make([]Result, len(seeds))
	workers, err := fanOut(len(seeds), workers, func(i int) error {
		cfg := base
		cfg.Seed = seeds[i]
		var err error
		if results[i], err = execute(cfg); err != nil {
			return fmt.Errorf("campaign: seed %d: %w", seeds[i], err)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	rep := &Report{Runs: results, Workers: workers, Elapsed: time.Since(start)}
	rep.Agg = aggregate(results)
	return rep, nil
}

// fanOut calls run(i) for every i in [0, n) on at most workers goroutines
// (workers <= 0 means GOMAXPROCS) and returns the worker count it used and
// the error of the lowest failing index. Idle workers take the next index
// from a shared queue, so a long run never holds up the short ones queued
// behind it. run writes its result into the caller's slot i, so results
// land in input order whatever order the runs finish in.
func fanOut(n, workers int, run func(i int) error) (int, error) {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > n {
		workers = n
	}
	errs := make([]error, n)
	idx := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range idx {
				errs[i] = run(i)
			}
		}()
	}
	for i := 0; i < n; i++ {
		idx <- i
	}
	close(idx)
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return workers, err
		}
	}
	return workers, nil
}

// runScenario builds cfg's scenario and runs it to its horizon on the
// calling goroutine.
func runScenario(cfg core.ScenarioConfig) (*core.Scenario, error) {
	s, err := core.NewScenario(cfg)
	if err != nil {
		return nil, err
	}
	return s, s.Run()
}

// execute runs one scenario to completion on the calling goroutine.
func execute(cfg core.ScenarioConfig) (Result, error) {
	t0 := time.Now()
	s, err := runScenario(cfg)
	if err != nil {
		return Result{}, err
	}
	res := Result{
		Seed:       s.Cfg.Seed,
		Scale:      s.Cfg.JobScale,
		Elapsed:    time.Since(t0),
		Submitted:  s.SubmittedTotal(),
		Records:    s.Grid.ACDC.Len(),
		Events:     s.Grid.Eng.Processed(),
		Milestones: s.ComputeMilestones(),
		Table1:     s.Table1(),
		Waves:      s.WaveStats(),
	}
	var buf bytes.Buffer
	s.WriteTable1(&buf)
	res.Table1Text = buf.String()
	if o := s.Grid.Obs; o != nil {
		res.StageLatencies = o.Metrics.Snapshot().StageLatencies()
	}
	return res, nil
}

func aggregate(results []Result) Aggregate {
	pick := func(f func(Result) float64) Stat {
		vals := make([]float64, len(results))
		for i, r := range results {
			vals[i] = f(r)
		}
		return newStat(vals)
	}
	agg := Aggregate{
		JobsCompleted: pick(func(r Result) float64 {
			n := 0
			for _, st := range r.Table1 {
				n += st.Jobs
			}
			return float64(n)
		}),
		PeakJobs:       pick(func(r Result) float64 { return float64(r.Milestones.PeakJobs) }),
		Utilization:    pick(func(r Result) float64 { return r.Milestones.Utilization }),
		DataTBPerDay:   pick(func(r Result) float64 { return r.Milestones.DataTBPerDay }),
		SupportFTEs:    pick(func(r Result) float64 { return r.Milestones.SupportFTEs }),
		ConcurrentVO:   pick(func(r Result) float64 { return float64(r.Milestones.ConcurrentSites) }),
		EfficiencyByVO: map[string]Stat{},
	}
	for _, voName := range core.VOColumns {
		vals := make([]float64, 0, len(results))
		for _, r := range results {
			if eff, ok := r.Milestones.EfficiencyByVO[voName]; ok {
				vals = append(vals, eff)
			}
		}
		if len(vals) > 0 {
			agg.EfficiencyByVO[voName] = newStat(vals)
		}
	}
	// Merge stage histograms across seeds, then read quantiles off the
	// combined distribution.
	merged := map[string]obs.HistSnapshot{}
	for _, r := range results {
		for stage, snap := range r.StageLatencies {
			// The zero snapshot's first Merge copies, so per-seed counts
			// are never mutated in place.
			m := merged[stage]
			m.Merge(snap)
			merged[stage] = m
		}
	}
	for stage, snap := range merged {
		if snap.N == 0 {
			continue
		}
		if agg.StageLatency == nil {
			agg.StageLatency = map[string]StageQuantiles{}
		}
		agg.StageLatency[stage] = StageQuantiles{
			Count: snap.N,
			P50:   snap.Quantile(0.50),
			P90:   snap.Quantile(0.90),
			P99:   snap.Quantile(0.99),
		}
	}
	return agg
}

// Write renders the cross-seed summary.
func (rep *Report) Write(w io.Writer) {
	seeds := make([]string, len(rep.Runs))
	var events uint64
	for i, r := range rep.Runs {
		seeds[i] = fmt.Sprint(r.Seed)
		events += r.Events
	}
	fmt.Fprintf(w, "Campaign sweep: %d seeds {%s} on %d workers in %v\n",
		len(rep.Runs), joinMax(seeds, 8), rep.Workers, rep.Elapsed.Round(time.Millisecond))
	fmt.Fprintf(w, "  %d engine events total\n", events)
	row := func(label string, s Stat, format string) {
		fmt.Fprintf(w, "  %-24s min "+format+"  mean "+format+"  max "+format+"\n", label, s.Min, s.Mean, s.Max)
	}
	row("Jobs completed", rep.Agg.JobsCompleted, "%8.0f")
	row("Peak concurrent jobs", rep.Agg.PeakJobs, "%8.0f")
	row("Utilization", rep.Agg.Utilization, "%8.2f")
	row("Data TB/day", rep.Agg.DataTBPerDay, "%8.2f")
	row("Support FTEs", rep.Agg.SupportFTEs, "%8.2f")
	row("Concurrent-VO sites", rep.Agg.ConcurrentVO, "%8.0f")
	voNames := make([]string, 0, len(rep.Agg.EfficiencyByVO))
	for v := range rep.Agg.EfficiencyByVO {
		voNames = append(voNames, v)
	}
	sort.Strings(voNames)
	for _, v := range voNames {
		row("Efficiency "+v, rep.Agg.EfficiencyByVO[v], "%8.2f")
	}
	var waves core.WaveStats
	for _, r := range rep.Runs {
		waves.UpgradedSites += r.Waves.UpgradedSites
		waves.UpgradeKills += r.Waves.UpgradeKills
		waves.SkewKills += r.Waves.SkewKills
		waves.CertExpiries += r.Waves.CertExpiries
		waves.CertRenewals += r.Waves.CertRenewals
		waves.CertRevocations += r.Waves.CertRevocations
	}
	if !waves.Zero() {
		fmt.Fprintf(w, "  Waves (all seeds): %d site upgrades (%d restart kills, %d skew kills), %d cert expiries, %d renewals, %d revocations\n",
			waves.UpgradedSites, waves.UpgradeKills, waves.SkewKills,
			waves.CertExpiries, waves.CertRenewals, waves.CertRevocations)
	}
	if len(rep.Agg.StageLatency) > 0 {
		fmt.Fprintf(w, "  Stage latency quantiles (s):\n")
		stages := make([]string, 0, len(rep.Agg.StageLatency))
		for stage := range rep.Agg.StageLatency {
			stages = append(stages, stage)
		}
		sort.Strings(stages)
		for _, stage := range stages {
			q := rep.Agg.StageLatency[stage]
			fmt.Fprintf(w, "    %-22s n %8d  p50 %10.1f  p90 %10.1f  p99 %10.1f\n",
				stage, q.Count, q.P50, q.P90, q.P99)
		}
	}
}

func joinMax(parts []string, max int) string {
	if len(parts) <= max {
		out := parts[0]
		for _, p := range parts[1:] {
			out += " " + p
		}
		return out
	}
	return fmt.Sprintf("%s .. %s", parts[0], parts[len(parts)-1])
}
