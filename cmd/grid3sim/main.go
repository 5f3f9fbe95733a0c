// Command grid3sim runs the full Grid3 production scenario (October 23
// 2003 through April 23 2004) and prints every figure and table from the
// paper's evaluation: Figures 2-6, Table 1, and the §7 milestones.
//
// Usage:
//
//	grid3sim [-seed N] [-scale F] [-days D] [-srm] [-no-failures] [-no-affinity]
//
// Multi-seed campaign sweeps fan across CPUs, one engine per worker:
//
//	grid3sim -seeds 1,2,3,4 [-parallel N] [-json-out sweep.json]
//
// Observability (job-lifecycle spans and the metrics registry) is off by
// default; either flag enables it for the run:
//
//	grid3sim -trace-out trace.jsonl -metrics-out metrics.txt
//
// Fault management: -health arms read-only site probing with circuit
// breakers and iGOC tickets; -recovery closes the loop (breaker-aware
// matchmaking and planning, replica failover, bounded stage retries).
//
// Testbed scaling: -sites N grows the site population past the historical
// 27 with a seeded synthetic generator (N <= 27 is a catalog prefix):
//
//	grid3sim -sites 1000 -days 1
//
// Data plane: -doors bounds concurrent GridFTP flows per endpoint (excess
// transfers queue FIFO), -cleanup arms the SRM lifecycle loop (scheduled
// reservation expiry, pins, watermark eviction), and -replica-rank picks
// Pegasus stage-in sources by live WAN load.
//
// Checkpoint/restore: -checkpoint-at pauses a single-seed run at the listed
// sim times and commits a snapshot to the -checkpoint-out file (capture is a
// pure read, so the run's output is byte-identical to one that never
// checkpoints); -restore rebuilds the run from a snapshot file by verified
// deterministic replay and continues to the horizon, printing the same
// figures the straight run would:
//
//	grid3sim -days 20 -scale 0.1 -checkpoint-at 240h -checkpoint-out snap.g3
//	grid3sim -restore snap.g3
//
// Usage ledger: -ingest-batch N (any N > 0; the value is not a batch
// size) arms the per-VO Merkle usage ledger, which seals one root of
// per-VO usage per window (-ingest-window, default the monitor
// interval). Monitoring commits per event either way, and the output is
// bit-identical to a run without the ledger:
//
//	grid3sim -days 20 -scale 0.1 -ingest-batch 256
//
// Warm starts fork one checkpointed steady state into variants that share
// the verified warmup but draw their failure futures from per-variant
// forward seeds (0 replays the recorded stream):
//
//	grid3sim -restore snap.g3 -warm-seeds 0,101,102,103 [-json-out warm.json]
//
// Profiling: -cpuprofile writes a CPU profile of a single run (set-up
// included) and -memprofile writes the allocs profile once the run has
// finished, after a collection, so in-use space shows what the finished
// run still holds. Neither changes the printed output:
//
//	grid3sim -sites 1000 -days 1 -quiet -memprofile mem.prof
//	go tool pprof -sample_index=inuse_space -top mem.prof
//
// Report JSON: -json-out writes a sweep's report, grid3.sweep/1 for -seeds
// (the record grid3exp writes for a sweep experiment) and
// grid3.warm-start/1 for -warm-seeds. A single run has no report JSON, so
// -json-out without either is refused.
//
// The chaos, testbed-scale, data-plane and ingestion campaigns are
// declared in experiments/core.json and run by cmd/grid3exp:
//
//	grid3exp run experiments/core.json -only chaos
package main

import (
	"bufio"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"strconv"
	"strings"
	"time"

	"grid3/internal/campaign"
	"grid3/internal/checkpoint"
	"grid3/internal/core"
	"grid3/internal/failure"
	"grid3/internal/mdviewer"
	"grid3/internal/obs"
)

func main() {
	seed := flag.Int64("seed", 1, "simulation seed (same seed, same run)")
	seedList := flag.String("seeds", "", "comma-separated seed list: sweep all of them in parallel")
	parallel := flag.Int("parallel", 0, "sweep workers (0 = GOMAXPROCS)")
	scale := flag.Float64("scale", 1.0, "workload scale factor (1.0 = paper's ~290k jobs)")
	days := flag.Int("days", 183, "scenario length in days")
	useSRM := flag.Bool("srm", false, "enable SRM space reservation (the §8 lesson)")
	noFailures := flag.Bool("no-failures", false, "disable failure injection")
	noAffinity := flag.Bool("no-affinity", false, "disable VO site affinity (uniform matchmaking)")
	quiet := flag.Bool("quiet", false, "print only the summary line")
	csvDir := flag.String("csv", "", "also write figure CSVs into this directory")
	traceOut := flag.String("trace-out", "", "enable tracing and write the span trace (JSONL) to this file")
	metricsOut := flag.String("metrics-out", "", "enable metrics and write the registry snapshot (text) to this file")
	healthOn := flag.Bool("health", false, "arm site health probing with circuit breakers (read-only)")
	recoveryOn := flag.Bool("recovery", false, "close the fault-management loop (implies -health)")
	sites := flag.Int("sites", 0, "testbed size: 0 = the historical 27-site catalog, larger adds synthetic sites")
	doors := flag.Int("doors", 0, "bound concurrent GridFTP flows per endpoint (0 = historical unbounded WAN)")
	cleanupOn := flag.Bool("cleanup", false, "arm the SRM lifecycle loop (scheduled expiry, pins, watermark eviction sweep)")
	replicaRank := flag.Bool("replica-rank", false, "rank Pegasus stage-in replicas by live WAN load")
	ingestBatch := flag.Int("ingest-batch", 0, "N > 0 arms the per-VO Merkle usage ledger (not a batch size: every N > 0 is the same; output is identical with or without it)")
	ingestWindow := flag.Duration("ingest-window", 0, "usage-ledger window (0 = the monitor interval; needs -ingest-batch)")
	upgradeAt := flag.Duration("upgrade-at", 0, "start the rolling VDT/Pacman upgrade wave at this sim time (0 = off)")
	upgradeStagger := flag.Duration("upgrade-stagger", 0, "tier-to-tier stagger for -upgrade-at (0 = the 48h default)")
	certLifetime := flag.Duration("cert-lifetime", 0, "arm GSI host-credential expiry storms with this per-site lifetime (0 = off)")
	certRenewal := flag.Duration("cert-renewal", 0, "mean renewal outage for -cert-lifetime (0 = the 3h default)")
	jsonOut := flag.String("json-out", "", "write the -seeds or -warm-seeds report JSON to this file")
	checkpointAt := flag.String("checkpoint-at", "", "comma-separated sim times (e.g. 240h,360h): capture a snapshot at each into -checkpoint-out")
	checkpointOut := flag.String("checkpoint-out", "", "snapshot file receiving -checkpoint-at captures (the file holds the latest capture)")
	restorePath := flag.String("restore", "", "restore the run from this snapshot file (verified deterministic replay) and continue")
	warmSeeds := flag.String("warm-seeds", "", "comma-separated forward failure seeds: fork the -restore snapshot into one variant per seed (0 = replay the recorded stream)")
	cpuProfile := flag.String("cpuprofile", "", "write a CPU profile of the run to this file")
	memProfile := flag.String("memprofile", "", "write the allocs profile at the end of the run to this file (in-use space shows what the finished run holds)")
	flag.Parse()
	daysSet := false
	flag.Visit(func(f *flag.Flag) {
		if f.Name == "days" {
			daysSet = true
		}
	})

	cfg := core.ScenarioConfig{
		Config: core.Config{
			Seed:                 *seed,
			UseSRM:               *useSRM,
			DisableAffinity:      *noAffinity,
			EnableHealth:         *healthOn,
			EnableRecovery:       *recoveryOn,
			TestbedSites:         *sites,
			TransferDoors:        *doors,
			EnableStorageCleanup: *cleanupOn,
			EnableReplicaRanking: *replicaRank,
			IngestBatch:          *ingestBatch,
			IngestWindow:         *ingestWindow,
		},
		Horizon:         time.Duration(*days) * 24 * time.Hour,
		JobScale:        *scale,
		DisableFailures: *noFailures,
	}
	// Wave families: the tuning flags require their arming flag, the same
	// loud refusal the checkpoint pair gets.
	if *upgradeStagger != 0 && *upgradeAt == 0 {
		fmt.Fprintln(os.Stderr, "grid3sim: -upgrade-stagger needs -upgrade-at")
		os.Exit(2)
	}
	if *certRenewal != 0 && *certLifetime == 0 {
		fmt.Fprintln(os.Stderr, "grid3sim: -cert-renewal needs -cert-lifetime")
		os.Exit(2)
	}
	cfg.UpgradeWave = core.UpgradeWaveConfig{Start: *upgradeAt, Stagger: *upgradeStagger}
	cfg.CertWave = core.CertWaveConfig{Lifetime: *certLifetime, RenewalDelay: *certRenewal}

	// Checkpoint flags arm the single-run capture loop; both halves are
	// needed (times without a destination, or a destination with nothing to
	// capture, are configuration mistakes worth refusing loudly).
	if (*checkpointAt == "") != (*checkpointOut == "") {
		fmt.Fprintln(os.Stderr, "grid3sim: -checkpoint-at and -checkpoint-out go together")
		os.Exit(2)
	}
	if *checkpointAt != "" {
		at, err := parseDurations(*checkpointAt)
		if err != nil {
			fmt.Fprintln(os.Stderr, "grid3sim:", err)
			os.Exit(2)
		}
		cfg.CheckpointAt = at
		cfg.CheckpointStore = checkpoint.NewFileStore(*checkpointOut)
	}

	if (*cpuProfile != "" || *memProfile != "") && (*seedList != "" || *warmSeeds != "") {
		fmt.Fprintln(os.Stderr, "grid3sim: -cpuprofile/-memprofile apply to single runs only")
		os.Exit(2)
	}
	if *jsonOut != "" && *seedList == "" && *warmSeeds == "" {
		fmt.Fprintln(os.Stderr, "grid3sim: -json-out applies to -seeds and -warm-seeds runs only")
		os.Exit(2)
	}

	if *warmSeeds != "" {
		if *restorePath == "" {
			fmt.Fprintln(os.Stderr, "grid3sim: -warm-seeds needs a -restore snapshot to fork from")
			os.Exit(2)
		}
		var horizon time.Duration
		if daysSet {
			horizon = time.Duration(*days) * 24 * time.Hour
		}
		if err := warmStart(*restorePath, *warmSeeds, horizon, *parallel, *jsonOut); err != nil {
			fmt.Fprintln(os.Stderr, "grid3sim:", err)
			os.Exit(1)
		}
		return
	}

	if *seedList != "" {
		if *traceOut != "" || *metricsOut != "" {
			fmt.Fprintln(os.Stderr, "grid3sim: -trace-out/-metrics-out apply to single-seed runs only")
			os.Exit(1)
		}
		if err := sweep(*seedList, *parallel, *jsonOut, *quiet, cfg); err != nil {
			fmt.Fprintln(os.Stderr, "grid3sim:", err)
			os.Exit(1)
		}
		return
	}

	// Observability outputs: sinks flush when the scenario finishes, so the
	// files are opened up front and closed after the run.
	var obsClose []func() error
	addObsFile := func(path string, attach func(*bufio.Writer)) {
		f, err := os.Create(path)
		if err != nil {
			fmt.Fprintln(os.Stderr, "grid3sim:", err)
			os.Exit(1)
		}
		bw := bufio.NewWriter(f)
		attach(bw)
		obsClose = append(obsClose, func() error {
			if err := bw.Flush(); err != nil {
				f.Close()
				return err
			}
			return f.Close()
		})
	}
	if *traceOut != "" {
		addObsFile(*traceOut, func(w *bufio.Writer) {
			cfg.TraceSinks = append(cfg.TraceSinks, obs.JSONLSink(w))
		})
	}
	if *metricsOut != "" {
		addObsFile(*metricsOut, func(w *bufio.Writer) {
			cfg.MetricsSinks = append(cfg.MetricsSinks, obs.TextMetricsSink(w))
		})
	}

	var stopCPUProfile func() error
	if *cpuProfile != "" {
		stop, err := startCPUProfile(*cpuProfile)
		if err != nil {
			fmt.Fprintln(os.Stderr, "grid3sim:", err)
			os.Exit(1)
		}
		stopCPUProfile = stop
	}

	start := time.Now()
	var s *core.Scenario
	var err error
	if *restorePath != "" {
		// Restore keeps the snapshot's recorded configuration; the flags that
		// may legitimately differ at restore time (an extended horizon,
		// fresh observability sinks, re-armed checkpointing) pass through
		// the override whitelist.
		var snap *checkpoint.Snapshot
		snap, _, err = checkpoint.Latest(checkpoint.NewFileStore(*restorePath))
		if err != nil {
			fmt.Fprintln(os.Stderr, "grid3sim:", err)
			os.Exit(1)
		}
		ov := core.RestoreOverrides{
			TraceSinks:      cfg.TraceSinks,
			MetricsSinks:    cfg.MetricsSinks,
			CheckpointAt:    cfg.CheckpointAt,
			CheckpointStore: cfg.CheckpointStore,
		}
		if daysSet {
			ov.Horizon = time.Duration(*days) * 24 * time.Hour
		}
		s, err = core.RestoreScenario(snap, ov)
		if err == nil {
			// stderr, so stdout stays byte-identical to the straight run —
			// the property CI diffs.
			fmt.Fprintf(os.Stderr, "grid3sim: restored %s (sim %v)\n", snap.ID(), snap.SimTime)
		}
	} else {
		s, err = core.NewScenario(cfg)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "grid3sim:", err)
		os.Exit(1)
	}
	if err := s.Run(); err != nil {
		fmt.Fprintln(os.Stderr, "grid3sim:", err)
		os.Exit(1)
	}
	elapsed := time.Since(start)
	if stopCPUProfile != nil {
		if err := stopCPUProfile(); err != nil {
			fmt.Fprintln(os.Stderr, "grid3sim: writing CPU profile:", err)
			os.Exit(1)
		}
	}
	if *memProfile != "" {
		if err := writeMemProfile(*memProfile); err != nil {
			fmt.Fprintln(os.Stderr, "grid3sim: writing memory profile:", err)
			os.Exit(1)
		}
	}
	if n := len(s.CheckpointIDs); n > 0 {
		// stderr for the same reason as the restore banner above.
		fmt.Fprintf(os.Stderr, "grid3sim: %d snapshot(s) written to %s (latest %s)\n",
			n, *checkpointOut, s.CheckpointIDs[n-1])
	}
	for _, closeFn := range obsClose {
		if err := closeFn(); err != nil {
			fmt.Fprintln(os.Stderr, "grid3sim: writing observability output:", err)
			os.Exit(1)
		}
	}
	if *traceOut != "" {
		fmt.Printf("span trace written to %s\n", *traceOut)
	}
	if *metricsOut != "" {
		fmt.Printf("metrics snapshot written to %s\n", *metricsOut)
	}

	// Report the configuration the scenario actually ran with: on a restore
	// the flag defaults are meaningless, the snapshot's recorded values rule.
	runDays := int(s.Cfg.Horizon / (24 * time.Hour))
	runSeed, runScale := s.Cfg.Config.Seed, s.Cfg.JobScale
	fmt.Printf("Grid3 scenario: %d days, seed %d, scale %.2f — %d jobs submitted, %d records, %d events, ran in %v\n\n",
		runDays, runSeed, runScale, s.SubmittedTotal(), s.Grid.ACDC.Len(), s.Grid.Eng.Processed(),
		elapsed.Round(time.Millisecond))
	if *csvDir != "" {
		if err := writeCSVs(s, *csvDir); err != nil {
			fmt.Fprintln(os.Stderr, "grid3sim: writing CSVs:", err)
		} else {
			fmt.Printf("figure CSVs written to %s\n\n", *csvDir)
		}
	}
	if *quiet {
		return
	}

	w := os.Stdout

	// §7 milestones.
	s.ComputeMilestones().Write(w)
	fmt.Fprintln(w)

	// Figure 2: integrated CPU usage during SC2003.
	mdviewer.BarChart(w, "Figure 2: integrated CPU usage during SC2003 (30 days from Oct 25), by VO",
		"CPU-days", s.Figure2(), 44)
	fmt.Fprintln(w)

	// Figure 3: differential CPU usage (weekly summary for readability).
	fig3 := s.Figure3()
	weekly := weeklyPlot(fig3)
	weekly.WriteTable(w)
	fmt.Fprintln(w)

	// Figure 4: CMS cumulative usage by site.
	mdviewer.BarChart(w, "Figure 4: CMS cumulative usage by site (150 days from Nov 2003)",
		"CPU-days", s.Figure4(), 44)
	fmt.Fprintln(w)

	// Figure 5: data consumed by VO.
	byVO, total := s.Figure5()
	mdviewer.BarChart(w, fmt.Sprintf("Figure 5: data consumed by Grid3 sites, by VO (total %.1f TB)", total),
		"TB", byVO, 44)
	fmt.Fprintln(w)

	// Figure 6: jobs by month.
	months, counts := s.Figure6()
	mdviewer.Histogram(w, "Figure 6: jobs run on Grid3 by month", months, counts, 44)
	fmt.Fprintln(w)

	// Table 1.
	s.WriteTable1(w)
	fmt.Fprintln(w)

	// Failure attribution (§6.1).
	if s.Injector != nil {
		fmt.Fprintf(w, "Failure injection: %d incidents, %.0f%% of killed jobs from site problems (paper: ~90%%)\n",
			len(s.Injector.Events()), 100*s.Injector.SiteProblemFraction())
		counts := s.Injector.CountByKind()
		killed := s.Injector.KilledByKind()
		for kind := failure.DiskFull; kind <= failure.RandomLoss; kind++ {
			if counts[kind] == 0 {
				continue
			}
			fmt.Fprintf(w, "  %-18s %4d incidents, %5d jobs killed\n",
				kind, counts[kind], killed[kind])
		}
	}

	// Wave-family summaries (only when armed, so default output is
	// byte-identical to a wave-free build).
	if uw := s.Upgrade; uw != nil {
		fmt.Fprintf(w, "Upgrade wave: %d/%d sites on the new release (%d reinstall kills, %d skew kills, converged at %v)\n",
			uw.SitesUpgraded, len(s.Grid.Order), uw.RestartKills, uw.SkewKills, uw.ConvergedAt)
	}
	if cw := s.Certs; cw != nil {
		fmt.Fprintf(w, "Cert storms: %d expiries, %d renewals, %d revocations\n",
			cw.Expiries, cw.Renewals, cw.Revocations)
	}
}

// startCPUProfile starts CPU profiling into path; the returned function
// stops it and closes the file.
func startCPUProfile(path string) (func() error, error) {
	f, err := os.Create(path)
	if err != nil {
		return nil, err
	}
	if err := pprof.StartCPUProfile(f); err != nil {
		f.Close()
		return nil, err
	}
	return func() error {
		pprof.StopCPUProfile()
		return f.Close()
	}, nil
}

// writeMemProfile writes the allocs profile to path. It collects first:
// a profile's in-use figures are those of the last completed GC cycle,
// and the caller still holds the finished scenario, so after this one
// they show what the run retains at its end.
func writeMemProfile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	runtime.GC()
	if err := pprof.Lookup("allocs").WriteTo(f, 0); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// writeCSVs exports the MDViewer-style parametric plots for offline
// analysis (daily usage by VO and by site across the whole run).
func writeCSVs(s *core.Scenario, dir string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	horizon := s.Grid.Eng.Now()
	day := 24 * time.Hour
	for _, spec := range []struct {
		name  string
		group core.GroupBy
	}{{"usage-by-vo.csv", core.ByVO}, {"usage-by-site.csv", core.BySite}} {
		f, err := os.Create(dir + "/" + spec.name)
		if err != nil {
			return err
		}
		plot := s.UsagePlot(0, horizon, day, spec.group)
		err = plot.WriteCSV(f)
		if cerr := f.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			return err
		}
	}
	f, err := os.Create(dir + "/figure3-daily.csv")
	if err != nil {
		return err
	}
	err = s.Figure3().WriteCSV(f)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}

// weeklyPlot coarsens the daily Figure 3 series into weeks so the table
// fits a terminal.
func weeklyPlot(daily *mdviewer.Plot) *mdviewer.Plot {
	const week = 7
	out := &mdviewer.Plot{Title: daily.Title + " — weekly means", Unit: daily.Unit}
	nWeeks := (len(daily.XLabels) + week - 1) / week
	for wk := 0; wk < nWeeks; wk++ {
		out.XLabels = append(out.XLabels, fmt.Sprintf("week %d", wk+1))
	}
	for _, s := range daily.Series {
		vals := make([]float64, nWeeks)
		for wk := 0; wk < nWeeks; wk++ {
			sum, n := 0.0, 0
			for d := wk * week; d < (wk+1)*week && d < len(s.Values); d++ {
				sum += s.Values[d]
				n++
			}
			if n > 0 {
				vals[wk] = sum / float64(n)
			}
		}
		out.Series = append(out.Series, mdviewer.Series{Name: s.Name, Values: vals})
	}
	return out
}

// sweep runs the multi-seed campaign mode: every seed is an independent
// scenario fanned across workers, each on its own engine.
func sweep(seedList string, workers int, jsonPath string, quiet bool, cfg core.ScenarioConfig) error {
	seeds, err := parseSeeds(seedList)
	if err != nil {
		return err
	}
	rep, err := campaign.Sweep(campaign.Seeds(seeds, cfg.JobScale, cfg), workers)
	if err != nil {
		return err
	}
	rep.Write(os.Stdout)
	if !quiet {
		for _, r := range rep.Runs {
			fmt.Printf("\n=== seed %d (%d jobs, %d records, %v) ===\n%s\n%s",
				r.Seed, r.Submitted, r.Records, r.Elapsed.Round(time.Millisecond),
				r.MilestonesText, r.Table1Text)
		}
	}
	if jsonPath != "" {
		if err := writeReportJSON(jsonPath, rep); err != nil {
			return err
		}
		fmt.Printf("\nsweep JSON written to %s\n", jsonPath)
	}
	return nil
}

func parseSeeds(seedList string) ([]int64, error) {
	var seeds []int64
	for _, part := range strings.Split(seedList, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		n, err := strconv.ParseInt(part, 10, 64)
		if err != nil {
			return nil, fmt.Errorf("bad -seeds entry %q: %w", part, err)
		}
		seeds = append(seeds, n)
	}
	if len(seeds) == 0 {
		return nil, fmt.Errorf("-seeds %q names no seeds", seedList)
	}
	return seeds, nil
}

// parseDurations parses a comma-separated -checkpoint-at list ("240h,15d"
// is not valid Go syntax; use hour forms like 240h or 240h30m).
func parseDurations(list string) ([]time.Duration, error) {
	var out []time.Duration
	for _, part := range strings.Split(list, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		d, err := time.ParseDuration(part)
		if err != nil || d <= 0 {
			return nil, fmt.Errorf("bad -checkpoint-at entry %q (want a positive Go duration like 240h)", part)
		}
		out = append(out, d)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("-checkpoint-at %q names no times", list)
	}
	return out, nil
}

// warmStart runs the warm-start campaign: the -restore snapshot forked into
// one variant per forward seed, every fork sharing the digest-verified
// warmup prefix.
func warmStart(snapPath, seedList string, horizon time.Duration, workers int, jsonPath string) error {
	snap, _, err := checkpoint.Latest(checkpoint.NewFileStore(snapPath))
	if err != nil {
		return err
	}
	seeds, err := parseSeeds(seedList)
	if err != nil {
		return fmt.Errorf("-warm-seeds: %w", err)
	}
	variants := make([]campaign.WarmVariant, len(seeds))
	for i, fs := range seeds {
		variants[i] = campaign.WarmVariant{
			Name:        fmt.Sprintf("seed%d", fs),
			ForwardSeed: fs,
			Horizon:     horizon,
		}
	}
	rep, err := campaign.WarmStart(campaign.WarmStartConfig{
		Snapshot: snap,
		Variants: variants,
		Workers:  workers,
	})
	if err != nil {
		return err
	}
	rep.Write(os.Stdout)
	if jsonPath != "" {
		if err := writeReportJSON(jsonPath, rep); err != nil {
			return err
		}
		fmt.Printf("\nwarm-start JSON written to %s\n", jsonPath)
	}
	return nil
}

// writeReportJSON writes any sweep report's versioned JSON rendering.
func writeReportJSON(path string, rep interface{ JSON() ([]byte, error) }) error {
	data, err := rep.JSON()
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
