// Package grid3 hosts the benchmark harness that regenerates every table
// and figure in the paper's evaluation (§6-§7). Each Benchmark prints the
// rows or series of its exhibit; EXPERIMENTS.md records paper-vs-measured.
//
// The shared production scenario runs once per `go test -bench` invocation
// at a scale set by GRID3_BENCH_SCALE (default 0.25; 1.0 reproduces the
// full ~290k-job campaign).
package grid3

import (
	"fmt"
	"os"
	"strconv"
	"sync"
	"testing"
	"time"

	"grid3/internal/apps"
	"grid3/internal/core"
	"grid3/internal/failure"
	"grid3/internal/gram"
	"grid3/internal/mdviewer"
	"grid3/internal/vo"
)

var (
	sharedOnce sync.Once
	sharedScen *core.Scenario
	sharedErr  error

	printedMu sync.Mutex
	printed   = map[string]bool{}
)

// firstRun reports true exactly once per name — the section benches guard
// their multi-line reports with it.
func firstRun(name string) bool {
	printedMu.Lock()
	defer printedMu.Unlock()
	if printed[name] {
		return false
	}
	printed[name] = true
	return true
}

// printOnce gates an exhibit's output: the benchmark framework re-invokes
// each Benchmark with growing b.N while calibrating, and the exhibit
// should appear in the log exactly once.
func printOnce(name string, emit func()) {
	printedMu.Lock()
	defer printedMu.Unlock()
	if printed[name] {
		return
	}
	printed[name] = true
	emit()
}

func benchScale() float64 {
	if v := os.Getenv("GRID3_BENCH_SCALE"); v != "" {
		if f, err := strconv.ParseFloat(v, 64); err == nil && f > 0 {
			return f
		}
	}
	return 0.25
}

// scenario returns the shared full-campaign run, building it on first use.
func scenario(b *testing.B) *core.Scenario {
	b.Helper()
	sharedOnce.Do(func() {
		start := time.Now()
		var r *Result
		r, sharedErr = RunScenario(1, benchScale())
		if sharedErr == nil {
			sharedScen = r.Scenario()
			fmt.Printf("# shared scenario: scale %.2f, %d jobs, %d records, built in %v\n",
				benchScale(), sharedScen.SubmittedTotal(), sharedScen.Grid.ACDC.Len(),
				time.Since(start).Round(time.Millisecond))
		}
	})
	if sharedErr != nil {
		b.Fatal(sharedErr)
	}
	return sharedScen
}

// BenchmarkFigure2IntegratedCPU regenerates Figure 2: integrated CPU-days
// by VO over the 30-day SC2003 window. Paper shape: US-CMS dominates,
// then US-ATLAS and iVDGL; LIGO/SDSS marginal.
func BenchmarkFigure2IntegratedCPU(b *testing.B) {
	s := scenario(b)
	b.ResetTimer()
	var fig map[string]float64
	for i := 0; i < b.N; i++ {
		fig = s.Figure2()
	}
	b.StopTimer()
	printOnce("FIG2", func() {
		mdviewer.BarChart(os.Stdout, "FIG2: integrated CPU usage during SC2003, by VO", "CPU-days", fig, 40)
	})
}

// BenchmarkFigure3DifferentialCPU regenerates Figure 3: time-averaged CPUs
// in use per VO per day over the same window.
func BenchmarkFigure3DifferentialCPU(b *testing.B) {
	s := scenario(b)
	b.ResetTimer()
	var plot *mdviewer.Plot
	for i := 0; i < b.N; i++ {
		plot = s.Figure3()
	}
	b.StopTimer()
	printOnce("FIG3", func() {
		totals := map[string]float64{}
		for _, series := range plot.Series {
			totals[series.Name] = series.Total() / float64(len(series.Values))
		}
		mdviewer.BarChart(os.Stdout, "FIG3: mean CPUs in simultaneous use during SC2003, by VO", "CPUs", totals, 40)
	})
}

// BenchmarkFigure4CMSBySite regenerates Figure 4: CMS cumulative CPU-days
// by site over 150 days from November 2003. Paper shape: a handful of
// dedicated CMS sites carry most of the load.
func BenchmarkFigure4CMSBySite(b *testing.B) {
	s := scenario(b)
	b.ResetTimer()
	var fig map[string]float64
	for i := 0; i < b.N; i++ {
		fig = s.Figure4()
	}
	b.StopTimer()
	printOnce("FIG4", func() {
		mdviewer.BarChart(os.Stdout, "FIG4: CMS cumulative usage by site (150 days)", "CPU-days", fig, 40)
	})
}

// BenchmarkFigure5DataConsumed regenerates Figure 5: data consumed by VO
// over the SC2003 window (~100 TB, GridFTP demonstrator dominant).
func BenchmarkFigure5DataConsumed(b *testing.B) {
	s := scenario(b)
	b.ResetTimer()
	var fig map[string]float64
	var total float64
	for i := 0; i < b.N; i++ {
		fig, total = s.Figure5()
	}
	b.StopTimer()
	printOnce("FIG5", func() {
		mdviewer.BarChart(os.Stdout,
			fmt.Sprintf("FIG5: data consumed in the 30-day window, by VO (total %.1f TB; paper ~100 TB)", total),
			"TB", fig, 40)
	})
}

// BenchmarkFigure6JobsByMonth regenerates Figure 6: jobs per month with
// the 2003 ramp-up and sustained 2004 production.
func BenchmarkFigure6JobsByMonth(b *testing.B) {
	s := scenario(b)
	b.ResetTimer()
	var months []string
	var counts []int
	for i := 0; i < b.N; i++ {
		months, counts = s.Figure6()
	}
	b.StopTimer()
	printOnce("FIG6", func() {
		mdviewer.Histogram(os.Stdout, "FIG6: jobs run on Grid3 by month", months, counts, 40)
	})
}

// BenchmarkTable1JobStatistics regenerates Table 1's eleven statistics
// rows for the seven VO classes from the ACDC warehouse.
func BenchmarkTable1JobStatistics(b *testing.B) {
	s := scenario(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = s.Table1()
	}
	b.StopTimer()
	printOnce("TAB1", func() { s.WriteTable1(os.Stdout) })
}

// BenchmarkMilestones regenerates the §7 milestones scorecard.
func BenchmarkMilestones(b *testing.B) {
	s := scenario(b)
	b.ResetTimer()
	var m core.Milestones
	for i := 0; i < b.N; i++ {
		m = s.ComputeMilestones()
	}
	b.StopTimer()
	printOnce("MILE", func() { m.Write(os.Stdout) })
}

// BenchmarkSection61ATLAS reproduces the §6.1 ATLAS observations: a
// GCE-style production whose end-to-end failure rate lands near 30%, with
// ~90% of failures attributable to site problems.
func BenchmarkSection61ATLAS(b *testing.B) {
	for i := 0; i < b.N; i++ {
		fcfg := failure.Grid3Defaults()
		// The ATLAS DC period was rougher than steady state (§6.1 lists
		// disk-full, gatekeeper overload, network interruptions, and the
		// ACDC rollover as routine).
		fcfg.DiskFullMTBF = 4 * 24 * time.Hour
		fcfg.ServiceMTBF = 5 * 24 * time.Hour
		s, err := core.NewScenario(core.ScenarioConfig{
			Config:  core.Config{Seed: 61},
			Horizon: 45 * 24 * time.Hour,
			// The experiment's size is fixed by §6.1 ("more than 5000
			// jobs"), independent of the shared-scenario scale knob.
			JobScale: 1,
			Failures: fcfg,
			Classes: func() []apps.Class {
				all := apps.Grid3Classes()
				atlas, _ := apps.ClassByVO(all, vo.USATLAS)
				atlas.TotalJobs = 5000 // "More than 5000 jobs were processed"
				atlas.MonthWeights = [7]float64{0.5, 0.5, 0, 0, 0, 0, 0}
				return []apps.Class{atlas}
			}(),
		})
		if err != nil {
			b.Fatal(err)
		}
		s.Run()
		st := s.Grid.Stats(vo.USATLAS)
		acdcStats := s.Grid.ACDC.Stats(vo.USATLAS)
		if i == 0 && firstRun("S61") {
			fmt.Printf("S6.1 ATLAS: %d jobs processed at %d sites (paper: >5000 at 18)\n",
				st.Submitted, acdcStats.SitesUsed)
			fmt.Printf("  end-to-end failure rate: %.0f%% (paper: ~30%%)\n", 100*(1-st.Efficiency()))
			if s.Injector != nil {
				fmt.Printf("  site-problem share of injected kills: %.0f%% (paper: ~90%%)\n",
					100*s.Injector.SiteProblemFraction())
			}
			var io float64
			for _, h := range s.Grid.Network.History() {
				if h.Label == vo.USATLAS {
					io += float64(h.Bytes)
				}
			}
			fmt.Printf("  ATLAS data I/O: %.2f TB (paper: ~1.1 TB at full job count)\n", io/(1<<40))
		}
	}
}

// BenchmarkSection62CMS reproduces §6.2: CMS MOP production with long
// OSCAR jobs, ~70% completion, and group failures.
func BenchmarkSection62CMS(b *testing.B) {
	for i := 0; i < b.N; i++ {
		s, err := core.NewScenario(core.ScenarioConfig{
			Config:   core.Config{Seed: 62},
			Horizon:  60 * 24 * time.Hour,
			JobScale: benchScale(),
			Classes: func() []apps.Class {
				all := apps.Grid3Classes()
				cms, _ := apps.ClassByVO(all, vo.USCMS)
				cms.MonthWeights = [7]float64{0.3, 0.4, 0.3, 0, 0, 0, 0}
				return []apps.Class{cms}
			}(),
		})
		if err != nil {
			b.Fatal(err)
		}
		s.Run()
		st := s.Grid.Stats(vo.USCMS)
		if i == 0 && firstRun("S62") {
			acdcStats := s.Grid.ACDC.Stats(vo.USCMS)
			fmt.Printf("S6.2 CMS: %d submitted, completion %.0f%% (paper: ~70%%), %d sites (paper: 11)\n",
				st.Submitted, 100*st.Efficiency(), acdcStats.SitesUsed)
			fmt.Printf("  mean runtime %.1f h (OSCAR-dominated mix; paper class mean 41.9 h)\n",
				acdcStats.AvgRuntimeHours)
		}
	}
}

// BenchmarkGatekeeperLoadModel sweeps managed-job counts and staging
// factors against the §6.4 load model: ~225 1-minute load at ~1000 jobs,
// ×2-4 under heavy staging.
func BenchmarkGatekeeperLoadModel(b *testing.B) {
	for i := 0; i < b.N; i++ {
		report := i == 0 && firstRun("LOAD")
		if report {
			fmt.Println("S6.4 gatekeeper load sweep (sustained 1-min load):")
		}
		for _, tc := range []struct {
			jobs    int
			staging float64
		}{{250, 1}, {500, 1}, {1000, 1}, {1000, 2}, {1000, 4}} {
			g, err := core.New(core.Config{Seed: 64})
			if err != nil {
				b.Fatal(err)
			}
			node := g.Nodes["FNAL_CMS_Tier1"]
			node.Gatekeeper.OverloadThreshold = 1e9
			for j := 0; j < tc.jobs; j++ {
				if _, err := node.Gatekeeper.Submit(gram.Spec{
					Subject: "/DC=org/DC=doegrids/OU=People/CN=uscms user 00",
					VO:      vo.USCMS, Executable: "/bin/mc",
					Walltime: 900 * time.Hour, Runtime: 800 * time.Hour,
					StagingFactor: tc.staging,
				}, nil); err != nil {
					b.Fatal(err)
				}
			}
			g.Eng.RunUntil(30 * time.Minute) // let the submit spike decay
			if report {
				fmt.Printf("  %5d jobs × staging %.0f → load %6.1f\n",
					tc.jobs, tc.staging, node.Gatekeeper.Load())
			}
		}
	}
}

// BenchmarkSection63TransferDemo reproduces the §6.3 sustained-transfer
// result: >2 TB/day of matrix traffic, reliably.
func BenchmarkSection63TransferDemo(b *testing.B) {
	for i := 0; i < b.N; i++ {
		s, err := core.NewScenario(core.ScenarioConfig{
			Config:          core.Config{Seed: 63},
			Horizon:         14 * 24 * time.Hour,
			JobScale:        0.01,
			DisableFailures: true,
		})
		if err != nil {
			b.Fatal(err)
		}
		s.Run()
		if i == 0 && firstRun("XFER") {
			rate := s.Demo.DailyRate(s.Grid.Eng.Now()) / float64(1<<40)
			fmt.Printf("S6.3 transfer demo: %.2f TB/day sustained over 2 weeks (target 2-3, paper actual ~4 with apps)\n", rate)
			fmt.Printf("  %d transfers, %d failed\n", s.Demo.Started(), s.Demo.Failed())
		}
	}
}

// BenchmarkAblationSRM compares raw-GridFTP stage-out against SRM space
// reservation (the §8 lesson): SRM converts mid-job disk-full failures
// into up-front deferrals, recovering wasted CPU.
func BenchmarkAblationSRM(b *testing.B) {
	for i := 0; i < b.N; i++ {
		run := func(useSRM bool) *core.VOStats {
			fcfg := failure.Grid3Defaults()
			fcfg.DiskFullMTBF = 3 * 24 * time.Hour // stress storage
			fcfg.DiskFullDuration = 24 * time.Hour
			s, err := core.NewScenario(core.ScenarioConfig{
				Config:   core.Config{Seed: 88, UseSRM: useSRM},
				Horizon:  45 * 24 * time.Hour,
				JobScale: benchScale() / 2,
				Failures: fcfg,
				Classes: func() []apps.Class {
					all := apps.Grid3Classes()
					cms, _ := apps.ClassByVO(all, vo.USCMS)
					cms.MonthWeights = [7]float64{0.5, 0.5, 0, 0, 0, 0, 0}
					return []apps.Class{cms}
				}(),
			})
			if err != nil {
				b.Fatal(err)
			}
			s.Run()
			return s.Grid.Stats(vo.USCMS)
		}
		raw := run(false)
		srm := run(true)
		if i == 0 && firstRun("ABL-SRM") {
			fmt.Println("ABL-SRM: stage-out management ablation (CMS-like workload, stressed storage):")
			fmt.Printf("  raw GridFTP: %4d ok, %3d stage-out failures, %6.0f CPU-h wasted\n",
				raw.Completed, raw.StageOutFailures, raw.WastedCPU.Hours())
			fmt.Printf("  SRM managed: %4d ok, %3d stage-out failures, %6.0f CPU-h wasted, %d deferred up front\n",
				srm.Completed, srm.StageOutFailures, srm.WastedCPU.Hours(), srm.SRMDeferred)
		}
	}
}

// BenchmarkAblationSiteSelection compares the observed VO-affinity
// placement against uniform load-balanced matchmaking (the §6.4
// "favorite resources" observation).
func BenchmarkAblationSiteSelection(b *testing.B) {
	for i := 0; i < b.N; i++ {
		run := func(disableAffinity bool) (maxShare float64, sites int) {
			s, err := core.NewScenario(core.ScenarioConfig{
				Config:   core.Config{Seed: 77, DisableAffinity: disableAffinity},
				Horizon:  45 * 24 * time.Hour,
				JobScale: benchScale() / 2,
				Classes: func() []apps.Class {
					all := apps.Grid3Classes()
					ivdgl, _ := apps.ClassByVO(all, vo.IVDGL)
					ivdgl.MonthWeights = [7]float64{0.5, 0.5, 0, 0, 0, 0, 0}
					return []apps.Class{ivdgl}
				}(),
			})
			if err != nil {
				b.Fatal(err)
			}
			s.Run()
			st := s.Grid.ACDC.Stats(vo.IVDGL)
			return st.MaxSingleSitePct, st.SitesUsed
		}
		affShare, affSites := run(false)
		uniShare, uniSites := run(true)
		if i == 0 && firstRun("ABL-FED") {
			fmt.Println("ABL-FED: site-selection ablation (iVDGL workload):")
			fmt.Printf("  VO affinity  : max single-site share %.0f%% across %d sites (paper: 88%%)\n", affShare, affSites)
			fmt.Printf("  load-balanced: max single-site share %.0f%% across %d sites\n", uniShare, uniSites)
		}
	}
}
