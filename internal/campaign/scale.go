package campaign

import (
	"fmt"
	"io"
	"runtime"
	"time"

	"grid3/internal/core"
)

// ScaleSweepConfig parameterizes a testbed-scale campaign: the same
// scenario run at growing site populations, measuring how the scheduling
// and information-system hot paths hold up from Grid3's 27 sites to the
// 1000+ the synthetic testbed can generate.
type ScaleSweepConfig struct {
	// SiteCounts defaults to {27, 100, 300, 1000}.
	SiteCounts []int
	// Seeds defaults to {1}.
	Seeds []int64
	// Base rides along into every point's ScenarioConfig; Sites, Seed and
	// TestbedSites are overridden per point. A zero Horizon means 1 day.
	// Its job scale is held constant across points so ns/sim-day growth
	// isolates the cost of more sites, not more jobs.
	Base core.ScenarioConfig
}

// ScalePoint is one (sites, seed) measurement.
type ScalePoint struct {
	Sites       int     `json:"sites"`
	Seed        int64   `json:"seed"`
	CPUs        int     `json:"cpus"`
	WallSecs    float64 `json:"wall_seconds"`
	Events      uint64  `json:"events"`
	EventsPerS  float64 `json:"events_per_second"`
	NsPerSimDay float64 `json:"ns_per_sim_day"`
	Mallocs     uint64  `json:"mallocs"`
	AllocBytes  uint64  `json:"alloc_bytes"`
	Submitted   int     `json:"submitted"`
	Completed   int     `json:"completed"`
	// Goodput is completed/submitted — held near the 27-site value when
	// the matchmaking and information paths scale cleanly.
	Goodput float64 `json:"goodput"`
}

// ScaleReport is a completed scale sweep.
type ScaleReport struct {
	Days     int
	JobScale float64
	Points   []ScalePoint
	Elapsed  time.Duration
}

// ScaleSweep measures simulation cost as the testbed grows. Points run
// SERIALLY — unlike Sweep's parallel seeds — because each point's
// Mallocs/AllocBytes come from runtime.ReadMemStats deltas, which only
// attribute cleanly when nothing else allocates concurrently.
func ScaleSweep(cfg ScaleSweepConfig) (*ScaleReport, error) {
	if len(cfg.SiteCounts) == 0 {
		cfg.SiteCounts = []int{27, 100, 300, 1000}
	}
	if len(cfg.Seeds) == 0 {
		cfg.Seeds = []int64{1}
	}
	if cfg.Base.Horizon == 0 {
		cfg.Base.Horizon = 24 * time.Hour
	}
	start := time.Now()
	rep := &ScaleReport{}
	for _, sites := range cfg.SiteCounts {
		for _, seed := range cfg.Seeds {
			pt, ran, err := scalePoint(cfg.Base, sites, seed)
			if err != nil {
				return nil, fmt.Errorf("campaign: scale point sites=%d seed=%d: %w", sites, seed, err)
			}
			rep.Points = append(rep.Points, pt)
			rep.Days = int(ran.Horizon / (24 * time.Hour))
			rep.JobScale = ran.JobScale
		}
	}
	rep.Elapsed = time.Since(start)
	return rep, nil
}

// scalePoint runs base at one (sites, seed) point and measures it; it also
// returns the configuration the point's scenario resolved.
func scalePoint(base core.ScenarioConfig, sites int, seed int64) (ScalePoint, core.ScenarioConfig, error) {
	base.Config.Seed = seed
	base.Config.Sites = nil
	base.Config.TestbedSites = sites

	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	t0 := time.Now()
	s, err := runScenario(base)
	if err != nil {
		return ScalePoint{}, core.ScenarioConfig{}, err
	}
	wall := time.Since(t0)
	runtime.ReadMemStats(&after)

	completed := 0
	for _, st := range s.Table1() {
		completed += st.Jobs
	}
	pt := ScalePoint{
		Sites:       sites,
		Seed:        seed,
		CPUs:        core.TotalCPUs(s.Cfg.Config.Sites),
		WallSecs:    wall.Seconds(),
		Events:      s.Grid.Eng.Processed(),
		NsPerSimDay: float64(wall.Nanoseconds()) / (s.Cfg.Horizon.Hours() / 24),
		Mallocs:     after.Mallocs - before.Mallocs,
		AllocBytes:  after.TotalAlloc - before.TotalAlloc,
		Submitted:   s.SubmittedTotal(),
		Completed:   completed,
	}
	if wall > 0 {
		pt.EventsPerS = float64(pt.Events) / wall.Seconds()
	}
	if pt.Submitted > 0 {
		pt.Goodput = float64(pt.Completed) / float64(pt.Submitted)
	}
	return pt, s.Cfg, nil
}

// Write renders the sweep as a table.
func (rep *ScaleReport) Write(w io.Writer) {
	fmt.Fprintf(w, "Testbed scale sweep: %d simulated day(s) per point, job scale %.2f, total wall %v\n",
		rep.Days, rep.JobScale, rep.Elapsed.Round(time.Millisecond))
	fmt.Fprintf(w, "  %6s %6s %7s %10s %12s %12s %12s %9s %9s %8s\n",
		"sites", "seed", "cpus", "wall(s)", "events", "events/s", "mallocs", "submit", "done", "goodput")
	for _, pt := range rep.Points {
		fmt.Fprintf(w, "  %6d %6d %7d %10.2f %12d %12.0f %12d %9d %9d %7.1f%%\n",
			pt.Sites, pt.Seed, pt.CPUs, pt.WallSecs, pt.Events, pt.EventsPerS,
			pt.Mallocs, pt.Submitted, pt.Completed, 100*pt.Goodput)
	}
}
