package core

import (
	"sort"
	"time"

	"grid3/internal/apps"
	"grid3/internal/checkpoint"
	"grid3/internal/failure"
	"grid3/internal/obs"
	"grid3/internal/sim"
	"grid3/internal/vo"
)

// ScenarioHorizon is the Table 1 sample window: October 23 2003 through
// April 23 2004.
const ScenarioHorizon = 183 * 24 * time.Hour

// SC2003Start and SC2003Window bound the Figures 2/3 analysis: "a 30 day
// stretch beginning October 25, 2003".
const (
	SC2003Start  = 2 * 24 * time.Hour // Oct 25, two days after the epoch
	SC2003Window = 30 * 24 * time.Hour
)

// CMSWindow bounds Figure 4: "a 150 day period beginning in November 2003".
const (
	CMSWindowStart = 9 * 24 * time.Hour // Nov 1
	CMSWindowLen   = 150 * 24 * time.Hour
)

// ScenarioConfig tunes a full production run.
type ScenarioConfig struct {
	Config
	// Horizon bounds the run; default ScenarioHorizon.
	Horizon time.Duration
	// Classes selects the workloads; nil means all seven Table 1 classes.
	Classes []apps.Class
	// Failures tunes injection; zero value means failure.Grid3Defaults().
	// DisableFailures turns injection off entirely.
	Failures        failure.Config
	DisableFailures bool
	// ChaosIntensity scales failure injection for chaos campaigns: MTBFs
	// divide by it and the random-loss rate multiplies by it, so 2.0 doubles
	// the incident rate. 0 and 1 leave the configured rates untouched.
	ChaosIntensity float64
	// DisableTransferDemo turns off the §6.3 GridFTP demonstrator.
	DisableTransferDemo bool
	// JobScale multiplies every class's TotalJobs (sub-1.0 for quick
	// tests); 0 means 1.0.
	JobScale float64
	// RealTimePace is the scaled-real-time compression ratio (virtual
	// seconds per wall second) consumed by the serve layer's pacing
	// governor; 0 means the serve default. Batch runners (RunScenario,
	// Sweep, the campaign modes) ignore it entirely: a batch run always
	// executes as fast as the hardware allows.
	RealTimePace float64
	// TraceSinks receive the finished span trace once, at Finish. Setting
	// any sink implies EnableObservability.
	TraceSinks []obs.TraceSink
	// MetricsSinks receive the final metrics snapshot once, at Finish.
	// Setting any sink implies EnableObservability.
	MetricsSinks []obs.MetricsSink
	// UpgradeWave schedules the §5.1 rolling VDT/Pacman upgrade campaign
	// across the testbed; the zero value leaves it off.
	UpgradeWave UpgradeWaveConfig
	// CertWave schedules GSI host-credential expiry/revocation storms;
	// the zero value leaves it off.
	CertWave CertWaveConfig
	// CheckpointAt lists sim times at which Run captures a snapshot into
	// CheckpointStore (both must be set; times past the horizon are
	// skipped). Capture is a pure read, so a checkpointing run stays
	// byte-identical to one that never checkpoints.
	CheckpointAt []time.Duration
	// CheckpointStore receives Run's captures; see CheckpointAt.
	CheckpointStore checkpoint.StateStore
}

// Scenario is a running or completed production campaign.
type Scenario struct {
	Grid       *Grid
	Cfg        ScenarioConfig
	Generators map[string]*apps.Generator
	Demo       *apps.TransferDemo
	Injector   *failure.Injector
	// Upgrade and Certs are the armed wave families (nil when their
	// configs are zero); see UpgradeWaveConfig and CertWaveConfig.
	Upgrade *UpgradeWave
	Certs   *CertWave

	// CheckpointIDs records the store IDs of the snapshots Run captured
	// (in capture order) when Cfg.CheckpointAt/CheckpointStore are set.
	CheckpointIDs []string

	obsFlushed bool
}

// NewScenario assembles a grid and arms the workloads, demonstrators, and
// failure injection.
func NewScenario(cfg ScenarioConfig) (*Scenario, error) {
	if cfg.Horizon <= 0 {
		cfg.Horizon = ScenarioHorizon
	}
	if cfg.JobScale == 0 {
		cfg.JobScale = 1.0
	}
	if cfg.Classes == nil {
		cfg.Classes = apps.Grid3Classes()
	}
	if len(cfg.TraceSinks) > 0 || len(cfg.MetricsSinks) > 0 {
		cfg.EnableObservability = true
	}
	// Resolve defaults here too so the scenario's retained Cfg reflects
	// what actually ran (ComputeMilestones reads Cfg.Config.Sites).
	cfg.Config.defaults()
	g, err := New(cfg.Config)
	if err != nil {
		return nil, err
	}
	s := &Scenario{Grid: g, Cfg: cfg, Generators: make(map[string]*apps.Generator)}

	// SC2003 demonstration week: Nov 15-21 2003 (§1), when every group
	// pushed at once and the 1300-concurrent-jobs peak landed (§7).
	const sc2003DemoStart = 23 * 24 * time.Hour
	const sc2003DemoEnd = 30 * 24 * time.Hour

	// Application workloads, one fork of the RNG per class so classes
	// never perturb each other.
	for _, class := range cfg.Classes {
		if class.SurgeFactor == 0 {
			class.SurgeStart = sc2003DemoStart
			class.SurgeEnd = sc2003DemoEnd
			class.SurgeFactor = 4
		}
		orig := class.TotalJobs
		class.TotalJobs = int(float64(class.TotalJobs) * cfg.JobScale)
		if class.TotalJobs == 0 {
			if orig == 0 {
				continue
			}
			class.TotalJobs = 1 // every configured class stays visible
		}
		preferred := g.PreferredSitesFor(class.VO)
		if class.MaxSites > 0 && len(preferred) > class.MaxSites {
			preferred = preferred[:class.MaxSites]
		}
		gen := apps.NewGenerator(g.Eng, g.RNG.Fork(), sim.Grid3Epoch, class, g, preferred)
		gen.Start(cfg.Horizon)
		s.Generators[class.VO] = gen
	}

	// The §6.3 transfer demonstrator over the well-connected sites.
	if !cfg.DisableTransferDemo {
		var demoSites []string
		for _, name := range g.Order {
			if g.Nodes[name].Spec.WANMbps >= 622 {
				demoSites = append(demoSites, name)
			}
		}
		s.Demo = apps.NewTransferDemo(g.Eng, g.RNG.Fork(), g, demoSites)
		// §6.3/§7: the demo pushed the grid past its 2-3 TB/day target to
		// ~4 TB/day total (~100 TB in the 30 days around SC2003).
		s.Demo.DailyTargetBytes = 3 << 40
		s.Demo.Start()
	}

	// Failure injection.
	if !cfg.DisableFailures {
		fcfg := cfg.Failures
		if fcfg.DiskFullMTBF == 0 && fcfg.ServiceMTBF == 0 && fcfg.OutageMTBF == 0 &&
			fcfg.RandomLossPerDay == 0 && fcfg.RolloverSites == nil {
			fcfg = failure.Grid3Defaults()
		}
		if fcfg.RolloverSites == nil {
			for _, name := range g.Order {
				if g.Nodes[name].Spec.Rollover {
					fcfg.RolloverSites = append(fcfg.RolloverSites, name)
				}
			}
		}
		fcfg = failure.Scaled(fcfg, cfg.ChaosIntensity)
		s.Injector = failure.New(g.Eng, g.RNG.Fork(), fcfg, g.Network)
		s.Injector.Ins = failure.NewInstruments(g.Obs)
		for _, name := range g.Order {
			n := g.Nodes[name]
			s.Injector.Register(&failure.Target{
				Site: n.Site, Batch: n.Batch, Gatekeeper: n.Gatekeeper,
			})
		}
	}

	// Operational wave families, both strictly opt-in: each draws from its
	// own seed-salted stream, so a run without them is byte-identical to
	// one where the knobs never existed.
	if cfg.UpgradeWave.Enabled() {
		s.Upgrade = armUpgradeWave(g, cfg.UpgradeWave)
	}
	if cfg.CertWave.Enabled() {
		certs, err := armCertWave(g, cfg.CertWave)
		if err != nil {
			return nil, err
		}
		s.Certs = certs
	}
	return s, nil
}

// Run advances the scenario to its horizon, then performs the end-of-run
// bookkeeping (final ACDC pull, demonstrator and injector shutdown). When
// Cfg.CheckpointAt and Cfg.CheckpointStore are set, it pauses at each
// listed sim time (ascending, past-horizon entries skipped) to capture a
// snapshot; the captures are pure reads, so the run's output is identical
// whether or not it checkpoints.
func (s *Scenario) Run() error {
	if s.Cfg.CheckpointStore != nil && len(s.Cfg.CheckpointAt) > 0 {
		at := append([]time.Duration(nil), s.Cfg.CheckpointAt...)
		sort.Slice(at, func(i, j int) bool { return at[i] < at[j] })
		for _, t := range at {
			if t > s.Cfg.Horizon || t < s.Grid.Eng.Now() {
				continue
			}
			s.RunUntil(t)
			snap, err := s.Checkpoint()
			if err != nil {
				return err
			}
			id, err := checkpoint.Save(s.Cfg.CheckpointStore, snap)
			if err != nil {
				return err
			}
			s.CheckpointIDs = append(s.CheckpointIDs, id)
		}
	}
	s.RunUntil(s.Cfg.Horizon)
	s.Finish()
	return nil
}

// RunUntil advances to an intermediate point (for incremental inspection).
func (s *Scenario) RunUntil(t time.Duration) {
	s.Grid.Eng.RunUntil(t)
}

// Finish stops generators and collects the tail of the completion logs.
func (s *Scenario) Finish() {
	if s.Demo != nil {
		s.Demo.Stop()
	}
	if s.Injector != nil {
		s.Injector.Stop()
	}
	// Let in-flight jobs and transfers drain briefly, then pull the logs.
	s.Grid.Eng.RunFor(6 * time.Hour)
	s.Grid.ACDC.Pull()
	s.Grid.FinishIngest()
	s.FlushObservability()
}

// FlushObservability runs every configured trace and metrics sink against
// the final trace and snapshot. Finish calls it; repeated calls are no-ops
// so sinks never see the run twice. It returns the first sink error.
func (s *Scenario) FlushObservability() error {
	o := s.Grid.Obs
	if o == nil || s.obsFlushed {
		return nil
	}
	s.obsFlushed = true
	var first error
	if len(s.Cfg.TraceSinks) > 0 {
		tr := o.Tracer.Trace()
		for _, sink := range s.Cfg.TraceSinks {
			if err := sink(tr); err != nil && first == nil {
				first = err
			}
		}
	}
	if len(s.Cfg.MetricsSinks) > 0 {
		snap := o.Metrics.Snapshot()
		for _, sink := range s.Cfg.MetricsSinks {
			if err := sink(snap); err != nil && first == nil {
				first = err
			}
		}
	}
	return first
}

// SubmittedTotal sums generator output across classes.
func (s *Scenario) SubmittedTotal() int {
	n := 0
	for _, g := range s.Generators {
		n += g.Submitted()
	}
	return n
}

// VOColumns lists the Table 1 class VOs in column order.
var VOColumns = []string{vo.BTeV, vo.IVDGL, vo.LIGO, vo.SDSS, vo.USATLAS, vo.USCMS, vo.Exerciser}
