package campaign

import (
	"fmt"
	"io"
	"runtime"
	"time"

	"grid3/internal/core"
	"grid3/internal/ingest"
	"grid3/internal/monalisa"
	"grid3/internal/vo"
)

// IngestSweepConfig parameterizes a monitoring-ingestion campaign: a
// deterministic synthetic metric stream pushed through the central
// repository's per-event Ingest, measuring throughput and allocation
// volume, plus one small scenario whose usage ledger is fully
// audit-verified.
type IngestSweepConfig struct {
	// Events is the synthetic stream length (default 2,000,000).
	Events int
	// Farms × Params shapes the synthetic series population (defaults
	// 32 × 8: 256 series, the order of a big testbed's station fan-in).
	Farms, Params int
	// AuditDays is the horizon of the audit-verification scenario
	// (default 2); 0 < AuditDays keeps it cheap, negative skips it.
	AuditDays int
	// Base rides along into the audit scenario; seed, sites, horizon,
	// scale, and the ledger toggles are overridden.
	Base core.ScenarioConfig
}

// IngestReport is a completed ingestion campaign.
type IngestReport struct {
	Events int
	Farms  int
	Params int
	// EventsPerS, Mallocs and AllocBytes measure the synthetic stream;
	// BytesPerEvent is AllocBytes/Events, the per-event allocation
	// volume of the repository's ingest path.
	EventsPerS    float64
	Mallocs       uint64
	AllocBytes    uint64
	BytesPerEvent float64
	// AuditWindows / AuditVerified summarize the scenario leg: every
	// (window, VO) inclusion proof was generated, wire round-tripped,
	// and verified against its published root.
	AuditWindows  int
	AuditVerified bool
	Elapsed       time.Duration
}

// streamClock is the synthetic stream's manual clock.
type streamClock struct{ t time.Duration }

func (c *streamClock) Now() time.Duration   { return c.t }
func (c *streamClock) WallClock() time.Time { return time.Unix(0, 0).Add(c.t) }

// IngestSweep measures the monitoring-ingestion path. The stream is
// fully deterministic — same config, same numbers except wall time and
// allocator counters.
func IngestSweep(cfg IngestSweepConfig) (*IngestReport, error) {
	if cfg.Events <= 0 {
		cfg.Events = 2_000_000
	}
	if cfg.Farms <= 0 {
		cfg.Farms = 32
	}
	if cfg.Params <= 0 {
		cfg.Params = 8
	}
	if cfg.AuditDays == 0 {
		cfg.AuditDays = 2
	}
	start := time.Now()
	rep := &IngestReport{Events: cfg.Events, Farms: cfg.Farms, Params: cfg.Params}
	ingestStream(cfg, rep)
	if cfg.AuditDays > 0 {
		windows, verified, err := ingestAudit(cfg)
		if err != nil {
			return nil, fmt.Errorf("campaign: ingest audit leg: %w", err)
		}
		rep.AuditWindows, rep.AuditVerified = windows, verified
	}
	rep.Elapsed = time.Since(start)
	return rep, nil
}

// ingestStream pushes the synthetic stream through a fresh repository
// and records throughput and allocation volume in rep.
func ingestStream(cfg IngestSweepConfig, rep *IngestReport) {
	clk := &streamClock{}
	repo := monalisa.NewRepository(clk)

	farms := make([]string, cfg.Farms)
	for i := range farms {
		farms[i] = fmt.Sprintf("farm-%03d", i)
	}
	params := make([]string, cfg.Params)
	for i := range params {
		params[i] = fmt.Sprintf("grid3.synthetic.p%02d", i)
	}

	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	t0 := time.Now()
	perRound := cfg.Farms * cfg.Params
	for i := 0; i < cfg.Events; i++ {
		if i%perRound == 0 {
			clk.t += time.Second // one sample per series per sim second
		}
		repo.Ingest(monalisa.Metric{
			Farm:  farms[i%cfg.Farms],
			Param: params[(i/cfg.Farms)%cfg.Params],
			Time:  clk.t,
			Value: float64(i % 1024),
		})
	}
	wall := time.Since(t0)
	runtime.ReadMemStats(&after)

	rep.Mallocs = after.Mallocs - before.Mallocs
	rep.AllocBytes = after.TotalAlloc - before.TotalAlloc
	if wall > 0 {
		rep.EventsPerS = float64(cfg.Events) / wall.Seconds()
	}
	rep.BytesPerEvent = float64(rep.AllocBytes) / float64(cfg.Events)
}

// ingestAudit runs one small ledger-armed scenario and verifies every
// (window, VO) claim in its usage ledger end to end: proof generation,
// wire round trip, Merkle verification against the sealed root.
func ingestAudit(cfg IngestSweepConfig) (windows int, verified bool, err error) {
	scfg := cfg.Base
	scfg.Config.Seed = 1
	scfg.Config.TestbedSites = 5
	scfg.Config.Sites = nil
	scfg.Config.IngestBatch = 64
	scfg.Config.IngestWindow = 0 // default to the monitor interval
	scfg.Horizon = time.Duration(cfg.AuditDays) * 24 * time.Hour
	scfg.JobScale = 0.002
	s, err := core.NewScenario(scfg)
	if err != nil {
		return 0, false, err
	}
	if err := s.Run(); err != nil {
		return 0, false, err
	}
	led := s.Grid.Ledger
	if led == nil || led.Len() == 0 {
		return 0, false, fmt.Errorf("no sealed usage windows")
	}
	for _, w := range led.Windows() {
		for _, voName := range vo.Grid3VOs {
			p, err := led.Prove(w.Index, voName)
			if err != nil {
				return led.Len(), false, err
			}
			rt, err := ingest.DecodeProof(ingest.EncodeProof(p))
			if err != nil {
				return led.Len(), false, err
			}
			if !ingest.Verify(w.Root, rt) {
				return led.Len(), false, fmt.Errorf("window %d vo %s: proof rejected", w.Index, voName)
			}
		}
	}
	return led.Len(), true, nil
}

// Write renders the sweep as text.
func (rep *IngestReport) Write(w io.Writer) {
	fmt.Fprintf(w, "Monitoring-ingestion sweep: %d synthetic events over %d series, total wall %v\n",
		rep.Events, rep.Farms*rep.Params, rep.Elapsed.Round(time.Millisecond))
	fmt.Fprintf(w, "  per-event ingest: %.0f events/s, %d mallocs, %.1f bytes/event\n",
		rep.EventsPerS, rep.Mallocs, rep.BytesPerEvent)
	if rep.AuditWindows > 0 {
		status := "FAILED"
		if rep.AuditVerified {
			status = "verified"
		}
		fmt.Fprintf(w, "  audit: %d usage windows, every (window, VO) proof %s\n", rep.AuditWindows, status)
	}
}
