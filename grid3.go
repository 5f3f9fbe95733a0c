// Package grid3 is a from-scratch Go reproduction of the Grid2003
// production grid (Foster et al., HPDC 2004): the complete middleware
// stack — GSI, VOMS, ClassAds/Condor-G, GRAM, GridFTP, MDS, RLS, SRM,
// Pacman/VDT, Chimera, Pegasus, DAGMan, and the Ganglia/MonALISA/ACDC
// monitoring mesh — plus a deterministic discrete-event scenario that
// regenerates the paper's evaluation (Figures 2-6, Table 1, and the §7
// milestones).
//
// This package is the public façade, configured through functional
// options:
//
//	g, err := grid3.New(grid3.WithSeed(42), grid3.WithSRM(),
//		grid3.WithMonitorInterval(5*time.Minute))
//	g.SubmitJob(grid3.Request{VO: "usatlas", ...})
//	g.Eng.RunUntil(24 * time.Hour)
//
// or, for the full calibrated campaign:
//
//	r, err := grid3.RunScenario(1, 1.0)
//	r.WriteTable1(os.Stdout)
//
// and, for multi-seed production sweeps across all CPUs:
//
//	rep, err := grid3.Sweep([]int64{1, 2, 3, 4}, 1.0)
//	rep.Write(os.Stdout)
//	fmt.Print(rep.Runs[0].Table1Text)
//
// The chaos, testbed-scale and data-plane campaigns are grid3exp
// experiments (experiments/core.json), not façade calls. Result
// types are aliases of the internal ones (Milestones, SweepReport), so
// their fields read without importing internal packages.
//
// The Config/ScenarioConfig structs remain available for callers that
// prefer to build configuration wholesale; pass them through WithConfig or
// WithScenarioConfig. The substrates are individually importable under
// internal/ within this module; see DESIGN.md for the inventory.
//
// # Options and flags
//
// The With* options are grouped into sections below — engine & testbed,
// observability, fault management, data plane, serve. cmd/grid3sim builds
// a ScenarioConfig directly rather than through the options; each of its
// flags sets the same field as the option beside it:
//
//	WithSeed            -seed        WithHealthProbes     -health
//	WithTestbedScale    -sites       WithRecovery         -recovery
//	WithHorizon         -days        WithSRM              -srm
//	WithJobScale        -scale       WithTransferDoors    -doors
//	WithoutFailures     -no-failures WithStorageCleanup   -cleanup
//	WithoutAffinity     -no-affinity WithReplicaRanking   -replica-rank
//	WithTracer          -trace-out   WithMetricsSink      -metrics-out
//	WithIngestBatching  -ingest-batch/-ingest-window
//	WithUpgradeWave     -upgrade-at/-upgrade-stagger
//	WithCertWave        -cert-lifetime/-cert-renewal
//	WithCheckpointAt    -checkpoint-at/-checkpoint-out    Restore  -restore
//
// WithChaos and WithRealTime have no grid3sim flag: the chaos campaign
// runs under grid3exp, and WithRealTime paces the grid3d daemon.
package grid3

import (
	"io"
	"net/http"
	"time"

	"grid3/internal/apps"
	"grid3/internal/campaign"
	"grid3/internal/checkpoint"
	"grid3/internal/core"
	"grid3/internal/obs"
	"grid3/internal/serve"
)

// Config tunes a Grid3 instance; see core.Config. Most callers should use
// the With* options instead and keep Config for the WithConfig escape
// hatch.
type Config = core.Config

// Grid is a fully assembled Grid3 instance: 27 sites, the service mesh,
// and per-VO Condor-G schedds.
type Grid = core.Grid

// Request is one workload job handed to the grid.
type Request = apps.Request

// ScenarioConfig tunes a full production campaign; see WithScenarioConfig.
type ScenarioConfig = core.ScenarioConfig

// Scenario is a running or completed campaign with figure/table queries.
type Scenario = core.Scenario

// SiteSpec describes one catalog site.
type SiteSpec = core.SiteSpec

// Observability views. The grid records per-job lifecycle spans (submit,
// match, gram-auth, stage-in, run, stage-out) and a metrics registry of
// counters and fixed-bucket histograms when observability is enabled; both
// are no-ops by default so seeded runs stay bit-identical.
type (
	// Trace is a completed run's span set with parent/child and
	// critical-path queries.
	Trace = obs.Trace
	// Span is one recorded lifecycle interval on sim time.
	Span = obs.Span
	// SpanID identifies a span within its trace (0 = none).
	SpanID = obs.SpanID
	// SpanKind classifies lifecycle spans (job, submit, match, ...).
	SpanKind = obs.Kind
	// MetricsSnapshot is a point-in-time copy of every counter, gauge, and
	// histogram.
	MetricsSnapshot = obs.Snapshot
	// TraceSink consumes the finished trace (see JSONLSink, NetLoggerSink).
	TraceSink = obs.TraceSink
	// MetricsSink consumes the final metrics snapshot (see TextMetricsSink).
	MetricsSink = obs.MetricsSink
)

// JSONLSink writes the trace as one fixed-key-order JSON object per span.
func JSONLSink(w io.Writer) TraceSink { return obs.JSONLSink(w) }

// NetLoggerSink writes the trace in NetLogger format (§4.7); transfer spans
// render the classic gridftp.transfer.start/end/error lines.
func NetLoggerSink(w io.Writer) TraceSink { return obs.NetLoggerSink(w) }

// TextMetricsSink writes the metrics snapshot as a text report.
func TextMetricsSink(w io.Writer) MetricsSink { return obs.TextMetricsSink(w) }

// Option configures New, RunScenario, or Sweep. Options apply in order, so
// a later option overrides an earlier one; the WithConfig and
// WithScenarioConfig escape hatches replace the whole corresponding struct
// and are therefore best placed first.
type Option func(*ScenarioConfig)

// ── Engine & testbed options ────────────────────────────────────────────
//
// What simulates: the seed, the site population, the campaign window, the
// workload volume, and the service cadences.

// WithSeed sets the master RNG seed: same seed, same run, bit for bit.
func WithSeed(seed int64) Option {
	return func(c *ScenarioConfig) { c.Config.Seed = seed }
}

// WithSites replaces the production 27-site catalog.
func WithSites(sites []SiteSpec) Option {
	return func(c *ScenarioConfig) { c.Config.Sites = sites }
}

// WithTestbedScale sizes the site population with the synthetic testbed
// generator: n <= 27 is a prefix of the historical catalog (27 reproduces
// the paper's Table 1 sites exactly), larger n appends seeded synthetic
// sites drawn from the default tier distribution. Overridden by WithSites.
func WithTestbedScale(n int) Option {
	return func(c *ScenarioConfig) { c.Config.TestbedSites = n }
}

// WithHorizon bounds a scenario run (default: the 183-day Table 1 window).
func WithHorizon(d time.Duration) Option {
	return func(c *ScenarioConfig) { c.Horizon = d }
}

// WithJobScale multiplies every class's job count (sub-1.0 for quick runs).
func WithJobScale(f float64) Option {
	return func(c *ScenarioConfig) { c.JobScale = f }
}

// WithMonitorInterval paces Ganglia/MonALISA collection (production used
// 5 minutes; the default 30 minutes consolidates identically).
func WithMonitorInterval(d time.Duration) Option {
	return func(c *ScenarioConfig) { c.Config.MonitorInterval = d }
}

// WithNegotiationInterval paces Condor-G matchmaking (default 15 minutes).
func WithNegotiationInterval(d time.Duration) Option {
	return func(c *ScenarioConfig) { c.Config.NegotiationInterval = d }
}

// WithoutAffinity strips VO site pinning from workloads (the ABL-FED
// ablation: uniform matchmaking instead of favorite resources).
func WithoutAffinity() Option {
	return func(c *ScenarioConfig) { c.Config.DisableAffinity = true }
}

// WithoutTransferDemo turns off the §6.3 GridFTP demonstrator.
func WithoutTransferDemo() Option {
	return func(c *ScenarioConfig) { c.DisableTransferDemo = true }
}

// ── Observability options ───────────────────────────────────────────────
//
// Job-lifecycle span traces and the metrics registry. Off by default; when
// enabled, recording never steers the simulation (same seed, byte-identical
// exhibits either way).

// WithObservability enables job-lifecycle tracing and the metrics registry
// without attaching any sink; read the results via Result.Trace and
// Result.Metrics (or a SweepReport's Agg.StageLatency).
func WithObservability() Option {
	return func(c *ScenarioConfig) { c.Config.EnableObservability = true }
}

// WithTracer enables observability and registers a trace sink, flushed once
// when the scenario finishes. In a Sweep every seed flushes to the same
// sink concurrently — give each seed its own writer, or prefer
// WithObservability plus the aggregate views.
func WithTracer(sink TraceSink) Option {
	return func(c *ScenarioConfig) {
		c.Config.EnableObservability = true
		c.TraceSinks = append(c.TraceSinks, sink)
	}
}

// WithMetricsSink enables observability and registers a metrics sink,
// flushed once when the scenario finishes.
func WithMetricsSink(sink MetricsSink) Option {
	return func(c *ScenarioConfig) {
		c.Config.EnableObservability = true
		c.MetricsSinks = append(c.MetricsSinks, sink)
	}
}

// WithoutObservability turns the observability layer back off and drops any
// registered sinks (options apply in order, so this wins over earlier
// WithTracer/WithMetricsSink/WithObservability).
func WithoutObservability() Option {
	return func(c *ScenarioConfig) {
		c.Config.EnableObservability = false
		c.TraceSinks = nil
		c.MetricsSinks = nil
	}
}

// ── Monitoring-ingestion options ────────────────────────────────────────
//
// The Merkle-audited usage ledger over the monitoring collectors.

// WithIngestBatching arms the per-VO usage ledger when batch is
// positive: one Merkle root of per-VO usage deltas (completed jobs, CPU
// seconds, bytes moved) sealed per window, published with inclusion
// proofs at the daemon's /api/v1/audit/* routes. batch is not a batch
// size — monitoring commits per event either way, and every positive
// value arms the same ledger; the name is kept for existing callers.
// The ledger schedules no events and draws no randomness, so output
// stays byte-identical to a run without it. window <= 0 defaults to the
// monitor interval.
func WithIngestBatching(batch int, window time.Duration) Option {
	return func(c *ScenarioConfig) {
		c.Config.IngestBatch = batch
		c.Config.IngestWindow = window
	}
}

// ── Fault-management options ────────────────────────────────────────────
//
// The §6 failure taxonomy and the loop that reacts to it: injection,
// health probing, breaker-aware recovery, and chaos intensity.

// WithoutFailures turns off failure injection.
func WithoutFailures() Option {
	return func(c *ScenarioConfig) { c.DisableFailures = true }
}

// WithHealthProbes arms the health monitor: per-site, per-service circuit
// breakers fed by periodic probes, with iGOC tickets opened and resolved on
// breaker transitions. Probes are read-only — scheduling and data paths are
// unaffected unless WithRecovery is also given.
func WithHealthProbes() Option {
	return func(c *ScenarioConfig) { c.Config.EnableHealth = true }
}

// WithRecovery closes the fault-management loop (implies WithHealthProbes):
// matchmaking and Pegasus planning skip sites with open breakers, Condor-G
// steers retries away from sites that already failed a job, stage-in/out
// transfers get bounded delayed retries, and workflow transfers fail over
// to alternate RLS replicas.
func WithRecovery() Option {
	return func(c *ScenarioConfig) { c.Config.EnableRecovery = true }
}

// WithChaos scales failure injection by the given intensity (MTBFs divide
// by it, the random-loss rate multiplies by it) — the single-run face of
// the chaos campaign. 0 and 1 leave the calibrated rates untouched.
func WithChaos(intensity float64) Option {
	return func(c *ScenarioConfig) { c.ChaosIntensity = intensity }
}

// UpgradeWaveConfig schedules the §5.1 rolling VDT/Pacman upgrade campaign;
// see WithUpgradeWave.
type UpgradeWaveConfig = core.UpgradeWaveConfig

// CertWaveConfig schedules GSI host-credential expiry/revocation storms;
// see WithCertWave.
type CertWaveConfig = core.CertWaveConfig

// WithUpgradeWave arms the rolling VDT/Pacman upgrade campaign: starting at
// w.Start, sites reinstall onto the next Grid3 release tier by tier (Tier1
// labs first, staggered by w.Stagger), each taking a w.Outage service
// outage that kills its jobs; while the fleet is mixed-version, upgraded
// sites suffer skew-induced job losses at w.SkewLossPerDay. The wave draws
// from its own seed-salted stream, so runs without it are untouched. The
// zero-Start config disables the wave.
func WithUpgradeWave(w UpgradeWaveConfig) Option {
	return func(c *ScenarioConfig) { c.UpgradeWave = w }
}

// WithCertWave arms GSI host-credential expiry/revocation storms: every
// site's gatekeeper credential carries lifetime w.Lifetime (issuance
// staggered across w.Spread), and each lapse takes the site's auth dark —
// empty grid-mapfile, unhealthy gatekeeper — until a renewed credential
// lands after ~w.RenewalDelay. Combine with WithHealthProbes to watch the
// storms surface as breaker transitions and iGOC tickets. The
// zero-Lifetime config disables the wave.
func WithCertWave(w CertWaveConfig) Option {
	return func(c *ScenarioConfig) { c.CertWave = w }
}

// ── Data-plane options ──────────────────────────────────────────────────
//
// The managed data plane: SRM reservations and lifecycle, bounded GridFTP
// doors, and load-aware replica selection.

// WithSRM routes stage-out through SRM space reservations (the §8 lesson;
// without it the paper's raw-GridFTP disk-full failures reproduce).
func WithSRM() Option {
	return func(c *ScenarioConfig) { c.Config.UseSRM = true }
}

// WithTransferDoors bounds concurrent GridFTP flows per endpoint at n, the
// site's gsiftp door count; excess transfers queue FIFO until a door frees
// on both ends. 0 (the default) keeps the historical unbounded WAN.
func WithTransferDoors(n int) Option {
	return func(c *ScenarioConfig) { c.Config.TransferDoors = n }
}

// WithReplicaRanking makes Pegasus stage-in pick its replica source by live
// WAN load (fewest flows holding or waiting for a door, then least link
// pressure) instead of the first catalog listing.
func WithReplicaRanking() Option {
	return func(c *ScenarioConfig) { c.Config.EnableReplicaRanking = true }
}

// WithStorageCleanup arms the SRM lifecycle loop at every site: reservation
// expiry on the timer wheel, archive outputs pinned, and a periodic sweep
// that evicts unpinned staged files when free space falls below the
// watermark (0 keeps the default 0.15).
func WithStorageCleanup(watermark float64) Option {
	return func(c *ScenarioConfig) {
		c.Config.EnableStorageCleanup = true
		c.Config.CleanupWatermark = watermark
	}
}

// ── Serve options ───────────────────────────────────────────────────────
//
// The grid as a long-running daemon (see Serve/Handler below).

// WithRealTime sets the scaled-real-time compression ratio for Serve: pace
// virtual seconds advance per wall second (3600 compresses one simulated
// hour into each wall second). Batch runners (New, RunScenario, Sweep)
// ignore it — a batch run always executes as fast as the hardware allows.
// Zero or negative restores the serve default.
func WithRealTime(pace float64) Option {
	return func(c *ScenarioConfig) {
		if pace < 0 {
			pace = 0
		}
		c.RealTimePace = pace
	}
}

// ── Checkpoint options ──────────────────────────────────────────────────
//
// Crash-recoverable runs; see the Checkpoint/Restore entry points below.

// WithCheckpointAt arms mid-run snapshot capture: the scenario pauses at
// each listed sim time (ascending; past-horizon entries are skipped) and
// writes a snapshot into store. Capture is a pure read, so a checkpointing
// run stays byte-identical to one that never checkpoints.
func WithCheckpointAt(store StateStore, at ...time.Duration) Option {
	return func(c *ScenarioConfig) {
		c.CheckpointStore = store
		c.CheckpointAt = append(c.CheckpointAt, at...)
	}
}

// ── Escape hatches ──────────────────────────────────────────────────────
//
// Wholesale struct replacement for callers that build configuration
// directly. Place these first: a later option overrides them field-wise,
// while they replace everything set before them.

// WithConfig replaces the grid-level configuration wholesale — the escape
// hatch for callers that already build a Config struct.
func WithConfig(cfg Config) Option {
	return func(c *ScenarioConfig) { c.Config = cfg }
}

// WithScenarioConfig replaces the scenario configuration wholesale — the
// escape hatch for callers that already build a ScenarioConfig struct.
func WithScenarioConfig(cfg ScenarioConfig) Option {
	return func(c *ScenarioConfig) { *c = cfg }
}

func buildConfig(opts []Option) ScenarioConfig {
	var cfg ScenarioConfig
	for _, opt := range opts {
		opt(&cfg)
	}
	return cfg
}

// New assembles a Grid3 instance: 27 sites, the full service mesh, and
// per-VO Condor-G schedds, ready for SubmitJob.
func New(opts ...Option) (*Grid, error) {
	cfg := buildConfig(opts)
	return core.New(cfg.Config)
}

// NewScenario assembles a grid with the calibrated workloads, the §6.3
// transfer demonstrator, and failure injection armed, without running it —
// for callers that advance time incrementally.
func NewScenario(opts ...Option) (*Scenario, error) {
	return core.NewScenario(buildConfig(opts))
}

// RunScenario runs the full 183-day campaign at the given seed and
// workload scale (1.0 reproduces the paper's ~290k-job sample). The
// positional seed and scale take precedence over any conflicting option.
func RunScenario(seed int64, scale float64, opts ...Option) (*Result, error) {
	cfg := buildConfig(opts)
	cfg.Config.Seed = seed
	cfg.JobScale = scale
	s, err := core.NewScenario(cfg)
	if err != nil {
		return nil, err
	}
	if err := s.Run(); err != nil {
		return nil, err
	}
	return &Result{scen: s}, nil
}

// Grid3Sites returns the production 27-site catalog.
func Grid3Sites() []SiteSpec { return core.Grid3Sites() }

// Milestones is the §7 milestones-and-metrics scorecard, a completed run's
// headline numbers.
type Milestones = core.Milestones

// Result is a completed campaign. It exposes the paper's exhibits without
// leaking the internal scenario machinery; Scenario() opens the trapdoor
// for callers that want the full figure/query surface.
type Result struct {
	scen *core.Scenario
}

// Scenario returns the underlying campaign for figure queries
// (Figure2..Figure6, UsagePlot) beyond the headline exhibits.
func (r *Result) Scenario() *Scenario { return r.scen }

// Milestones evaluates the §7 scorecard.
func (r *Result) Milestones() Milestones { return r.scen.ComputeMilestones() }

// WriteTable1 renders the Table 1 reproduction next to the paper's values.
func (r *Result) WriteTable1(w io.Writer) { r.scen.WriteTable1(w) }

// WriteMilestones renders the §7 scorecard against the paper's targets.
func (r *Result) WriteMilestones(w io.Writer) {
	r.scen.ComputeMilestones().Write(w)
}

// Submitted returns the total jobs handed to the grid across classes.
func (r *Result) Submitted() int { return r.scen.SubmittedTotal() }

// Records returns the number of completed-job records in the ACDC
// warehouse.
func (r *Result) Records() int { return r.scen.Grid.ACDC.Len() }

// EventsProcessed returns the discrete events the engine executed.
func (r *Result) EventsProcessed() uint64 { return r.scen.Grid.Eng.Processed() }

// Trace returns the run's span trace, or nil when the run was executed
// without observability (see WithObservability / WithTracer). Each call
// copies the recorded spans, so call it once and keep the result.
func (r *Result) Trace() *Trace {
	if o := r.scen.Grid.Obs; o != nil {
		return o.Tracer.Trace()
	}
	return nil
}

// Metrics returns the run's final metrics snapshot, or nil when the run was
// executed without observability.
func (r *Result) Metrics() *MetricsSnapshot {
	if o := r.scen.Grid.Obs; o != nil {
		return o.Metrics.Snapshot()
	}
	return nil
}

// SweepReport is a completed multi-seed campaign sweep: per-seed results in
// seed order (Runs, each with its milestones and rendered Table 1), the
// cross-seed min/mean/max aggregate (Agg), Write for humans, and JSON under
// the grid3.sweep/1 schema.
type SweepReport = campaign.Report

// Sweep runs the calibrated campaign once per seed, fanned across
// GOMAXPROCS workers (one discrete-event engine per worker, so every
// seed's run is bit-for-bit identical to running it alone). Scale
// multiplies every class's job count (0 keeps the options' scale, else the
// scenario default; 1.0 reproduces the paper's ~290k-job sample per seed).
// Options apply to every run.
func Sweep(seeds []int64, scale float64, opts ...Option) (*SweepReport, error) {
	cfg := buildConfig(opts)
	if scale != 0 {
		cfg.JobScale = scale
	}
	return campaign.Sweep(seeds, cfg, 0)
}

// Checkpoint/restore views: durable snapshots behind a pluggable state
// store. A snapshot records the resolved configuration, the sim time, and a
// digest of the complete deterministic state; Restore rebuilds the scenario
// by replaying the recorded configuration to the recorded time and verifies
// the digest, so a restored run continues byte-identically — or fails
// loudly, never loading partial state.
type (
	// Snapshot is one captured state record (see Checkpoint, Restore).
	Snapshot = checkpoint.Snapshot
	// StateStore is the pluggable persistence boundary for snapshots.
	StateStore = checkpoint.StateStore
)

// Snapshot-integrity errors, for errors.Is against Restore failures.
var (
	// ErrSnapshotCorrupt reports a snapshot that failed structural
	// validation (bad framing, checksum, config schema, journal order).
	ErrSnapshotCorrupt = checkpoint.ErrCorrupt
	// ErrDigestMismatch reports a replay that did not land on the recorded
	// state digest; the partially-built scenario is torn down.
	ErrDigestMismatch = checkpoint.ErrDigest
	// ErrSnapshotNotFound reports an unknown snapshot ID or an empty store.
	ErrSnapshotNotFound = checkpoint.ErrNotFound
)

// NewMemStore returns an in-memory StateStore (tests, single-process use).
func NewMemStore() *checkpoint.MemStore { return checkpoint.NewMemStore() }

// NewDirStore opens (creating if needed) a durable directory-backed
// StateStore: one file per snapshot, atomically committed via temp-file +
// rename, listed in chronological order.
func NewDirStore(dir string) (StateStore, error) { return checkpoint.NewDirStore(dir) }

// NewFileStore returns a single-file StateStore holding at most one
// snapshot — the grid3sim -checkpoint-out / -restore convention.
func NewFileStore(path string) StateStore { return checkpoint.NewFileStore(path) }

// Checkpoint captures a batch-scope snapshot of a running scenario (see
// NewScenario for incremental execution, or WithCheckpointAt for capture at
// preset times during Run).
func Checkpoint(s *Scenario) (*Snapshot, error) { return s.Checkpoint() }

// Restore rebuilds a scenario from a snapshot by verified deterministic
// replay. Options express the restore-time overrides — only the whitelisted
// subset applies (an extended WithHorizon, fresh
// WithTracer/WithMetricsSink sinks, WithCheckpointAt re-arming, and
// WithRealTime); every other option is ignored, because changing workload,
// seed, or feature flags would diverge the replay from the checkpointed
// state.
func Restore(snap *Snapshot, opts ...Option) (*Scenario, error) {
	return core.RestoreScenario(snap, restoreOverrides(buildConfig(opts)))
}

// restoreOverrides keeps the restore whitelist of an option-built
// configuration.
func restoreOverrides(cfg ScenarioConfig) core.RestoreOverrides {
	return core.RestoreOverrides{
		Horizon:         cfg.Horizon,
		TraceSinks:      cfg.TraceSinks,
		MetricsSinks:    cfg.MetricsSinks,
		CheckpointAt:    cfg.CheckpointAt,
		CheckpointStore: cfg.CheckpointStore,
		RealTimePace:    cfg.RealTimePace,
	}
}

// EncodeSnapshot serializes a snapshot into the versioned binary format
// (magic, version, checksummed); DecodeSnapshot is its inverse and rejects
// corrupt, truncated, or version-skewed records with ErrSnapshotCorrupt-
// family errors, never a partial result.
func EncodeSnapshot(snap *Snapshot) []byte { return checkpoint.Encode(snap) }

// DecodeSnapshot parses a snapshot record produced by EncodeSnapshot.
func DecodeSnapshot(data []byte) (*Snapshot, error) { return checkpoint.Decode(data) }

// SaveSnapshot commits a snapshot to a store and returns its ID.
func SaveSnapshot(st StateStore, snap *Snapshot) (string, error) {
	return checkpoint.Save(st, snap)
}

// LatestSnapshot loads the most recent snapshot in a store (ID order is
// chronological); ErrSnapshotNotFound when the store is empty.
func LatestSnapshot(st StateStore) (*Snapshot, string, error) {
	return checkpoint.Latest(st)
}

// Service views: the grid as a long-running daemon. Serve assembles a
// scenario and runs it continuously in scaled real time (see WithRealTime)
// behind a thread-safe ingress boundary; Handler exposes the paper's
// user-facing surfaces — VOMS enrollment, Condor-G submission and status,
// RLS lookup, MonALISA/ACDC/metrics monitoring, site catalog, iGOC tickets
// — as an HTTP/JSON API.
type (
	// Server runs one scenario continuously behind the ingress boundary.
	// Call Start to begin paced execution, Do to touch grid state safely,
	// and Stop for a clean shutdown.
	Server = serve.Service
	// ServerStatus is a point-in-time daemon snapshot (see Server.StatusNow).
	ServerStatus = serve.Status
)

// ErrOverloaded reports that the service's ingress queue was full and the
// request was shed before touching the engine (HTTP 503 at the API).
var ErrOverloaded = serve.ErrOverloaded

// Serve assembles a scenario from the options and wraps it in a Server.
// The server is not started; callers control the lifecycle:
//
//	s, err := grid3.Serve(grid3.WithSeed(1), grid3.WithRealTime(3600))
//	s.Start()
//	defer s.Stop()
//	http.ListenAndServe(addr, grid3.Handler(s))
func Serve(opts ...Option) (*Server, error) {
	return serve.New(serve.Config{Scenario: buildConfig(opts)})
}

// ServeFrom warm-boots a Server from a snapshot: a serve-scope snapshot
// (Server.Snapshot) restores the job table too by replaying the recorded
// API journal; a batch-scope snapshot (grid3sim -checkpoint-out,
// Checkpoint) restores the grid state with an empty job table. Options are
// limited to the restore whitelist, exactly as in Restore.
func ServeFrom(snap *Snapshot, opts ...Option) (*Server, error) {
	cfg := buildConfig(opts)
	return serve.New(serve.Config{
		Scenario:         cfg,
		Pace:             cfg.RealTimePace,
		Restore:          snap,
		RestoreOverrides: restoreOverrides(cfg),
	})
}

// Handler returns the HTTP/JSON API for a server: GET /healthz,
// /api/v1/status, VO enrollment and membership, job submission and status,
// RLS replica lookup, monitoring reads, the site catalog, and iGOC
// tickets. Overload at the ingress boundary surfaces as 503.
func Handler(s *Server) http.Handler {
	return serve.NewHandler(s, serve.HandlerConfig{})
}
