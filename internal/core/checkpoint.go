package core

import (
	"bytes"
	"encoding/json"
	"fmt"
	"sort"
	"time"

	"grid3/internal/apps"
	"grid3/internal/checkpoint"
	"grid3/internal/failure"
	"grid3/internal/obs"
)

// wireScenario is the JSON mirror of ScenarioConfig carried inside a
// snapshot: the resolved plain-data configuration that pins a replay, minus
// the runtime wiring (sinks are functions, checkpoint plumbing is
// per-process). Decoding is strict — an unknown field means the snapshot
// was written by a different config schema, and replaying it under this one
// could silently diverge, so it is rejected up front.
type wireScenario struct {
	Config              Config         `json:"config"`
	Horizon             time.Duration  `json:"horizon"`
	Classes             []apps.Class   `json:"classes"`
	Failures            failure.Config `json:"failures"`
	DisableFailures     bool           `json:"disable_failures"`
	ChaosIntensity      float64        `json:"chaos_intensity"`
	DisableTransferDemo bool           `json:"disable_transfer_demo"`
	JobScale            float64        `json:"job_scale"`
	RealTimePace        float64        `json:"real_time_pace"`
	// The wave families are plain data and must replay bit-for-bit, so
	// they ride in the snapshot like every other workload knob. Snapshots
	// written before the waves existed decode with both left zero (off).
	UpgradeWave UpgradeWaveConfig `json:"upgrade_wave"`
	CertWave    CertWaveConfig    `json:"cert_wave"`
}

func marshalScenarioConfig(cfg ScenarioConfig) ([]byte, error) {
	return json.Marshal(wireScenario{
		Config:              cfg.Config,
		Horizon:             cfg.Horizon,
		Classes:             cfg.Classes,
		Failures:            cfg.Failures,
		DisableFailures:     cfg.DisableFailures,
		ChaosIntensity:      cfg.ChaosIntensity,
		DisableTransferDemo: cfg.DisableTransferDemo,
		JobScale:            cfg.JobScale,
		RealTimePace:        cfg.RealTimePace,
		UpgradeWave:         cfg.UpgradeWave,
		CertWave:            cfg.CertWave,
	})
}

func unmarshalScenarioConfig(data []byte) (ScenarioConfig, error) {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	var w wireScenario
	if err := dec.Decode(&w); err != nil {
		return ScenarioConfig{}, fmt.Errorf("%w: config: %v", checkpoint.ErrCorrupt, err)
	}
	return ScenarioConfig{
		Config:              w.Config,
		Horizon:             w.Horizon,
		Classes:             w.Classes,
		Failures:            w.Failures,
		DisableFailures:     w.DisableFailures,
		ChaosIntensity:      w.ChaosIntensity,
		DisableTransferDemo: w.DisableTransferDemo,
		JobScale:            w.JobScale,
		RealTimePace:        w.RealTimePace,
		UpgradeWave:         w.UpgradeWave,
		CertWave:            w.CertWave,
	}, nil
}

// HashState folds the grid's complete deterministic state into h: the
// engine (clock, sequence counter, every pending event's scheduling key),
// VO rosters, every site's replica catalog and SRM lifecycle state, the WAN,
// the RLS index, iGOC tickets, breaker state, per-VO schedd queues, and the
// accounting counters. This walk is the snapshot's verification witness.
func (g *Grid) HashState(h *checkpoint.Hasher) {
	g.Eng.HashState(h)
	g.Registry.HashState(h)
	h.Int(int64(len(g.Order)))
	for _, name := range g.Order {
		n := g.Nodes[name]
		h.String(name)
		n.LRC.HashState(h)
		if n.SRM != nil {
			h.Bool(true)
			n.SRM.HashState(h)
		} else {
			h.Bool(false)
		}
		h.Int(int64(len(n.archQueue)))
		h.Int(n.archBytes)
	}
	g.Network.HashState(h)
	g.RLI.HashState(h)
	g.Desk.HashState(h)
	g.Health.HashState(h) // nil-safe: folds nothing when probes are off
	vos := make([]string, 0, len(g.Schedds))
	for v := range g.Schedds {
		vos = append(vos, v)
	}
	sort.Strings(vos)
	h.Int(int64(len(vos)))
	for _, v := range vos {
		h.String(v)
		g.Schedds[v].HashState(h)
	}
	svos := make([]string, 0, len(g.stats))
	for v := range g.stats {
		svos = append(svos, v)
	}
	sort.Strings(svos)
	h.Int(int64(len(svos)))
	for _, v := range svos {
		st := g.stats[v]
		h.String(v)
		h.Int(int64(st.Submitted))
		h.Int(int64(st.Completed))
		h.Int(int64(st.ExecFailures))
		h.Int(int64(st.AttemptFailures))
		h.Int(int64(st.StageOutFailures))
		h.Int(int64(st.SRMDeferred))
		h.Dur(st.WastedCPU)
	}
	h.Int(g.seq)
	h.Int(int64(g.peakRunning))
	h.Int(g.runningSamples)
	h.Int(g.runningSum)
	h.Int(g.capacitySum)
	tsites := make([]string, 0, len(g.healthTickets))
	for s := range g.healthTickets {
		tsites = append(tsites, s)
	}
	sort.Strings(tsites)
	h.Int(int64(len(tsites)))
	for _, s := range tsites {
		h.String(s)
		h.Int(int64(g.healthTickets[s]))
	}
	rsites := make([]string, 0, len(g.resolvedTickets))
	for s := range g.resolvedTickets {
		rsites = append(rsites, s)
	}
	sort.Strings(rsites)
	h.Int(int64(len(rsites)))
	for _, s := range rsites {
		h.String(s)
		h.Int(int64(g.resolvedTickets[s]))
	}
}

// StateDigest returns the digest of the grid's canonical state walk, with
// extra (may be nil) appended — the hook a higher layer uses to fold its
// own soft state (the serve job table) into the same witness.
func (s *Scenario) StateDigest(extra func(*checkpoint.Hasher)) uint64 {
	h := checkpoint.NewHasher()
	s.Grid.HashState(h)
	if extra != nil {
		extra(h)
	}
	return h.Sum()
}

// Snapshot captures the scenario's current state as a snapshot record:
// resolved configuration, sim time, state digest, and — for the serve
// scope — the journal of externally-injected operations. The capture is a
// pure read; the run continues unperturbed.
func (s *Scenario) Snapshot(scope checkpoint.Scope, extra func(*checkpoint.Hasher), journal []checkpoint.Op) (*checkpoint.Snapshot, error) {
	cfgRaw, err := marshalScenarioConfig(s.Cfg)
	if err != nil {
		return nil, fmt.Errorf("checkpoint: marshal config: %w", err)
	}
	return &checkpoint.Snapshot{
		Scope:   scope,
		SimTime: s.Grid.Eng.Now(),
		Seed:    s.Cfg.Seed,
		Events:  s.Grid.Eng.Processed(),
		Digest:  s.StateDigest(extra),
		Config:  cfgRaw,
		Journal: journal,
	}, nil
}

// Checkpoint captures a batch-scope snapshot of the running scenario.
func (s *Scenario) Checkpoint() (*checkpoint.Snapshot, error) {
	return s.Snapshot(checkpoint.ScopeBatch, nil, nil)
}

// RestoreOverrides is the whitelist of settings a restore may change
// relative to the recorded configuration. Everything else in the snapshot's
// config wins: changing workload, seed, failure mix, or feature flags would
// make the replay diverge from the checkpointed state, so such knobs are
// deliberately absent here.
type RestoreOverrides struct {
	// Horizon, when beyond the recorded horizon, extends how far the
	// restored run will continue. Construction and replay always use the
	// recorded horizon (generator arming depends on it); the extension
	// only moves the continuation target.
	Horizon time.Duration
	// TraceSinks/MetricsSinks attach fresh observability sinks — functions
	// cannot be serialized, so the original sinks are gone. Accepted only
	// when the recorded config had observability enabled; attaching them to
	// a run that executed without the observer would change its event count.
	TraceSinks   []obs.TraceSink
	MetricsSinks []obs.MetricsSink
	// CheckpointAt/CheckpointStore re-arm periodic capture on the restored
	// run (the restored grid3d keeps checkpointing).
	CheckpointAt    []time.Duration
	CheckpointStore checkpoint.StateStore
	// RealTimePace overrides the serve-mode pacing ratio (0 keeps the
	// recorded value). Pacing is wall-clock plumbing outside the engine,
	// so it cannot perturb the replay.
	RealTimePace float64
	// ReplayOp applies one journaled external operation during replay; the
	// serve layer supplies its enroll/submit appliers. Required for
	// serve-scope snapshots, must be nil for batch scope.
	ReplayOp func(s *Scenario, op checkpoint.Op) error
	// ExtraHash appends a higher layer's soft state to the verification
	// walk, mirroring the extra hook the capture used (the serve job
	// table). Must fold the rebuilt state, or verification fails.
	ExtraHash func(*checkpoint.Hasher)
}

// RestoreScenario rebuilds a scenario from a snapshot by deterministic
// replay: construct the recorded configuration, re-execute to the recorded
// sim time (re-injecting journaled operations at their recorded instants),
// and verify the state walk against the recorded digest. On any error —
// wrong scope, corrupt config, replay divergence — the partially-built grid
// is dropped and nil is returned: a restore never yields a scenario whose
// state differs from the checkpoint.
func RestoreScenario(snap *checkpoint.Snapshot, ov RestoreOverrides) (*Scenario, error) {
	switch snap.Scope {
	case checkpoint.ScopeBatch:
		if len(snap.Journal) != 0 {
			return nil, fmt.Errorf("%w: batch snapshot carries a journal", checkpoint.ErrCorrupt)
		}
	case checkpoint.ScopeServe:
		if ov.ReplayOp == nil {
			return nil, fmt.Errorf("%w: serve snapshot needs a serve-layer restore", checkpoint.ErrWrongScope)
		}
	default:
		return nil, fmt.Errorf("%w: scope %v", checkpoint.ErrWrongScope, snap.Scope)
	}
	cfg, err := unmarshalScenarioConfig(snap.Config)
	if err != nil {
		return nil, err
	}
	if snap.SimTime > cfg.Horizon {
		return nil, fmt.Errorf("%w: snapshot time %v beyond recorded horizon %v",
			checkpoint.ErrCorrupt, snap.SimTime, cfg.Horizon)
	}
	if ov.RealTimePace != 0 {
		cfg.RealTimePace = ov.RealTimePace
	}
	if len(ov.TraceSinks) > 0 || len(ov.MetricsSinks) > 0 {
		if !cfg.EnableObservability {
			return nil, fmt.Errorf("checkpoint: cannot attach sinks: snapshot was recorded without observability")
		}
		cfg.TraceSinks = ov.TraceSinks
		cfg.MetricsSinks = ov.MetricsSinks
	}
	s, err := NewScenario(cfg)
	if err != nil {
		return nil, err
	}
	for i, op := range snap.Journal {
		if op.T > snap.SimTime {
			return nil, fmt.Errorf("%w: journal op %d at %v after snapshot time %v",
				checkpoint.ErrCorrupt, i, op.T, snap.SimTime)
		}
		// Only advance when the op is ahead of the clock: RunUntil(t) fires
		// events scheduled at exactly t, so re-invoking it between two ops
		// recorded at the same instant would fire events the first op
		// scheduled before the second op applies — the original run applied
		// both ops back-to-back with those events still pending.
		if op.T > s.Grid.Eng.Now() {
			s.Grid.Eng.RunUntil(op.T)
		}
		if err := ov.ReplayOp(s, op); err != nil {
			return nil, fmt.Errorf("checkpoint: replay op %d (%s): %w", i, op.Kind, err)
		}
	}
	if snap.SimTime > s.Grid.Eng.Now() {
		s.Grid.Eng.RunUntil(snap.SimTime)
	}
	if got := s.StateDigest(ov.ExtraHash); got != snap.Digest {
		return nil, fmt.Errorf("%w: walked %016x, snapshot records %016x",
			checkpoint.ErrDigest, got, snap.Digest)
	}
	if ov.Horizon > s.Cfg.Horizon {
		s.Cfg.Horizon = ov.Horizon
	}
	s.Cfg.CheckpointAt = ov.CheckpointAt
	s.Cfg.CheckpointStore = ov.CheckpointStore
	return s, nil
}
