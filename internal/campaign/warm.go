package campaign

import (
	"fmt"
	"io"
	"time"

	"grid3/internal/checkpoint"
	"grid3/internal/core"
	"grid3/internal/dist"
)

// WarmVariant is one fork of a checkpointed steady state. The replay up to
// the snapshot's sim time is byte-identical for every variant (it is digest-
// verified); the variants then diverge only in what the knobs below change
// about the future.
type WarmVariant struct {
	// Name labels the variant in the report; empty gets "variant<i>".
	Name string
	// ForwardSeed, when nonzero, reseeds the failure injector's RNG after
	// the restore point, so this variant sees a different failure future
	// over an identical past — the error-bar construction that does not pay
	// for N full warmups. 0 keeps the recorded stream (the variant
	// reproduces the original run exactly).
	ForwardSeed int64
	// Horizon, when beyond the recorded horizon, extends this variant's
	// continuation (the replay itself always uses the recorded horizon).
	Horizon time.Duration
	// Shards overrides the execution shard count (0 keeps the recorded
	// value); output is shard-independent.
	Shards int
}

// WarmStartConfig shapes a warm-start campaign: one batch-scope snapshot
// forked into N variants.
type WarmStartConfig struct {
	// Snapshot is the checkpointed steady state every variant restores
	// from. Batch scope (grid3sim -checkpoint-out, Scenario.Checkpoint).
	Snapshot *checkpoint.Snapshot
	// Variants are the forks; at least one.
	Variants []WarmVariant
	// Workers caps parallelism (<=0 means GOMAXPROCS).
	Workers int
}

// WarmResult is one variant's outcome.
type WarmResult struct {
	Name        string
	ForwardSeed int64
	Elapsed     time.Duration // wall clock: restore replay + forward run
	RestoredAt  time.Duration // snapshot sim time
	Horizon     time.Duration // horizon this variant actually ran to
	Submitted   int
	Records     int
	Events      uint64
	Milestones  core.Milestones
	// Digest is the end-state digest. Variants with identical forward
	// parameters land on identical digests; a zero-knob variant lands on
	// the original run's.
	Digest uint64
}

// WarmReport is a completed warm-start campaign.
type WarmReport struct {
	SnapshotID string
	SimTime    time.Duration // restore point shared by every variant
	Workers    int
	Elapsed    time.Duration
	Variants   []WarmResult // input order
}

// WarmStart restores the snapshot once per variant (each worker replays and
// digest-verifies independently, so a corrupt snapshot can never seed a
// variant with wrong state) and runs every fork to its horizon in parallel.
func WarmStart(cfg WarmStartConfig) (*WarmReport, error) {
	if cfg.Snapshot == nil {
		return nil, fmt.Errorf("campaign: warm start needs a snapshot")
	}
	if len(cfg.Variants) == 0 {
		return nil, fmt.Errorf("campaign: warm start needs at least one variant")
	}
	start := time.Now()
	results := make([]WarmResult, len(cfg.Variants))
	workers, err := fanOut(len(cfg.Variants), cfg.Workers, func(i int) error {
		var err error
		if results[i], err = executeWarm(cfg.Snapshot, cfg.Variants[i], i); err != nil {
			return fmt.Errorf("campaign: variant %q: %w", results[i].Name, err)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return &WarmReport{
		SnapshotID: cfg.Snapshot.ID(),
		SimTime:    cfg.Snapshot.SimTime,
		Workers:    workers,
		Elapsed:    time.Since(start),
		Variants:   results,
	}, nil
}

// executeWarm restores and runs one variant on the calling goroutine.
func executeWarm(snap *checkpoint.Snapshot, v WarmVariant, i int) (WarmResult, error) {
	name := v.Name
	if name == "" {
		name = fmt.Sprintf("variant%d", i)
	}
	res := WarmResult{Name: name, ForwardSeed: v.ForwardSeed, RestoredAt: snap.SimTime}
	t0 := time.Now()
	s, err := core.RestoreScenario(snap, core.RestoreOverrides{
		Shards:  v.Shards,
		Horizon: v.Horizon,
	})
	if err != nil {
		return res, err
	}
	// Fork the failure future: swap the injector's RNG after the verified
	// restore point. Everything before it is shared history; everything
	// after draws from the variant's own stream.
	if v.ForwardSeed != 0 && s.Injector != nil {
		s.Injector.Reseed(dist.New(v.ForwardSeed))
	}
	if err := s.Run(); err != nil {
		return res, err
	}
	res.Elapsed = time.Since(t0)
	res.Horizon = s.Cfg.Horizon
	res.Submitted = s.SubmittedTotal()
	res.Records = s.Grid.ACDC.Len()
	res.Events = s.Grid.Eng.Processed()
	res.Milestones = s.ComputeMilestones()
	res.Digest = s.StateDigest(nil)
	return res, nil
}

// Write renders the warm-start summary.
func (rep *WarmReport) Write(w io.Writer) {
	fmt.Fprintf(w, "Warm-start campaign: %d variants from %s (sim %v) on %d workers in %v\n",
		len(rep.Variants), rep.SnapshotID, rep.SimTime.Round(time.Second),
		rep.Workers, rep.Elapsed.Round(time.Millisecond))
	fmt.Fprintf(w, "  %-16s %-10s %-8s %10s %10s %8s %8s  %s\n",
		"variant", "fwd-seed", "horizon", "jobs", "records", "peak", "util", "digest")
	for _, v := range rep.Variants {
		fmt.Fprintf(w, "  %-16s %-10d %-8s %10d %10d %8d %8.2f  %016x\n",
			v.Name, v.ForwardSeed, fmt.Sprintf("%dd", int(v.Horizon/(24*time.Hour))),
			v.Submitted, v.Records, v.Milestones.PeakJobs, v.Milestones.Utilization, v.Digest)
	}
}
