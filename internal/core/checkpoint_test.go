package core

import (
	"errors"
	"strings"
	"testing"
	"time"

	"grid3/internal/checkpoint"
	"grid3/internal/obs"
)

func quickCfg(seed int64) ScenarioConfig {
	return ScenarioConfig{
		Config:   Config{Seed: seed},
		Horizon:  6 * 24 * time.Hour,
		JobScale: 0.01,
	}
}

// finalDigest runs a scenario to completion and returns its end-state
// digest plus a few headline counters.
func finalDigest(t *testing.T, s *Scenario) (uint64, int, int) {
	t.Helper()
	if err := s.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	sub, done := 0, 0
	for _, v := range VOColumns {
		st := s.Grid.Stats(v)
		sub += st.Submitted
		done += st.Completed
	}
	return s.StateDigest(nil), sub, done
}

// The tentpole guarantee: a straight-through run and a checkpoint-then-
// restore run of the same seed end in identical state.
func TestCheckpointRestoreMatchesStraightRun(t *testing.T) {
	straight, err := NewScenario(quickCfg(11))
	if err != nil {
		t.Fatal(err)
	}
	wantDigest, wantSub, wantDone := finalDigest(t, straight)
	if wantSub == 0 || wantDone == 0 {
		t.Fatalf("degenerate run: submitted %d completed %d", wantSub, wantDone)
	}

	// Checkpointing run: capture at mid-run, keep going to the horizon.
	store := checkpoint.NewMemStore()
	cfg := quickCfg(11)
	cfg.CheckpointAt = []time.Duration{3 * 24 * time.Hour}
	cfg.CheckpointStore = store
	ckpt, err := NewScenario(cfg)
	if err != nil {
		t.Fatal(err)
	}
	gotDigest, gotSub, gotDone := finalDigest(t, ckpt)
	if gotDigest != wantDigest || gotSub != wantSub || gotDone != wantDone {
		t.Fatalf("checkpointing run diverged: digest %016x/%016x submitted %d/%d completed %d/%d",
			gotDigest, wantDigest, gotSub, wantSub, gotDone, wantDone)
	}
	if len(ckpt.CheckpointIDs) != 1 {
		t.Fatalf("CheckpointIDs = %v", ckpt.CheckpointIDs)
	}

	// Restore from the mid-run snapshot and continue to the horizon.
	snap, err := checkpoint.Load(store, ckpt.CheckpointIDs[0])
	if err != nil {
		t.Fatal(err)
	}
	if snap.SimTime != 3*24*time.Hour {
		t.Fatalf("snapshot at %v", snap.SimTime)
	}
	restored, err := RestoreScenario(snap, RestoreOverrides{})
	if err != nil {
		t.Fatalf("RestoreScenario: %v", err)
	}
	if restored.Grid.Eng.Now() != snap.SimTime {
		t.Fatalf("restored clock %v", restored.Grid.Eng.Now())
	}
	rDigest, rSub, rDone := finalDigest(t, restored)
	if rDigest != wantDigest || rSub != wantSub || rDone != wantDone {
		t.Fatalf("restored run diverged: digest %016x/%016x submitted %d/%d completed %d/%d",
			rDigest, wantDigest, rSub, wantSub, rDone, wantDone)
	}
}

// A snapshot whose digest does not match the replayed state must be
// rejected — and the rejection must not leak a half-built scenario.
func TestRestoreRejectsDigestMismatch(t *testing.T) {
	store := checkpoint.NewMemStore()
	cfg := quickCfg(3)
	cfg.Horizon = 2 * 24 * time.Hour
	cfg.CheckpointAt = []time.Duration{24 * time.Hour}
	cfg.CheckpointStore = store
	s, err := NewScenario(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	snap, _, err := checkpoint.Latest(store)
	if err != nil {
		t.Fatal(err)
	}
	snap.Digest ^= 1
	restored, err := RestoreScenario(snap, RestoreOverrides{})
	if !errors.Is(err, checkpoint.ErrDigest) {
		t.Fatalf("err = %v, want ErrDigest", err)
	}
	if restored != nil {
		t.Fatal("digest mismatch returned a scenario")
	}
}

func TestRestoreRejectsCorruptConfig(t *testing.T) {
	snap := &checkpoint.Snapshot{
		Scope:   checkpoint.ScopeBatch,
		SimTime: time.Hour,
		Config:  []byte(`{"config":{},"horizon":1,"unknown_field":true}`),
	}
	if _, err := RestoreScenario(snap, RestoreOverrides{}); !errors.Is(err, checkpoint.ErrCorrupt) {
		t.Fatalf("unknown config field: %v, want ErrCorrupt", err)
	}
	// Snapshots recorded while Config still had the parallel-matchmaking
	// field carry it. The horizon covers SimTime, so only the retired field
	// can trip this.
	snap.Config = []byte(`{"config":{"Shards":4},"horizon":3600000000000}`)
	if _, err := RestoreScenario(snap, RestoreOverrides{}); !errors.Is(err, checkpoint.ErrCorrupt) ||
		!strings.Contains(err.Error(), `"Shards"`) {
		t.Fatalf("retired config field: %v, want ErrCorrupt naming it", err)
	}
	snap.Config = []byte(`not json`)
	if _, err := RestoreScenario(snap, RestoreOverrides{}); !errors.Is(err, checkpoint.ErrCorrupt) {
		t.Fatalf("junk config: %v, want ErrCorrupt", err)
	}
}

func TestRestoreRejectsWrongScope(t *testing.T) {
	s, err := NewScenario(quickCfg(1))
	if err != nil {
		t.Fatal(err)
	}
	snap, err := s.Snapshot(checkpoint.ScopeServe, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	// Serve snapshot without a serve-layer replay hook.
	if _, err := RestoreScenario(snap, RestoreOverrides{}); !errors.Is(err, checkpoint.ErrWrongScope) {
		t.Fatalf("serve scope, no ReplayOp: %v, want ErrWrongScope", err)
	}
	// Batch snapshot smuggling a journal.
	bsnap, err := s.Snapshot(checkpoint.ScopeBatch, nil, []checkpoint.Op{{Kind: "x"}})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := RestoreScenario(bsnap, RestoreOverrides{}); !errors.Is(err, checkpoint.ErrCorrupt) {
		t.Fatalf("batch scope with journal: %v, want ErrCorrupt", err)
	}
}

func TestRestoreRejectsSinksWithoutObservability(t *testing.T) {
	s, err := NewScenario(quickCfg(1))
	if err != nil {
		t.Fatal(err)
	}
	snap, err := s.Checkpoint()
	if err != nil {
		t.Fatal(err)
	}
	_, err = RestoreScenario(snap, RestoreOverrides{
		TraceSinks: []obs.TraceSink{func(*obs.Trace) error { return nil }},
	})
	if err == nil {
		t.Fatal("sink attached to an observability-off snapshot")
	}
}

// Snapshot round-trips through the binary codec without losing the config.
func TestSnapshotConfigRoundTrip(t *testing.T) {
	cfg := quickCfg(9)
	cfg.Config.UseSRM = true
	cfg.Config.TransferDoors = 4
	cfg.ChaosIntensity = 1.5
	s, err := NewScenario(cfg)
	if err != nil {
		t.Fatal(err)
	}
	snap, err := s.Checkpoint()
	if err != nil {
		t.Fatal(err)
	}
	decoded, err := checkpoint.Decode(checkpoint.Encode(snap))
	if err != nil {
		t.Fatal(err)
	}
	got, err := unmarshalScenarioConfig(decoded.Config)
	if err != nil {
		t.Fatal(err)
	}
	if !got.UseSRM || got.TransferDoors != 4 || got.ChaosIntensity != 1.5 ||
		got.Seed != 9 || got.Horizon != cfg.Horizon || len(got.Sites) != len(s.Cfg.Sites) {
		t.Fatalf("config round-trip lost fields: %+v", got)
	}
}

// An extended horizon must not change replay (generators arm on the
// recorded horizon); it only moves the continuation target.
func TestRestoreHorizonExtension(t *testing.T) {
	store := checkpoint.NewMemStore()
	cfg := quickCfg(2)
	cfg.Horizon = 2 * 24 * time.Hour
	cfg.CheckpointAt = []time.Duration{24 * time.Hour}
	cfg.CheckpointStore = store
	s, err := NewScenario(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	snap, _, err := checkpoint.Latest(store)
	if err != nil {
		t.Fatal(err)
	}
	restored, err := RestoreScenario(snap, RestoreOverrides{Horizon: 3 * 24 * time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	if restored.Cfg.Horizon != 3*24*time.Hour {
		t.Fatalf("Horizon = %v", restored.Cfg.Horizon)
	}
	if err := restored.Run(); err != nil {
		t.Fatal(err)
	}
	if got := restored.Grid.Eng.Now(); got < 3*24*time.Hour {
		t.Fatalf("extended run stopped at %v", got)
	}
}
