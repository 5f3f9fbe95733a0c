package grid3

import (
	"encoding/json"
	"io"
	"strings"
	"testing"
	"time"
)

// TestOptionMatrix walks every exported With* option and asserts it lands on
// the ScenarioConfig field it documents — the contract the grid3d config
// loader and the README table both lean on. A new option without a row here
// is a review smell, not a compile error, so keep the matrix exhaustive.
func TestOptionMatrix(t *testing.T) {
	sites := make([]SiteSpec, 3) // replacing the catalog is a length check here
	matrix := []struct {
		name  string
		opt   Option
		check func(ScenarioConfig) bool
	}{
		{"WithSeed", WithSeed(99), func(c ScenarioConfig) bool { return c.Config.Seed == 99 }},
		{"WithSites", WithSites(sites), func(c ScenarioConfig) bool {
			return len(c.Config.Sites) == 3
		}},
		{"WithTestbedScale", WithTestbedScale(300), func(c ScenarioConfig) bool { return c.Config.TestbedSites == 300 }},
		{"WithMonitorInterval", WithMonitorInterval(time.Minute), func(c ScenarioConfig) bool {
			return c.Config.MonitorInterval == time.Minute
		}},
		{"WithNegotiationInterval", WithNegotiationInterval(2 * time.Minute), func(c ScenarioConfig) bool {
			return c.Config.NegotiationInterval == 2*time.Minute
		}},
		{"WithSRM", WithSRM(), func(c ScenarioConfig) bool { return c.Config.UseSRM }},
		{"WithoutAffinity", WithoutAffinity(), func(c ScenarioConfig) bool { return c.Config.DisableAffinity }},
		{"WithConfig", WithConfig(Config{Seed: 5}), func(c ScenarioConfig) bool { return c.Config.Seed == 5 }},
		{"WithHorizon", WithHorizon(48 * time.Hour), func(c ScenarioConfig) bool { return c.Horizon == 48*time.Hour }},
		{"WithJobScale", WithJobScale(0.25), func(c ScenarioConfig) bool { return c.JobScale == 0.25 }},
		{"WithoutFailures", WithoutFailures(), func(c ScenarioConfig) bool { return c.DisableFailures }},
		{"WithoutTransferDemo", WithoutTransferDemo(), func(c ScenarioConfig) bool { return c.DisableTransferDemo }},
		{"WithObservability", WithObservability(), func(c ScenarioConfig) bool { return c.Config.EnableObservability }},
		{"WithTracer", WithTracer(JSONLSink(io.Discard)), func(c ScenarioConfig) bool {
			return c.Config.EnableObservability && len(c.TraceSinks) == 1
		}},
		{"WithMetricsSink", WithMetricsSink(TextMetricsSink(io.Discard)), func(c ScenarioConfig) bool {
			return c.Config.EnableObservability && len(c.MetricsSinks) == 1
		}},
		{"WithoutObservability", WithoutObservability(), func(c ScenarioConfig) bool {
			return !c.Config.EnableObservability && c.TraceSinks == nil && c.MetricsSinks == nil
		}},
		{"WithIngestBatching", WithIngestBatching(256, 10*time.Minute), func(c ScenarioConfig) bool {
			return c.Config.IngestBatch == 256 && c.Config.IngestWindow == 10*time.Minute
		}},
		{"WithHealthProbes", WithHealthProbes(), func(c ScenarioConfig) bool { return c.Config.EnableHealth }},
		{"WithRecovery", WithRecovery(), func(c ScenarioConfig) bool { return c.Config.EnableRecovery }},
		{"WithChaos", WithChaos(2.5), func(c ScenarioConfig) bool { return c.ChaosIntensity == 2.5 }},
		{"WithUpgradeWave", WithUpgradeWave(UpgradeWaveConfig{Start: 72 * time.Hour}), func(c ScenarioConfig) bool {
			return c.UpgradeWave.Enabled() && c.UpgradeWave.Start == 72*time.Hour
		}},
		{"WithCertWave", WithCertWave(CertWaveConfig{Lifetime: 48 * time.Hour}), func(c ScenarioConfig) bool {
			return c.CertWave.Enabled() && c.CertWave.Lifetime == 48*time.Hour
		}},
		{"WithTransferDoors", WithTransferDoors(8), func(c ScenarioConfig) bool { return c.Config.TransferDoors == 8 }},
		{"WithReplicaRanking", WithReplicaRanking(), func(c ScenarioConfig) bool { return c.Config.EnableReplicaRanking }},
		{"WithStorageCleanup", WithStorageCleanup(0.3), func(c ScenarioConfig) bool {
			return c.Config.EnableStorageCleanup && c.Config.CleanupWatermark == 0.3
		}},
		{"WithRealTime", WithRealTime(7200), func(c ScenarioConfig) bool { return c.RealTimePace == 7200 }},
		{"WithCheckpointAt", WithCheckpointAt(NewMemStore(), 12*time.Hour, 36*time.Hour), func(c ScenarioConfig) bool {
			return c.CheckpointStore != nil && len(c.CheckpointAt) == 2 && c.CheckpointAt[1] == 36*time.Hour
		}},
		{"WithScenarioConfig", WithScenarioConfig(ScenarioConfig{JobScale: 0.7}), func(c ScenarioConfig) bool {
			return c.JobScale == 0.7
		}},
	}
	for _, row := range matrix {
		if cfg := buildConfig([]Option{row.opt}); !row.check(cfg) {
			t.Errorf("%s did not reach its ScenarioConfig field: %+v", row.name, cfg)
		}
	}

	// Conflicting options resolve last-wins, uniformly.
	if cfg := buildConfig([]Option{WithJobScale(0.5), WithJobScale(0.1)}); cfg.JobScale != 0.1 {
		t.Fatalf("last WithJobScale lost: %v", cfg.JobScale)
	}
	if cfg := buildConfig([]Option{WithRealTime(10), WithRealTime(-3)}); cfg.RealTimePace != 0 {
		t.Fatalf("negative WithRealTime should clamp to the default, got %v", cfg.RealTimePace)
	}
}

// TestRealTimeIgnoredByBatch pins the documented split: WithRealTime only
// paces Serve. A batch run carrying a crawling pace (1 sim-second per wall
// second over a 24h horizon) must still finish as fast as the hardware
// allows — if the batch path ever consulted the governor this test would
// run for a day.
func TestRealTimeIgnoredByBatch(t *testing.T) {
	start := time.Now()
	r, err := RunScenario(4, 0.001,
		WithTestbedScale(5),
		WithHorizon(24*time.Hour),
		WithRealTime(1),
	)
	if err != nil {
		t.Fatal(err)
	}
	if r.EventsProcessed() == 0 {
		t.Fatal("batch run processed no events")
	}
	if elapsed := time.Since(start); elapsed > time.Minute {
		t.Fatalf("batch run appears to be wall-paced: took %v", elapsed)
	}
}

// TestCheckpointFacadeRoundTrip drives the whole public checkpoint surface:
// WithCheckpointAt captures mid-run, Encode/Decode round-trips the wire
// format, Restore continues to the same end digest as the straight run, and
// ServeFrom warm-boots a daemon from the batch snapshot.
func TestCheckpointFacadeRoundTrip(t *testing.T) {
	store := NewMemStore()
	opts := []Option{
		WithTestbedScale(5),
		WithHorizon(48 * time.Hour),
		WithJobScale(0.002),
	}
	s, err := NewScenario(append(opts, WithCheckpointAt(store, 24*time.Hour))...)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if len(s.CheckpointIDs) != 1 {
		t.Fatalf("checkpoint IDs %v, want one", s.CheckpointIDs)
	}
	want := s.StateDigest(nil)

	snap, _, err := LatestSnapshot(store)
	if err != nil {
		t.Fatal(err)
	}
	decoded, err := DecodeSnapshot(EncodeSnapshot(snap))
	if err != nil {
		t.Fatal(err)
	}
	restored, err := Restore(decoded, opts...)
	if err != nil {
		t.Fatal(err)
	}
	if err := restored.Run(); err != nil {
		t.Fatal(err)
	}
	if got := restored.StateDigest(nil); got != want {
		t.Fatalf("restored run diverged: %016x vs %016x", got, want)
	}

	// Corruption never loads: flip one payload byte and the decode or the
	// digest check must refuse.
	raw := EncodeSnapshot(snap)
	raw[len(raw)-8] ^= 0x40
	if bad, err := DecodeSnapshot(raw); err == nil {
		if _, rerr := Restore(bad, opts...); rerr == nil {
			t.Fatal("tampered snapshot restored cleanly")
		}
	}

	// Warm-boot a daemon from the batch snapshot (job table starts empty).
	srv, err := ServeFrom(snap, WithRealTime(3600))
	if err != nil {
		t.Fatal(err)
	}
	srv.Start()
	st, err := srv.StatusNow()
	srv.Stop()
	if err != nil {
		t.Fatal(err)
	}
	if st.SimNow < 24*time.Hour {
		t.Fatalf("daemon booted at sim %v, want >= 24h", st.SimNow)
	}
}

// TestReportJSONSchemas checks the sweep report's two renderings: Write for
// humans, and JSON carrying the versioned schema plus the frozen kind
// string that downstream tooling greps for.
func TestReportJSONSchemas(t *testing.T) {
	if testing.Short() {
		t.Skip("sweep in -short mode")
	}
	rep, err := Sweep([]int64{31}, 0.005, WithHorizon(4*24*time.Hour), WithTestbedScale(10))
	if err != nil {
		t.Fatal(err)
	}
	var buf strings.Builder
	rep.Write(&buf)
	if buf.Len() == 0 {
		t.Fatal("SweepReport.Write produced nothing")
	}
	raw, err := rep.JSON()
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasSuffix(string(raw), "\n") {
		t.Fatal("SweepReport.JSON output is not newline-terminated")
	}
	var head struct {
		Schema string `json:"schema"`
		Kind   string `json:"kind"`
	}
	if err := json.Unmarshal(raw, &head); err != nil {
		t.Fatal(err)
	}
	if head.Schema != "grid3.sweep/1" || head.Kind != "grid3-sweep" {
		t.Fatalf("sweep report header = %+v", head)
	}
}
