package main

import (
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"time"

	"grid3/internal/core"
	"grid3/internal/serve"
)

// A reload applies the pace and reports max_pending as needing a restart:
// the ingress is sized once, when the service is built.
func TestReloaderAppliesOnlyPace(t *testing.T) {
	// Never started: Do runs the reload at once on this goroutine.
	svc, err := serve.New(serve.Config{
		Scenario: core.ScenarioConfig{
			Config:   core.Config{Seed: 7, TestbedSites: 5},
			Horizon:  48 * time.Hour,
			JobScale: 0.001,
		},
		Pace: 3600,
	})
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "grid3d.json")
	if err := os.WriteFile(path, []byte(`{"pace": 7200, "max_pending": 16}`), 0o644); err != nil {
		t.Fatal(err)
	}
	applied, err := reloader(svc, path)()
	if err != nil {
		t.Fatal(err)
	}
	if got := svc.Pace(); got != 7200 {
		t.Fatalf("pace after reload = %v, want 7200", got)
	}
	if applied["pace"] != 7200.0 {
		t.Fatalf("applied pace = %v, want 7200", applied["pace"])
	}
	if got := applied["skipped_restart_required"]; !reflect.DeepEqual(got, []string{"max_pending"}) {
		t.Fatalf("skipped_restart_required = %v, want [max_pending]", got)
	}
}
