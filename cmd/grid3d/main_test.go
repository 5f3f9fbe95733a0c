package main

import (
	"context"
	"errors"
	"os"
	"os/exec"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"grid3/internal/core"
	"grid3/internal/serve"
)

// runMainEnv, when set, makes the test binary run the command instead of
// the tests, so a test can check the real CLI's exit code and stderr.
const runMainEnv = "GRID3D_TEST_RUN_MAIN"

func TestMain(m *testing.M) {
	if os.Getenv(runMainEnv) == "1" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// The ledger window is refused without the ledger, before the daemon
// builds a scenario or listens. The timeout ends a daemon that a missing
// refusal would leave serving.
func TestIngestWindowNeedsIngestBatch(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	cmd := exec.CommandContext(ctx, os.Args[0], "-addr", "127.0.0.1:0", "-ingest-window", "10m")
	cmd.Env = append(os.Environ(), runMainEnv+"=1")
	var stderr strings.Builder
	cmd.Stderr = &stderr
	err := cmd.Run()
	var exit *exec.ExitError
	if !errors.As(err, &exit) || exit.ExitCode() != 2 ||
		!strings.Contains(stderr.String(), "-ingest-window needs -ingest-batch") {
		t.Fatalf("err %v, stderr %q; want exit 2 and the -ingest-window refusal", err, stderr.String())
	}
}

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
