package main

import (
	"bufio"
	"context"
	"errors"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"reflect"
	"strings"
	"syscall"
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

// grid3d returns the daemon as a child process with args, and a buffer
// for its stderr. The one-minute timeout ends a daemon that a missing
// refusal would leave serving.
func grid3d(t *testing.T, args ...string) (*exec.Cmd, *strings.Builder) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	t.Cleanup(cancel)
	cmd := exec.CommandContext(ctx, os.Args[0], append([]string{"-addr", "127.0.0.1:0"}, args...)...)
	cmd.Env = append(os.Environ(), runMainEnv+"=1")
	var stderr strings.Builder
	cmd.Stderr = &stderr
	return cmd, &stderr
}

// exitCode is the child's exit status, or -1 when it did not exit by
// itself (a signal or the timeout ended it).
func exitCode(err error) int {
	var exit *exec.ExitError
	switch {
	case err == nil:
		return 0
	case errors.As(err, &exit):
		return exit.ExitCode()
	}
	return -1
}

// The ledger window is refused without the ledger, before the daemon
// builds a scenario or listens.
func TestIngestWindowNeedsIngestBatch(t *testing.T) {
	cmd, stderr := grid3d(t, "-ingest-window", "10m")
	err := cmd.Run()
	if exitCode(err) != 2 || !strings.Contains(stderr.String(), "-ingest-window needs -ingest-batch") {
		t.Fatalf("err %v, stderr %q; want exit 2 and the -ingest-window refusal", err, stderr.String())
	}
}

// A misspelt field in the -config file stops the boot, naming the field.
func TestConfigUnknownFieldStopsBoot(t *testing.T) {
	path := filepath.Join(t.TempDir(), "grid3d.json")
	if err := os.WriteFile(path, []byte(`{"pacee": 5, "seed": 3}`), 0o644); err != nil {
		t.Fatal(err)
	}
	cmd, stderr := grid3d(t, "-sites", "5", "-scale", "0.001", "-days", "1", "-config", path)
	err := cmd.Run()
	if exitCode(err) != 1 || !strings.Contains(stderr.String(), "pacee") {
		t.Fatalf("err %v, stderr %q; want exit 1 naming pacee", err, stderr.String())
	}
}

// A shutdown whose -json-out record cannot be written exits 1.
func TestStatusJSONWriteFailureExits1(t *testing.T) {
	file := filepath.Join(t.TempDir(), "file")
	if err := os.WriteFile(file, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	cmd, stderr := grid3d(t, "-sites", "5", "-scale", "0.001", "-days", "1",
		"-json-out", filepath.Join(file, "status.json"))
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	lines := bufio.NewScanner(stdout)
	for lines.Scan() && !strings.Contains(lines.Text(), "serving on") {
	}
	if err := cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, stdout)
	err = cmd.Wait()
	if exitCode(err) != 1 || !strings.Contains(stderr.String(), "writing status JSON") {
		t.Fatalf("err %v, stderr %q; want exit 1 and the status JSON write error", err, stderr.String())
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

// A reload of a file with an unknown field fails naming it and leaves the
// pace alone; so does one with data after the object.
func TestReloaderRefusesUnknownFields(t *testing.T) {
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
	for _, tc := range []struct{ body, want string }{
		{`{"pacee": 5, "seed": 3}`, "pacee"},
		{`{"pace": 7200} {"pace": 5}`, "after the config object"},
		{`{"pace": 7200}}`, "after the config object"},
	} {
		if err := os.WriteFile(path, []byte(tc.body), 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := reloader(svc, path)(); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("reload of %s: err %v, want one naming %q", tc.body, err, tc.want)
		}
		if got := svc.Pace(); got != 3600 {
			t.Fatalf("pace after the refused reload of %s = %v, want 3600", tc.body, got)
		}
	}
}
