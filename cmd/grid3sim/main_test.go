package main

import (
	"errors"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// runMainEnv, when set, makes the test binary run the command instead of
// the tests, so a test can check the real CLI's exit code and stderr.
const runMainEnv = "GRID3SIM_TEST_RUN_MAIN"

func TestMain(m *testing.M) {
	if os.Getenv(runMainEnv) == "1" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// grid3sim runs the command with args in a child process and returns its
// exit code and stderr.
func grid3sim(t *testing.T, args ...string) (int, string) {
	t.Helper()
	cmd := exec.Command(os.Args[0], args...)
	cmd.Env = append(os.Environ(), runMainEnv+"=1")
	var stderr strings.Builder
	cmd.Stderr = &stderr
	err := cmd.Run()
	var exit *exec.ExitError
	switch {
	case err == nil:
		return 0, stderr.String()
	case errors.As(err, &exit):
		return exit.ExitCode(), stderr.String()
	}
	t.Fatalf("grid3sim %v: %v", args, err)
	return 0, ""
}

// Each case fails before a scenario is built. The small scenario after the
// case's own flags keeps a missing refusal from running the full campaign.
func TestRefusals(t *testing.T) {
	cases := []struct {
		name string
		args []string
		want string
	}{
		// The many-run modes are gone; grid3exp runs many scenarios.
		{"seeds", []string{"-seeds", "1"}, "flag provided but not defined: -seeds"},
		{"parallel", []string{"-parallel", "2"}, "flag provided but not defined: -parallel"},
		{"json-out", []string{"-json-out", "x"}, "flag provided but not defined: -json-out"},
		{"warm-seeds", []string{"-warm-seeds", "0"}, "flag provided but not defined: -warm-seeds"},
		{"checkpoint times without a file", []string{"-checkpoint-at", "240h"},
			"-checkpoint-at and -checkpoint-out go together"},
		{"checkpoint file without times", []string{"-checkpoint-out", "snap.g3"},
			"-checkpoint-at and -checkpoint-out go together"},
		{"stagger without an upgrade", []string{"-upgrade-stagger", "24h"},
			"-upgrade-stagger needs -upgrade-at"},
		{"renewal without a lifetime", []string{"-cert-renewal", "3h"},
			"-cert-renewal needs -cert-lifetime"},
		{"ledger window without the ledger", []string{"-ingest-window", "10m"},
			"-ingest-window needs -ingest-batch"},
		// A restore replays the snapshot's configuration; every flag that
		// would change it is named, the small scenario's own included.
		{"restore with flags it would ignore", []string{"-restore", "snap.g3", "-seed", "9", "-health"},
			"-restore keeps the snapshot's configuration; drop -health, -scale, -seed, -sites"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			args := append(tc.args, "-sites", "5", "-scale", "0.001", "-days", "1", "-quiet")
			code, stderr := grid3sim(t, args...)
			if code != 2 || !strings.Contains(stderr, tc.want) {
				t.Fatalf("exit %d, stderr %q; want exit 2 and %q", code, stderr, tc.want)
			}
		})
	}
}

// A run whose CSVs cannot be written fails like every other output.
func TestCSVWriteFailureExits1(t *testing.T) {
	file := filepath.Join(t.TempDir(), "file")
	if err := os.WriteFile(file, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	code, stderr := grid3sim(t, "-sites", "5", "-scale", "0.001", "-days", "1", "-quiet",
		"-csv", filepath.Join(file, "csv"))
	if code != 1 || !strings.Contains(stderr, "writing CSVs") {
		t.Fatalf("exit %d, stderr %q; want exit 1 and a CSV write error", code, stderr)
	}
}

// A restore still takes the flags that leave the recorded run alone.
func TestRestoreTakesOutputFlags(t *testing.T) {
	dir := t.TempDir()
	snap := filepath.Join(dir, "snap.g3")
	code, stderr := grid3sim(t, "-sites", "5", "-scale", "0.001", "-days", "2", "-quiet",
		"-checkpoint-at", "24h", "-checkpoint-out", snap)
	if code != 0 {
		t.Fatalf("checkpointing run: exit %d, stderr %q", code, stderr)
	}
	code, stderr = grid3sim(t, "-restore", snap, "-days", "3", "-quiet", "-csv", filepath.Join(dir, "csv"))
	if code != 0 || !strings.Contains(stderr, "restored") {
		t.Fatalf("restore: exit %d, stderr %q; want exit 0 and the restore banner", code, stderr)
	}
}
