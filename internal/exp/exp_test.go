package exp

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestGoldenRoundTrip freezes the grid3.exp/1 wire form: the checked-in
// golden decodes, re-marshals to its own bytes exactly, and survives a
// second decode. Any field rename, reorder, or representation change
// breaks this test before it breaks a user's checked-in spec.
func TestGoldenRoundTrip(t *testing.T) {
	golden, err := os.ReadFile(filepath.Join("testdata", "golden.json"))
	if err != nil {
		t.Fatal(err)
	}
	spec, err := Decode(bytes.NewReader(golden))
	if err != nil {
		t.Fatal(err)
	}
	out, err := json.MarshalIndent(spec, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	out = append(out, '\n')
	if !bytes.Equal(out, golden) {
		t.Fatalf("golden round trip changed the bytes:\n--- golden\n%s\n--- re-marshal\n%s", golden, out)
	}
	if _, err := Decode(bytes.NewReader(out)); err != nil {
		t.Fatalf("re-marshaled golden does not decode: %v", err)
	}
	if got := spec.Experiment("waves"); got == nil || got.Knobs.RevokeFraction != 0.25 {
		t.Fatalf("golden lookup: %+v", got)
	}
}

// TestCheckedInSpecsValidate keeps the repo's own experiment grids honest
// against the decoder they will meet at run time.
func TestCheckedInSpecsValidate(t *testing.T) {
	for _, path := range []string{"core.json", "smoke.json"} {
		spec, err := DecodeFile(filepath.Join("..", "..", "experiments", path))
		if err != nil {
			t.Errorf("%s: %v", path, err)
			continue
		}
		if len(spec.Experiments) == 0 {
			t.Errorf("%s: no experiments", path)
		}
	}
}

// TestDecodeRejects walks the refusal matrix: every malformed spec gets a
// loud error naming the offense, never a silent partial decode.
func TestDecodeRejects(t *testing.T) {
	const valid = `{"schema": "grid3.exp/1", "name": "x", "experiments": [
		{"name": "a", "mode": "sweep", "out": "a.json"}]}`
	if _, err := Decode(strings.NewReader(valid)); err != nil {
		t.Fatalf("baseline spec rejected: %v", err)
	}
	cases := []struct {
		name, spec, want string
	}{
		{"wrong schema",
			`{"schema": "grid3.exp/2", "experiments": [{"name": "a", "mode": "sweep", "out": "a.json"}]}`,
			`schema "grid3.exp/2" is not "grid3.exp/1"`},
		{"unknown top-level field",
			`{"schema": "grid3.exp/1", "bogus": 1, "experiments": [{"name": "a", "mode": "sweep", "out": "a.json"}]}`,
			`unknown field "bogus"`},
		{"unknown knob",
			`{"schema": "grid3.exp/1", "experiments": [{"name": "a", "mode": "sweep", "out": "a.json", "knobs": {"dayz": 3}}]}`,
			`unknown field "dayz"`},
		{"retired parallel-matchmaking knob",
			`{"schema": "grid3.exp/1", "experiments": [
				{"name": "a", "mode": "scale", "out": "a.json", "knobs": {"shards": 4}}]}`,
			`unknown field "shards"`},
		{"no experiments",
			`{"schema": "grid3.exp/1", "experiments": []}`,
			"names no experiments"},
		{"empty name",
			`{"schema": "grid3.exp/1", "experiments": [{"name": "", "mode": "sweep", "out": "a.json"}]}`,
			"has no name"},
		{"duplicate names",
			`{"schema": "grid3.exp/1", "experiments": [
				{"name": "a", "mode": "sweep", "out": "a.json"},
				{"name": "a", "mode": "sweep", "out": "b.json"}]}`,
			`duplicate experiment name "a"`},
		{"duplicate outputs",
			`{"schema": "grid3.exp/1", "experiments": [
				{"name": "a", "mode": "sweep", "out": "a.json"},
				{"name": "b", "mode": "sweep", "out": "a.json"}]}`,
			`both write a.json`},
		{"missing out",
			`{"schema": "grid3.exp/1", "experiments": [{"name": "a", "mode": "sweep"}]}`,
			"no output file"},
		{"bad mode",
			`{"schema": "grid3.exp/1", "experiments": [{"name": "a", "mode": "warp", "out": "a.json"}]}`,
			`unknown mode "warp"`},
		{"retired ingest mode",
			`{"schema": "grid3.exp/1", "experiments": [{"name": "a", "mode": "ingest", "out": "a.json"}]}`,
			`unknown mode "ingest"`},
		{"retired events knob",
			`{"schema": "grid3.exp/1", "experiments": [
				{"name": "a", "mode": "sweep", "out": "a.json", "knobs": {"events": 5000}}]}`,
			`unknown field "events"`},
		{"axis on wrong mode",
			`{"schema": "grid3.exp/1", "experiments": [
				{"name": "a", "mode": "chaos", "out": "a.json", "axes": {"sites": [27]}}]}`,
			`axis sites does not apply to mode "chaos"`},
		{"recovery on chaos",
			`{"schema": "grid3.exp/1", "experiments": [
				{"name": "a", "mode": "chaos", "out": "a.json", "knobs": {"recovery": true}}]}`,
			`knob recovery does not apply to mode "chaos"`},
		{"workers on scale",
			`{"schema": "grid3.exp/1", "experiments": [
				{"name": "a", "mode": "scale", "out": "a.json", "knobs": {"workers": 4}}]}`,
			`knob workers does not apply to mode "scale"`},
		{"window on data",
			`{"schema": "grid3.exp/1", "experiments": [
				{"name": "a", "mode": "data", "out": "a.json", "knobs": {"window": "5m"}}]}`,
			`unknown field "window"`},
		{"watermark on sweep",
			`{"schema": "grid3.exp/1", "experiments": [
				{"name": "a", "mode": "sweep", "out": "a.json", "knobs": {"watermark": 0.2}}]}`,
			`knob watermark does not apply to mode "sweep"`},
		{"non-positive intensity",
			`{"schema": "grid3.exp/1", "experiments": [
				{"name": "a", "mode": "chaos", "out": "a.json", "axes": {"intensities": [2, 0]}}]}`,
			"intensity 0 is not positive"},
		{"non-positive site count",
			`{"schema": "grid3.exp/1", "experiments": [
				{"name": "a", "mode": "scale", "out": "a.json", "axes": {"sites": [27, -3]}}]}`,
			"site count -3 is not positive"},
		{"negative scale",
			`{"schema": "grid3.exp/1", "experiments": [
				{"name": "a", "mode": "sweep", "out": "a.json", "knobs": {"scale": -1}}]}`,
			"scale -1 is negative"},
		{"negative testbed sites",
			`{"schema": "grid3.exp/1", "experiments": [
				{"name": "a", "mode": "sweep", "out": "a.json", "knobs": {"testbed_sites": -5}}]}`,
			"testbed_sites -5 is negative"},
		{"negative doors",
			`{"schema": "grid3.exp/1", "experiments": [
				{"name": "a", "mode": "data", "out": "a.json", "knobs": {"doors": -1}}]}`,
			"doors -1 is negative"},
		{"negative workers",
			`{"schema": "grid3.exp/1", "experiments": [
				{"name": "a", "mode": "sweep", "out": "a.json", "knobs": {"workers": -3}}]}`,
			"workers -3 is negative"},
		{"watermark out of range",
			`{"schema": "grid3.exp/1", "experiments": [
				{"name": "a", "mode": "data", "out": "a.json", "knobs": {"watermark": 7}}]}`,
			"watermark 7 is outside [0, 1]"},
		{"repeated seed",
			`{"schema": "grid3.exp/1", "experiments": [
				{"name": "a", "mode": "sweep", "out": "a.json", "axes": {"seeds": [1, 1]}}]}`,
			"seed 1 is repeated"},
		{"repeated intensity",
			`{"schema": "grid3.exp/1", "experiments": [
				{"name": "a", "mode": "chaos", "out": "a.json", "axes": {"intensities": [2, 4, 2]}}]}`,
			"intensity 2 is repeated"},
		{"repeated site count",
			`{"schema": "grid3.exp/1", "experiments": [
				{"name": "a", "mode": "scale", "out": "a.json", "axes": {"sites": [27, 100, 27]}}]}`,
			"site count 27 is repeated"},
		{"bad duration",
			`{"schema": "grid3.exp/1", "experiments": [
				{"name": "a", "mode": "sweep", "out": "a.json", "knobs": {"upgrade_at": "2 days"}}]}`,
			`bad duration "2 days"`},
		{"numeric duration",
			`{"schema": "grid3.exp/1", "experiments": [
				{"name": "a", "mode": "sweep", "out": "a.json", "knobs": {"upgrade_at": 86400}}]}`,
			`durations are strings`},
		{"stagger without start",
			`{"schema": "grid3.exp/1", "experiments": [
				{"name": "a", "mode": "sweep", "out": "a.json", "knobs": {"upgrade_stagger": "48h"}}]}`,
			"upgrade_stagger needs upgrade_at"},
		{"renewal without lifetime",
			`{"schema": "grid3.exp/1", "experiments": [
				{"name": "a", "mode": "sweep", "out": "a.json", "knobs": {"cert_renewal": "3h"}}]}`,
			"cert_renewal needs cert_lifetime"},
		{"revoke fraction without lifetime",
			`{"schema": "grid3.exp/1", "experiments": [
				{"name": "a", "mode": "sweep", "out": "a.json", "knobs": {"revoke_fraction": 0.5}}]}`,
			"revoke_fraction needs cert_lifetime"},
		{"revoke fraction out of range",
			`{"schema": "grid3.exp/1", "experiments": [
				{"name": "a", "mode": "sweep", "out": "a.json", "knobs": {"cert_lifetime": "96h", "revoke_fraction": 1.5}}]}`,
			"outside [0, 1]"},
		{"trailing garbage", valid + ` {"second": "object"}`,
			"trailing data"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := Decode(strings.NewReader(tc.spec))
			if err == nil {
				t.Fatalf("accepted: %s", tc.spec)
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("error %q does not mention %q", err, tc.want)
			}
		})
	}
}

// TestNormalize pins the diffable form: wall-clock fields zeroed at any
// depth, deterministic literals untouched, keys sorted, idempotent.
func TestNormalize(t *testing.T) {
	raw := []byte(`{
		"wall_seconds": 12.5,
		"schema": "grid3.scale-sweep/1",
		"points": [
			{"sites": 27, "events_per_second": 99999.9, "goodput": 0.8125, "mallocs": 123456}
		],
		"aggregate": {"gomaxprocs": 16, "jobs": 42}
	}`)
	norm, err := Normalize(raw)
	if err != nil {
		t.Fatal(err)
	}
	var v struct {
		Wall   float64 `json:"wall_seconds"`
		Points []struct {
			EventsPerS float64 `json:"events_per_second"`
			Goodput    float64 `json:"goodput"`
			Mallocs    int     `json:"mallocs"`
		} `json:"points"`
		Agg struct {
			GoMaxProcs int `json:"gomaxprocs"`
			Jobs       int `json:"jobs"`
		} `json:"aggregate"`
	}
	if err := json.Unmarshal(norm, &v); err != nil {
		t.Fatal(err)
	}
	if v.Wall != 0 || v.Points[0].EventsPerS != 0 || v.Points[0].Mallocs != 0 || v.Agg.GoMaxProcs != 0 {
		t.Fatalf("wall-clock fields survived: %s", norm)
	}
	if v.Points[0].Goodput != 0.8125 || v.Agg.Jobs != 42 {
		t.Fatalf("deterministic fields damaged: %s", norm)
	}
	if !bytes.HasSuffix(norm, []byte("\n")) {
		t.Fatal("normalized output is not newline-terminated")
	}
	again, err := Normalize(norm)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(norm, again) {
		t.Fatal("Normalize is not idempotent")
	}
}

// TestRows pins the CSV flattening: dotted sorted paths, wall-clock
// fields dropped rather than zero-padded.
func TestRows(t *testing.T) {
	o := Outcome{Name: "x", Mode: ModeSweep, Raw: []byte(
		`{"b": 2, "a": {"nested": true}, "wall_seconds": 9, "list": ["s", 3]}`)}
	rows, err := Rows(o)
	if err != nil {
		t.Fatal(err)
	}
	var got []string
	for _, r := range rows {
		got = append(got, r.Key+"="+r.Value)
	}
	want := []string{"a.nested=true", "b=2", "list.0=s", "list.1=3"}
	if len(got) != len(want) {
		t.Fatalf("rows %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("rows %v, want %v", got, want)
		}
	}
}

// smokeSpec is a grid small enough for unit tests: one wave-armed sweep
// and one six-site scale point, whose report carries wall-clock keys for
// Normalize to zero.
const smokeSpec = `{
  "schema": "grid3.exp/1",
  "name": "unit",
  "csv": "summary.csv",
  "markdown": "SUMMARY.md",
  "experiments": [
    {"name": "waves", "mode": "sweep", "out": "BENCH_waves.json",
     "axes": {"seeds": [7]},
     "knobs": {"scale": 0.002, "days": 4, "testbed_sites": 6,
               "upgrade_at": "12h", "upgrade_stagger": "12h"}},
    {"name": "scale", "mode": "scale", "out": "BENCH_scale.json",
     "axes": {"sites": [6]},
     "knobs": {"scale": 0.002, "days": 1}}
  ]
}`

// TestRunDeterministic executes the unit grid twice into separate
// directories: every report must normalize to identical bytes, the CSV
// must be byte-identical as written (it carries only deterministic
// fields), and the markdown block must be created with both markers.
func TestRunDeterministic(t *testing.T) {
	spec, err := Decode(strings.NewReader(smokeSpec))
	if err != nil {
		t.Fatal(err)
	}
	dirs := []string{t.TempDir(), t.TempDir()}
	for _, dir := range dirs {
		outcomes, err := Run(spec, RunOptions{OutDir: dir})
		if err != nil {
			t.Fatal(err)
		}
		if len(outcomes) != 2 {
			t.Fatalf("ran %d experiments, want 2", len(outcomes))
		}
		if err := Analyze(spec, outcomes, dir); err != nil {
			t.Fatal(err)
		}
	}
	for _, name := range []string{"BENCH_waves.json", "BENCH_scale.json"} {
		var norm [][]byte
		for _, dir := range dirs {
			raw, err := os.ReadFile(filepath.Join(dir, name))
			if err != nil {
				t.Fatal(err)
			}
			n, err := Normalize(raw)
			if err != nil {
				t.Fatal(err)
			}
			norm = append(norm, n)
		}
		if !bytes.Equal(norm[0], norm[1]) {
			t.Errorf("%s: normalized reports differ across runs", name)
		}
	}
	csvA, err := os.ReadFile(filepath.Join(dirs[0], "summary.csv"))
	if err != nil {
		t.Fatal(err)
	}
	csvB, err := os.ReadFile(filepath.Join(dirs[1], "summary.csv"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(csvA, csvB) {
		t.Error("summary.csv differs across runs")
	}
	if !bytes.Contains(csvA, []byte("waves,sweep,")) {
		t.Errorf("CSV is missing the waves experiment:\n%s", csvA)
	}
	md, err := os.ReadFile(filepath.Join(dirs[0], "SUMMARY.md"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Contains(md, []byte(markerBegin)) || !bytes.Contains(md, []byte(markerEnd)) {
		t.Fatalf("markdown block is missing its markers:\n%s", md)
	}
	if !bytes.Contains(md, []byte("site upgrades")) {
		t.Errorf("markdown headline is missing the upgrade-wave counters:\n%s", md)
	}

	// The waves report must actually carry the wave counters.
	raw, _ := os.ReadFile(filepath.Join(dirs[0], "BENCH_waves.json"))
	var rep struct {
		Runs []struct {
			Waves *struct {
				UpgradedSites int `json:"upgraded_sites"`
			} `json:"waves"`
		} `json:"runs"`
	}
	if err := json.Unmarshal(raw, &rep); err != nil {
		t.Fatal(err)
	}
	if len(rep.Runs) != 1 || rep.Runs[0].Waves == nil || rep.Runs[0].Waves.UpgradedSites == 0 {
		t.Fatalf("waves report carries no upgrade counters: %s", raw)
	}
}

// TestRunOnly pins the subset contract: unknown names refuse, known
// names run just that experiment.
func TestRunOnly(t *testing.T) {
	spec, err := Decode(strings.NewReader(smokeSpec))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Run(spec, RunOptions{OutDir: t.TempDir(), Only: []string{"nope"}}); err == nil ||
		!strings.Contains(err.Error(), `unknown experiment "nope"`) {
		t.Fatalf("unknown -only name not refused: %v", err)
	}
	dir := t.TempDir()
	outcomes, err := Run(spec, RunOptions{OutDir: dir, Only: []string{"scale"}})
	if err != nil {
		t.Fatal(err)
	}
	if len(outcomes) != 1 || outcomes[0].Name != "scale" {
		t.Fatalf("outcomes %+v, want just scale", outcomes)
	}
	if _, err := os.Stat(filepath.Join(dir, "BENCH_waves.json")); !os.IsNotExist(err) {
		t.Fatal("-only scale still wrote the waves report")
	}
}

// TestRewriteMarkdown covers the three file states: absent (created),
// markers present (replaced in place), markers absent (appended).
func TestRewriteMarkdown(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "EXP.md")
	block := markerBegin + "\nv1\n" + markerEnd

	if err := RewriteMarkdown(path, block); err != nil {
		t.Fatal(err)
	}
	got, _ := os.ReadFile(path)
	if !bytes.Contains(got, []byte("v1")) {
		t.Fatalf("create: %s", got)
	}

	block2 := markerBegin + "\nv2\n" + markerEnd
	if err := RewriteMarkdown(path, block2); err != nil {
		t.Fatal(err)
	}
	got, _ = os.ReadFile(path)
	if bytes.Contains(got, []byte("v1")) || !bytes.Contains(got, []byte("v2")) {
		t.Fatalf("replace: %s", got)
	}
	if n := bytes.Count(got, []byte(markerBegin)); n != 1 {
		t.Fatalf("replace left %d begin markers", n)
	}

	plain := filepath.Join(dir, "PLAIN.md")
	if err := os.WriteFile(plain, []byte("# Hand-written intro\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := RewriteMarkdown(plain, block); err != nil {
		t.Fatal(err)
	}
	got, _ = os.ReadFile(plain)
	if !bytes.Contains(got, []byte("Hand-written intro")) || !bytes.Contains(got, []byte("v1")) {
		t.Fatalf("append: %s", got)
	}
}
