package campaign

import (
	"encoding/json"
	"slices"
	"sort"
	"testing"
	"time"
)

// decode unmarshals a report's JSON() output back into a generic map so the
// tests can assert the frozen wire keys, not Go struct shapes.
func decode(t *testing.T, data []byte, err error) map[string]any {
	t.Helper()
	if err != nil {
		t.Fatal(err)
	}
	if len(data) == 0 || data[len(data)-1] != '\n' {
		t.Fatal("report JSON must be newline-terminated")
	}
	var m map[string]any
	if err := json.Unmarshal(data, &m); err != nil {
		t.Fatalf("report JSON does not round-trip: %v\n%s", err, data)
	}
	return m
}

// wantKeys asserts that every frozen key is present at the top level —
// renaming or dropping one is a schema version bump, which these tests
// force to be deliberate.
func wantKeys(t *testing.T, m map[string]any, schema, kind string, keys ...string) {
	t.Helper()
	if got := m["schema"]; got != schema {
		t.Fatalf("schema = %v, want %q", got, schema)
	}
	if got := m["kind"]; got != kind {
		t.Fatalf("kind = %v, want %q", got, kind)
	}
	for _, k := range keys {
		if _, ok := m[k]; !ok {
			t.Errorf("frozen key %q missing", k)
		}
	}
}

func TestSweepReportJSONRoundTrip(t *testing.T) {
	rep := &Report{
		Workers: 2,
		Elapsed: 3 * time.Second,
		Runs: []Result{{
			Seed: 1, Scale: 0.1, Elapsed: time.Second,
			Submitted: 100, Records: 90, Events: 5000,
		}},
		Agg: Aggregate{
			JobsCompleted:  Stat{Min: 90, Mean: 90, Max: 90},
			EfficiencyByVO: map[string]Stat{"usatlas": {Min: 0.9, Mean: 0.9, Max: 0.9}},
		},
	}
	data, err := rep.JSON()
	m := decode(t, data, err)
	wantKeys(t, m, SweepSchema, "grid3-sweep",
		"gomaxprocs", "workers", "wall_seconds", "events_total", "runs", "aggregate")
	agg := m["aggregate"].(map[string]any)
	for _, k := range []string{"jobs_completed", "peak_jobs", "utilization",
		"data_tb_per_day", "support_ftes", "concurrent_vo_sites", "efficiency_by_vo"} {
		if _, ok := agg[k]; !ok {
			t.Errorf("aggregate key %q missing", k)
		}
	}
	run := m["runs"].([]any)[0].(map[string]any)
	for _, k := range []string{"seed", "scale", "elapsed_seconds", "jobs", "records", "events"} {
		if _, ok := run[k]; !ok {
			t.Errorf("run key %q missing", k)
		}
	}
}

func TestChaosReportJSONRoundTrip(t *testing.T) {
	rep := &ChaosReport{
		Scale:          0.05,
		Horizon:        30 * 24 * time.Hour,
		Elapsed:        time.Minute,
		CleanCompleted: map[int64]int{1: 1000},
		Points: []ChaosPoint{{
			Seed: 1, Intensity: 2,
			Baseline: ChaosOutcome{Submitted: 1100, Completed: 900},
			Recovery: ChaosOutcome{Submitted: 1100, Completed: 1000},
		}},
	}
	data, err := rep.JSON()
	m := decode(t, data, err)
	wantKeys(t, m, ChaosSchema, "grid3sim-chaos",
		"scale", "days", "wall_seconds", "clean_completed_by_seed", "points")
	pt := m["points"].([]any)[0].(map[string]any)
	for _, k := range []string{"seed", "intensity", "baseline", "recovery"} {
		if _, ok := pt[k]; !ok {
			t.Errorf("point key %q missing", k)
		}
	}
	base := pt["baseline"].(map[string]any)
	for _, k := range []string{"submitted", "completed", "jobs_lost",
		"completion_rate", "goodput_retention", "incidents"} {
		if _, ok := base[k]; !ok {
			t.Errorf("outcome key %q missing", k)
		}
	}
}

func TestScaleReportJSONRoundTrip(t *testing.T) {
	rep := &ScaleReport{
		Days: 1, JobScale: 0.1, Elapsed: time.Minute,
		Points: []ScalePoint{
			{Sites: 27, Seed: 1, CPUs: 2800, WallSecs: 1.5, Events: 100000,
				Submitted: 500, Completed: 480, Goodput: 0.96},
		},
	}
	data, err := rep.JSON()
	m := decode(t, data, err)
	wantKeys(t, m, ScaleSchema, "grid3sim-scale",
		"gomaxprocs", "days", "job_scale", "wall_seconds", "points")
	pt := m["points"].([]any)[0].(map[string]any)
	want := []string{"alloc_bytes", "completed", "cpus", "events",
		"events_per_second", "goodput", "mallocs", "ns_per_sim_day",
		"seed", "sites", "submitted", "wall_seconds"}
	got := make([]string, 0, len(pt))
	for k := range pt {
		got = append(got, k)
	}
	sort.Strings(got)
	if !slices.Equal(got, want) {
		t.Errorf("point keys = %v, want exactly %v", got, want)
	}
}

func TestDataReportJSONRoundTrip(t *testing.T) {
	rep := &DataReport{
		Days: 30, JobScale: 0.05, Doors: 4, Elapsed: time.Minute,
		MinTBPerDay: 2.1, MeanTBPerDay: 2.5, MaxTBPerDay: 3.0,
		Points: []DataPoint{{
			Seed:     1,
			Baseline: DataOutcome{TBTotal: 60, TBPerDay: 2.0},
			Managed:  DataOutcome{TBTotal: 75, TBPerDay: 2.5},
		}},
	}
	data, err := rep.JSON()
	m := decode(t, data, err)
	wantKeys(t, m, DataSchema, "grid3sim-data",
		"gomaxprocs", "days", "job_scale", "doors", "wall_seconds",
		"managed_tb_per_day_min", "managed_tb_per_day_mean", "managed_tb_per_day_max",
		"points")
	pt := m["points"].([]any)[0].(map[string]any)
	for _, k := range []string{"seed", "baseline", "managed"} {
		if _, ok := pt[k]; !ok {
			t.Errorf("point key %q missing", k)
		}
	}
	managed := pt["managed"].(map[string]any)
	for _, k := range []string{"tb_total", "tb_per_day", "tb_per_day_by_vo",
		"transfers_completed", "transfers_failed"} {
		if _, ok := managed[k]; !ok {
			t.Errorf("outcome key %q missing", k)
		}
	}
}
