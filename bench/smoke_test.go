package main

import (
	"bytes"
	"encoding/json"
	"os"
	"strings"
	"testing"
	"time"
)

// smoke runs every workload at its smoke size through the same entry point
// the command uses and returns the final report line.
func smoke(t *testing.T, traceDir string) report {
	t.Helper()
	var out bytes.Buffer
	o := options{seed: 3, seconds: 400 * time.Millisecond, traceDir: traceDir, smoke: true, log: &out}
	code, err := run("", 1, o, &out)
	if err != nil {
		t.Fatalf("run: %v\n%s", err, out.String())
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var rep report
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &rep); err != nil {
		t.Fatalf("last line is not the report: %v\n%s", err, out.String())
	}
	if code != 0 || !rep.Correct || rep.Failed != 0 || rep.Attempted < len(workloads) {
		t.Fatalf("exit %d, report %+v\n%s", code, rep, out.String())
	}
	return rep
}

// TestSmoke runs all five workloads untraced and traced at tiny sizes and
// checks that each prints exactly its declared metrics, correctly.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	for _, c := range []struct {
		traceDir string
		specs    []metricSpec
	}{
		{"", endToEnd},
		{t.TempDir(), perLayer},
	} {
		rep := smoke(t, c.traceDir)
		if len(rep.Metrics) != len(workloads)*len(c.specs) {
			t.Errorf("traced=%v: %d metrics, want %d", c.traceDir != "", len(rep.Metrics), len(workloads)*len(c.specs))
		}
		for _, w := range workloads {
			for _, s := range c.specs {
				m, ok := rep.Metrics[w.name+"."+s.Name]
				if !ok || m.Unit != s.Unit {
					t.Errorf("%s.%s = %+v, %v", w.name, s.Name, m, ok)
				}
			}
			if c.traceDir == "" {
				for _, s := range endToEnd {
					if rep.Metrics[w.name+"."+s.Name].Value <= 0 {
						t.Errorf("%s.%s is not positive", w.name, s.Name)
					}
				}
				continue
			}
			if _, err := os.Stat(c.traceDir + "/" + w.name + ".spans.jsonl"); err != nil {
				t.Errorf("no spans for %s: %v", w.name, err)
			}
		}
	}
}

// TestBenchmarkJSONMatches keeps the repository's BENCHMARK.json in step
// with the workloads and metrics the command prints.
func TestBenchmarkJSONMatches(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skip("no BENCHMARK.json next to the benchmark")
	}
	var b struct {
		Workloads []struct{ Name, Why string }
		EndToEnd  []metricSpec `json:"end_to_end"`
		PerLayer  []metricSpec `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	if len(b.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the command has %d", len(b.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if b.Workloads[i].Name != w.name || b.Workloads[i].Why != w.why {
			t.Errorf("workload %d: BENCHMARK.json has %+v, the command %q: %q", i, b.Workloads[i], w.name, w.why)
		}
	}
	for _, c := range []struct {
		name      string
		got, want []metricSpec
	}{{"end_to_end", b.EndToEnd, endToEnd}, {"per_layer", b.PerLayer, perLayer}} {
		if len(c.got) != len(c.want) {
			t.Errorf("%s: %d metrics, the command prints %d", c.name, len(c.got), len(c.want))
			continue
		}
		for i := range c.want {
			if c.got[i] != c.want[i] {
				t.Errorf("%s[%d] = %+v, the command prints %+v", c.name, i, c.got[i], c.want[i])
			}
		}
	}
}
