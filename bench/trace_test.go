package main

import (
	"math"
	"os"
	"testing"
)

func parseFile(t *testing.T, path string) attribution {
	t.Helper()
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	a, err := parseTraces(f)
	if err != nil {
		t.Fatal(err)
	}
	return a
}

func near(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

// TestAttributionGolden pins the layer attribution of a hand-written
// `go tool pprof -traces` listing: self time to the innermost grid3 frame
// (even under runtime frames), unmapped grid3 packages and the HTTP client
// to other, the HTTP server loop to serve, and runtime-only stacks to gc.
func TestAttributionGolden(t *testing.T) {
	a := parseFile(t, "testdata/cpu.traces")
	if !near(a.Total, 100e6) {
		t.Fatalf("total = %v ns, want 100ms", a.Total)
	}
	self := map[string]float64{
		"classad": 0.40, "rls": 0.20, "gc": 0.15, "other": 0.15,
		"serve": 0.08, "ingest": 0.02,
	}
	incl := map[string]float64{
		"classad": 0.40, "condorg": 0.40, "sim": 0.60, "rls": 0.20, "core": 0.20,
		"gc": 0.15, "other": 0.15, "apps": 0.10, "serve": 0.08, "ingest": 0.02,
	}
	for _, l := range layers {
		if got := a.Self[l] / a.Total; !near(got, self[l]) {
			t.Errorf("self %s = %.4f, want %.4f", l, got, self[l])
		}
		if got := a.Incl[l] / a.Total; !near(got, incl[l]) {
			t.Errorf("incl %s = %.4f, want %.4f", l, got, incl[l])
		}
	}
}

func TestAttributionAllocUnitsAndLabels(t *testing.T) {
	a := parseFile(t, "testdata/alloc.traces")
	if !near(a.Total, 2<<20) {
		t.Fatalf("total = %v B, want 2 MiB", a.Total)
	}
	if !near(a.Self["classad"], 1.5*(1<<20)) || !near(a.Self["gsi"], 512<<10) || a.Self["sim"] != 0 {
		t.Fatalf("self = %v", a.Self)
	}
}

func TestParseQuantity(t *testing.T) {
	for in, want := range map[string]float64{
		"10ms": 10e6, "1.56s": 1.56e9, "250us": 250e3, "7ns": 7,
		"32B": 32, "62.51MB": 62.51 * (1 << 20), "-4kB": -4096, "1.5GB": 1.5 * (1 << 30), "0": 0,
	} {
		got, err := parseQuantity(in)
		if err != nil || !near(got, want) {
			t.Errorf("parseQuantity(%q) = %v, %v; want %v", in, got, err, want)
		}
	}
	for _, bad := range []string{"ms", "12parsecs", ""} {
		if _, err := parseQuantity(bad); err == nil {
			t.Errorf("parseQuantity(%q) accepted", bad)
		}
	}
}

func TestFrameLayer(t *testing.T) {
	for fn, want := range map[string]string{
		"grid3/internal/condorg.(*Schedd).Negotiate.func1":   "condorg",
		"grid3/internal/ingest.(*Batcher[...]).Add":          "ingest",
		"grid3/internal/dist.(*RNG).Uniform":                 "other",
		"grid3.Handler":                                      "other",
		"grid3/internal/serve.(*Service).handleEnroll.func1": "serve",
		"runtime.gcBgMarkWorker":                             "",
		"main.runBatchRep":                                   "",
		"net/http.(*conn).serve":                             "",
	} {
		if got := frameLayer(fn); got != want {
			t.Errorf("frameLayer(%q) = %q, want %q", fn, got, want)
		}
	}
}
