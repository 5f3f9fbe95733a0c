package grid3

import (
	"io"
	"strings"
	"testing"
	"time"

	"grid3/internal/obs"
)

// TestPublicAPI exercises the façade end-to-end: assemble, submit, run,
// observe — the README quickstart, as a test.
func TestPublicAPI(t *testing.T) {
	g, err := New(WithSeed(42))
	if err != nil {
		t.Fatal(err)
	}
	if len(Grid3Sites()) != 27 {
		t.Fatal("catalog size")
	}
	g.SubmitJob(Request{
		ID: "api-1", VO: "usatlas",
		User:     "/DC=org/DC=doegrids/OU=People/CN=usatlas user 00",
		Runtime:  time.Hour,
		Walltime: 2 * time.Hour,
	})
	g.Eng.RunUntil(6 * time.Hour)
	if g.Stats("usatlas").Completed != 1 {
		t.Fatalf("stats = %+v", g.Stats("usatlas"))
	}
}

// TestOptionsCompose pins the functional-options contract: options apply in
// order, later options win, and the struct escape hatches reproduce the
// same configuration as the equivalent option chain.
func TestOptionsCompose(t *testing.T) {
	cfg := buildConfig([]Option{
		WithSeed(7),
		WithSRM(),
		WithMonitorInterval(5 * time.Minute),
		WithNegotiationInterval(10 * time.Minute),
		WithoutAffinity(),
		WithHorizon(24 * time.Hour),
		WithJobScale(0.5),
		WithoutFailures(),
		WithoutTransferDemo(),
	})
	if cfg.Config.Seed != 7 || !cfg.Config.UseSRM || !cfg.Config.DisableAffinity ||
		cfg.Config.MonitorInterval != 5*time.Minute ||
		cfg.Config.NegotiationInterval != 10*time.Minute {
		t.Fatalf("grid options not applied: %+v", cfg.Config)
	}
	if cfg.Horizon != 24*time.Hour || cfg.JobScale != 0.5 || !cfg.DisableFailures ||
		!cfg.DisableTransferDemo {
		t.Fatalf("scenario options not applied: %+v", cfg)
	}

	// Later options override earlier ones.
	if got := buildConfig([]Option{WithSeed(1), WithSeed(2)}); got.Config.Seed != 2 {
		t.Fatalf("later WithSeed lost: %d", got.Config.Seed)
	}

	// The escape hatches replace wholesale, then compose with later options.
	hatch := buildConfig([]Option{
		WithScenarioConfig(ScenarioConfig{Config: Config{Seed: 9}, JobScale: 0.25}),
		WithSRM(),
	})
	if hatch.Config.Seed != 9 || hatch.JobScale != 0.25 || !hatch.Config.UseSRM {
		t.Fatalf("escape hatch broken: %+v", hatch)
	}
	gridHatch := buildConfig([]Option{WithConfig(Config{Seed: 3, UseSRM: true})})
	if gridHatch.Config.Seed != 3 || !gridHatch.Config.UseSRM {
		t.Fatalf("WithConfig broken: %+v", gridHatch.Config)
	}
}

func TestPublicScenario(t *testing.T) {
	if testing.Short() {
		t.Skip("scenario in -short mode")
	}
	s, err := NewScenario(
		WithSeed(2),
		WithHorizon(10*24*time.Hour),
		WithJobScale(0.005),
	)
	if err != nil {
		t.Fatal(err)
	}
	s.Run()
	m := s.ComputeMilestones()
	if m.Users != 102 || m.CPUs < 2500 {
		t.Fatalf("milestones = %+v", m)
	}
}

// TestRunScenarioResultView checks the thin Result view against the
// underlying scenario: same exhibits, no internal types needed.
func TestRunScenarioResultView(t *testing.T) {
	if testing.Short() {
		t.Skip("scenario in -short mode")
	}
	r, err := RunScenario(3, 0.005, WithHorizon(8*24*time.Hour))
	if err != nil {
		t.Fatal(err)
	}
	m := r.Milestones()
	if m.Users != 102 || m.CPUs < 2500 {
		t.Fatalf("milestones view = %+v", m)
	}
	if r.Submitted() <= 0 || r.Records() <= 0 || r.EventsProcessed() == 0 {
		t.Fatalf("counters: submitted %d records %d events %d",
			r.Submitted(), r.Records(), r.EventsProcessed())
	}
	var buf strings.Builder
	r.WriteTable1(&buf)
	if !strings.Contains(buf.String(), "Table 1") {
		t.Fatal("WriteTable1 output missing header")
	}
	buf.Reset()
	r.WriteMilestones(&buf)
	if !strings.Contains(buf.String(), "milestones") {
		t.Fatal("WriteMilestones output missing header")
	}
	if r.Scenario() == nil {
		t.Fatal("Scenario trapdoor is nil")
	}
}

// TestPublicSweep drives the multi-seed façade: runs in seed order at the
// given scale, aggregated stats, and per-seed exhibits.
func TestPublicSweep(t *testing.T) {
	if testing.Short() {
		t.Skip("sweep in -short mode")
	}
	rep, err := Sweep([]int64{11, 12}, 0.005, WithHorizon(8*24*time.Hour))
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Runs) != 2 || rep.Runs[0].Seed != 11 || rep.Runs[1].Seed != 12 {
		t.Fatalf("runs = %+v", rep.Runs)
	}
	for _, run := range rep.Runs {
		if run.Scale != 0.005 {
			t.Fatalf("seed %d ran at scale %g, want 0.005", run.Seed, run.Scale)
		}
	}
	if !strings.Contains(rep.Runs[0].Table1Text, "Table 1") {
		t.Fatalf("seed 11's Table 1:\n%s", rep.Runs[0].Table1Text)
	}
	if m := rep.Runs[1].Milestones; m.Users != 102 {
		t.Fatalf("seed 12's milestones = %+v", m)
	}
	agg := rep.Agg
	if agg.JobsCompleted.Min <= 0 || agg.JobsCompleted.Min > agg.JobsCompleted.Max {
		t.Fatalf("aggregate = %+v", agg.JobsCompleted)
	}
	var buf strings.Builder
	rep.Write(&buf)
	if !strings.Contains(buf.String(), "Campaign sweep: 2 seeds") {
		t.Fatalf("sweep report:\n%s", buf.String())
	}
}

// TestObservabilityOptions pins the option semantics: sinks imply the
// layer, and WithoutObservability wins over earlier enables. (NetLogger
// output comes from WithTracer(NetLoggerSink(w)).)
func TestObservabilityOptions(t *testing.T) {
	cfg := buildConfig([]Option{
		WithTracer(JSONLSink(io.Discard)),
		WithMetricsSink(TextMetricsSink(io.Discard)),
	})
	if !cfg.Config.EnableObservability || len(cfg.TraceSinks) != 1 || len(cfg.MetricsSinks) != 1 {
		t.Fatalf("sink options did not enable observability: %+v", cfg)
	}
	cfg = buildConfig([]Option{
		WithObservability(),
		WithTracer(NetLoggerSink(io.Discard)),
		WithoutObservability(),
	})
	if cfg.Config.EnableObservability || cfg.TraceSinks != nil || cfg.MetricsSinks != nil {
		t.Fatalf("WithoutObservability did not win: %+v", cfg)
	}
}

// TestTracedRunMatchesUntraced is the determinism property: the same seed
// produces byte-identical Table 1 and milestone exhibits whether the run is
// traced or not — the observability layer records the simulation without
// steering it.
func TestTracedRunMatchesUntraced(t *testing.T) {
	if testing.Short() {
		t.Skip("scenario in -short mode")
	}
	exhibits := func(r *Result) (string, string) {
		var t1, ms strings.Builder
		r.WriteTable1(&t1)
		r.WriteMilestones(&ms)
		return t1.String(), ms.String()
	}
	plain, err := RunScenario(5, 0.005, WithHorizon(8*24*time.Hour))
	if err != nil {
		t.Fatal(err)
	}
	traced, err := RunScenario(5, 0.005, WithHorizon(8*24*time.Hour), WithObservability())
	if err != nil {
		t.Fatal(err)
	}
	plainT1, plainMS := exhibits(plain)
	tracedT1, tracedMS := exhibits(traced)
	if plainT1 != tracedT1 {
		t.Fatalf("Table 1 diverged with tracing on:\n--- untraced ---\n%s--- traced ---\n%s", plainT1, tracedT1)
	}
	if plainMS != tracedMS {
		t.Fatalf("milestones diverged with tracing on:\n--- untraced ---\n%s--- traced ---\n%s", plainMS, tracedMS)
	}

	if plain.Trace() != nil || plain.Metrics() != nil {
		t.Fatal("untraced run exposes observability views")
	}
	tr := traced.Trace()
	if tr == nil || tr.Len() == 0 {
		t.Fatal("traced run recorded no spans")
	}

	// At least one completed job carries a full span chain (submit, match,
	// run under the job root), every child inside the root's interval.
	chains := 0
	for _, root := range tr.Roots() {
		if root.Kind != obs.KindJob || !root.Ended() || root.Err != "" {
			continue
		}
		kinds := map[obs.Kind]bool{}
		for _, child := range tr.Children(root.ID) {
			kinds[child.Kind] = true
			if child.Start < root.Start || (child.Ended() && child.End > root.End) {
				t.Fatalf("child span %d outside its root's interval", child.ID)
			}
		}
		if kinds[obs.KindSubmit] && kinds[obs.KindMatch] && kinds[obs.KindRun] {
			chains++
		}
	}
	if chains == 0 {
		t.Fatal("no completed job has a submit+match+run span chain")
	}

	snap := traced.Metrics()
	if snap == nil {
		t.Fatal("traced run has no metrics snapshot")
	}
	stages := snap.StageLatencies()
	if len(stages) == 0 {
		t.Fatal("no stage latency histograms recorded")
	}
}
