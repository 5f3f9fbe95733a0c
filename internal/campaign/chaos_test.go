package campaign

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"grid3/internal/core"
)

// TestChaosSweepSmall runs a compact chaos campaign end to end and checks
// the report's structure: one point per (seed, intensity), a clean-run
// denominator, recovery-loop activity at elevated intensity, and per-kind
// detection latency from the outage spans.
func TestChaosSweepSmall(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos campaign in -short mode")
	}
	rep, err := ChaosSweep(ChaosSweepConfig{
		Seeds:       []int64{1},
		Intensities: []float64{1, 6},
		Base:        core.ScenarioConfig{Horizon: 24 * time.Hour, JobScale: 0.03},
		Workers:     4,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Points) != 2 {
		t.Fatalf("points = %d, want 2", len(rep.Points))
	}
	if rep.Scale != 0.03 || rep.Horizon != 24*time.Hour {
		t.Fatalf("report records scale %g over %v, want Base's 0.03 over 24h", rep.Scale, rep.Horizon)
	}
	clean := rep.CleanCompleted[1]
	if clean == 0 {
		t.Fatal("failure-free reference run completed no jobs")
	}
	for _, pt := range rep.Points {
		if pt.Seed != 1 {
			t.Fatalf("point seed = %d, want 1", pt.Seed)
		}
		if pt.Baseline.Submitted == 0 || pt.Recovery.Submitted == 0 {
			t.Fatalf("intensity %g: no jobs submitted", pt.Intensity)
		}
		if pt.Baseline.Incidents == 0 {
			t.Fatalf("intensity %g: no incidents injected in baseline", pt.Intensity)
		}
		if pt.Recovery.GoodputRetention < pt.Baseline.GoodputRetention-0.02 {
			t.Errorf("intensity %g: recovery retention %.3f below baseline %.3f",
				pt.Intensity, pt.Recovery.GoodputRetention, pt.Baseline.GoodputRetention)
		}
		// The baseline has no health monitor: no breakers, no tickets.
		if pt.Baseline.BreakersOpened != 0 || pt.Baseline.Outages != nil {
			t.Errorf("intensity %g: baseline shows health activity", pt.Intensity)
		}
	}

	// At 6x intensity the closed loop must be visibly working.
	hot := rep.Points[1]
	if hot.Intensity != 6 {
		t.Fatalf("points out of input order: second intensity = %g", hot.Intensity)
	}
	r := hot.Recovery
	if r.BreakersOpened == 0 {
		t.Error("no breakers opened at 6x intensity")
	}
	if r.StageRetries == 0 {
		t.Error("no stage retries at 6x intensity")
	}
	if r.TicketsOpened == 0 {
		t.Error("no iGOC tickets at 6x intensity")
	}
	if len(r.Outages) == 0 {
		t.Fatal("no outage latency stats in recovery run")
	}
	detected := 0
	for kind, st := range r.Outages {
		if st.Injected == 0 {
			t.Errorf("kind %q scored with zero injections", kind)
		}
		if st.Detected > 0 {
			detected += st.Detected
			if st.MTTD <= 0 || st.MTTR < st.MTTD {
				t.Errorf("kind %q: implausible latency MTTD=%v MTTR=%v", kind, st.MTTD, st.MTTR)
			}
		}
	}
	if detected == 0 {
		t.Fatal("health monitor detected no injected incidents")
	}

	var b strings.Builder
	rep.Write(&b)
	out := b.String()
	for _, want := range []string{"Chaos sweep: 2 points", "recovery (closed loop)", "MTTD"} {
		if !strings.Contains(out, want) {
			t.Errorf("report missing %q:\n%s", want, out)
		}
	}
}

// TestChaosSweepDeterministic: the same config twice gives identical scores —
// worker-pool placement must not perturb any run.
func TestChaosSweepDeterministic(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos campaign in -short mode")
	}
	cfg := ChaosSweepConfig{
		Seeds:       []int64{2},
		Intensities: []float64{3},
		Base:        core.ScenarioConfig{Horizon: 24 * time.Hour, JobScale: 0.02},
	}
	a, err := ChaosSweep(cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Workers = 1
	b, err := ChaosSweep(cfg)
	if err != nil {
		t.Fatal(err)
	}
	pa, pb := a.Points[0], b.Points[0]
	// ChaosOutcome embeds a map, so the struct is not ==-comparable; a
	// rendered %+v covers every field including the map contents.
	if ra, rb := fmt.Sprintf("%+v", pa.Baseline), fmt.Sprintf("%+v", pb.Baseline); ra != rb {
		t.Errorf("baseline outcomes diverged:\n%s\n%s", ra, rb)
	}
	if ra, rb := fmt.Sprintf("%+v", pa.Recovery), fmt.Sprintf("%+v", pb.Recovery); ra != rb {
		t.Errorf("recovery outcomes diverged:\n%s\n%s", ra, rb)
	}
}
