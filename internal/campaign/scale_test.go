package campaign

import (
	"bytes"
	"strings"
	"testing"
	"time"

	"grid3/internal/core"
)

func TestScaleSweepRunsPoints(t *testing.T) {
	rep, err := ScaleSweep(ScaleSweepConfig{
		SiteCounts: []int{5, 40},
		Seeds:      []int64{1},
		Base: core.ScenarioConfig{
			Horizon:             24 * time.Hour,
			JobScale:            0.02,
			DisableFailures:     true,
			DisableTransferDemo: true,
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Points) != 2 {
		t.Fatalf("got %d points, want 2", len(rep.Points))
	}
	small, large := rep.Points[0], rep.Points[1]
	if small.Sites != 5 || large.Sites != 40 {
		t.Fatalf("point order wrong: %+v", rep.Points)
	}
	if large.CPUs <= small.CPUs {
		t.Errorf("40 sites should have more CPUs than 5: %d vs %d", large.CPUs, small.CPUs)
	}
	for _, pt := range rep.Points {
		if pt.Events == 0 {
			t.Errorf("sites=%d: no events processed", pt.Sites)
		}
		if pt.WallSecs <= 0 {
			t.Errorf("sites=%d: wall time not measured", pt.Sites)
		}
		if pt.Mallocs == 0 {
			t.Errorf("sites=%d: alloc delta not measured", pt.Sites)
		}
	}
	var buf bytes.Buffer
	rep.Write(&buf)
	if !strings.Contains(buf.String(), "Testbed scale sweep") {
		t.Errorf("report header missing:\n%s", buf.String())
	}
}

// TestScaleSweepDefaults: a zero Base horizon runs one simulated day, and
// the report records the horizon and scale the points resolved. (The
// default site counts run up to 1000 sites, too slow for a unit test.)
func TestScaleSweepDefaults(t *testing.T) {
	rep, err := ScaleSweep(ScaleSweepConfig{
		SiteCounts: []int{3},
		Seeds:      []int64{7, 8},
		Base: core.ScenarioConfig{
			JobScale:            0.01,
			DisableFailures:     true,
			DisableTransferDemo: true,
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Points) != 2 {
		t.Fatalf("got %d points, want one per seed", len(rep.Points))
	}
	if rep.Days != 1 || rep.JobScale != 0.01 {
		t.Errorf("report records %d days at scale %g, want 1 day at 0.01", rep.Days, rep.JobScale)
	}
	if rep.Points[0].Seed != 7 || rep.Points[1].Seed != 8 {
		t.Fatalf("seed order wrong: %+v", rep.Points)
	}
}
