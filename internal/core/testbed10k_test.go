package core

import (
	"grid3/internal/intern"
	"testing"
	"time"
)

// TestTenThousandSiteTestbed is the scale target: a 10k-site testbed
// constructs, and every site is interned with a dense ID in sorted-name
// order. Construction only — a simulated hour at this scale is bench
// territory, not tier-1.
func TestTenThousandSiteTestbed(t *testing.T) {
	if testing.Short() {
		t.Skip("10k-site construction in -short mode")
	}
	s, err := NewScenario(ScenarioConfig{
		Config:   Config{TestbedSites: 10000, Seed: 1},
		JobScale: 0.001,
		Horizon:  time.Hour,
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := len(s.Cfg.Config.Sites); got != 10000 {
		t.Fatalf("testbed generated %d sites, want 10000", got)
	}
	for i, name := range s.Grid.Order {
		id := s.Grid.SiteIDs.ID(name)
		if id == intern.None {
			t.Fatalf("site %q not interned", name)
		}
		if int(id) != i {
			t.Fatalf("site %q has ID %d, want %d (sorted-name order)", name, id, i)
		}
	}
}
