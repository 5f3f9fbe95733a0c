package core

import (
	"sort"
	"testing"
	"time"
)

// TestTenThousandSiteTestbed is the scale target: a 10k-site testbed
// constructs, its site order is sorted, and the node list the hot loops
// iterate follows that order. Construction only — a simulated hour at
// this scale is bench territory, not tier-1.
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
	g := s.Grid
	if !sort.StringsAreSorted(g.Order) {
		t.Fatal("site order is not sorted by name")
	}
	if len(g.nodeList) != len(g.Order) {
		t.Fatalf("node list has %d nodes for %d sites", len(g.nodeList), len(g.Order))
	}
	for i, name := range g.Order {
		if g.nodeList[i] != g.Nodes[name] {
			t.Fatalf("nodeList[%d] is not the node of %q", i, name)
		}
	}
}
