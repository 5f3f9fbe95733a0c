package core

import (
	"math"
	"testing"
	"time"

	"grid3/internal/classad"
)

// refreshCEAd forces n's cached CE ad through the in-place TTL refresh.
func refreshCEAd(g *Grid, n *Node) *classad.Ad {
	g.ceAd(n) // build it first if no scan has yet
	n.adCacheAt = g.Eng.Now() - adTTL - 1
	return g.ceAd(n)
}

// The in-place refresh rewrites only the load attributes. After every step
// of a seeded scenario each node's refreshed ad must render exactly as a
// fresh build, so a CE field that becomes dynamic without joining
// glue.SetAdLoad fails here instead of going stale in matchmaking.
func TestCEAdRefreshMatchesFreshBuild(t *testing.T) {
	s, err := NewScenario(quickCfg(5))
	if err != nil {
		t.Fatal(err)
	}
	g := s.Grid
	// A job ranks the refreshed ad as Condor-G does, so the Rank memo the
	// refreshed ad carries from earlier steps must give a fresh ad's value.
	job := classad.NewAd()
	job.Set("Rank", defaultRank)
	for step := time.Duration(1); step <= 12; step++ {
		s.RunUntil(step * 12 * time.Hour)
		for _, name := range g.Order {
			n := g.Nodes[name]
			ad, fresh := refreshCEAd(g, n), g.ce(n).Ad()
			if got, want := ad.String(), fresh.String(); got != want {
				t.Fatalf("%s at %v: refreshed ad\n%s\nfresh ad\n%s", name, g.Eng.Now(), got, want)
			}
			if got, want := classad.Rank(job, ad), classad.Rank(job, fresh); math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("%s at %v: Rank of the refreshed ad %v, of a fresh ad %v", name, g.Eng.Now(), got, want)
			}
		}
	}
}

func TestCEAdRefreshAllocatesNothing(t *testing.T) {
	s, err := NewScenario(quickCfg(5))
	if err != nil {
		t.Fatal(err)
	}
	s.RunUntil(24 * time.Hour)
	g := s.Grid
	n := g.Nodes[g.Order[0]]
	refreshCEAd(g, n)
	if allocs := testing.AllocsPerRun(100, func() { refreshCEAd(g, n) }); allocs != 0 {
		t.Fatalf("refreshing an unchanged CE ad made %v allocations, want 0", allocs)
	}
}
