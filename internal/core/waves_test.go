package core

import (
	"bytes"
	"testing"
	"time"

	"grid3/internal/vdt"
)

// waveScenario runs a small testbed with the given wave knobs and returns
// the finished scenario plus its rendered exhibits (the byte-determinism
// witness).
func waveScenario(t *testing.T, seed int64, mut func(*ScenarioConfig)) (*Scenario, string) {
	t.Helper()
	cfg := ScenarioConfig{
		Config:   Config{Seed: seed, TestbedSites: 8},
		Horizon:  12 * 24 * time.Hour,
		JobScale: 0.002,
	}
	if mut != nil {
		mut(&cfg)
	}
	s, err := NewScenario(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	s.WriteTable1(&buf)
	s.ComputeMilestones().Write(&buf)
	return s, buf.String()
}

func TestWavesOffByDefault(t *testing.T) {
	s, err := NewScenario(ScenarioConfig{
		Config:   Config{Seed: 1, TestbedSites: 5},
		Horizon:  24 * time.Hour,
		JobScale: 0.001,
	})
	if err != nil {
		t.Fatal(err)
	}
	if s.Upgrade != nil || s.Certs != nil {
		t.Fatal("wave families armed without configuration")
	}
	if !s.WaveStats().Zero() {
		t.Fatalf("zero-config WaveStats not zero: %+v", s.WaveStats())
	}
}

// TestUpgradeWaveRollsOut drives the rolling upgrade to convergence: every
// site ends on the new release, the outages killed work, and the whole
// campaign is byte-deterministic in the seed.
func TestUpgradeWaveRollsOut(t *testing.T) {
	arm := func(c *ScenarioConfig) {
		c.UpgradeWave = UpgradeWaveConfig{Start: 24 * time.Hour, Stagger: 24 * time.Hour}
	}
	s, out1 := waveScenario(t, 7, arm)
	w := s.Upgrade
	if w == nil {
		t.Fatal("upgrade wave not armed")
	}
	if w.SitesUpgraded != len(s.Grid.Order) {
		t.Fatalf("upgraded %d of %d sites", w.SitesUpgraded, len(s.Grid.Order))
	}
	if w.ConvergedAt == 0 {
		t.Fatal("wave never converged")
	}
	if w.CertFailures != 0 {
		t.Fatalf("%d re-certification failures", w.CertFailures)
	}
	for _, name := range s.Grid.Order {
		if !s.Grid.Nodes[name].Site.HasApp("grid3-" + vdt.NextGrid3Version) {
			t.Fatalf("site %s still on the old release", name)
		}
	}
	if w.RestartKills == 0 {
		t.Fatal("reinstall outages killed no jobs (workload too idle to observe the wave)")
	}
	_, out2 := waveScenario(t, 7, arm)
	if out1 != out2 {
		t.Fatal("upgrade-wave run is not byte-deterministic in its seed")
	}
	_, other := waveScenario(t, 8, arm)
	if out1 == other {
		t.Fatal("different seeds produced identical upgrade-wave runs")
	}
}

// TestCertWaveStormsSurface drives the credential lifecycle: expiries land
// on schedule (validated against the real gsi validity windows), renewals
// restore service, and with health armed the storms surface as breaker
// transitions and iGOC tickets.
func TestCertWaveStormsSurface(t *testing.T) {
	arm := func(c *ScenarioConfig) {
		c.Config.EnableHealth = true
		c.CertWave = CertWaveConfig{Lifetime: 72 * time.Hour, RevokeFraction: 0.2}
	}
	s, out1 := waveScenario(t, 11, arm)
	w := s.Certs
	if w == nil {
		t.Fatal("cert wave not armed")
	}
	if w.Expiries == 0 {
		t.Fatal("no credential expiries over four lifetimes")
	}
	if w.Renewals == 0 {
		t.Fatal("no renewals completed")
	}
	if w.Revocations == 0 {
		t.Fatal("no revocations at RevokeFraction 0.2 over four lifetimes")
	}
	// The storms must be visible to fault management: GRAM breakers
	// tripped and the ops desk ticketed at least one site.
	if len(s.Grid.Health.Transitions()) == 0 {
		t.Fatal("health monitor saw no transitions during cert storms")
	}
	if s.Grid.Desk.TicketCount() == 0 {
		t.Fatal("iGOC desk opened no tickets during cert storms")
	}
	_, out2 := waveScenario(t, 11, arm)
	if out1 != out2 {
		t.Fatal("cert-wave run is not byte-deterministic in its seed")
	}
}
