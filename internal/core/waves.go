package core

import (
	"errors"
	"time"

	"grid3/internal/batch"
	"grid3/internal/dist"
	"grid3/internal/gsi"
	"grid3/internal/pacman"
	"grid3/internal/sim"
	"grid3/internal/vdt"
)

// Seed salts for the wave families' private RNG streams, following the
// fault-management convention: derived from the master seed so runs stay
// reproducible, private so arming a wave never perturbs g.RNG.
const (
	upgradeSeedSalt = 0x75706772 // "upgr"
	certSeedSalt    = 0x63657274 // "cert"
)

// UpgradeWaveConfig schedules a §5.1 rolling VDT/Pacman upgrade campaign:
// the iGOC cuts a new Grid3 release (vdt.NextGrid3Version) and sites
// reinstall tier by tier while the grid stays in production. Each site's
// reinstall is a short full-service outage (jobs die, submissions bounce),
// and while the fleet is mixed-version, upgraded sites suffer skew-induced
// job losses — old-release pilots landing on new-release services. The
// zero value disables the wave entirely.
type UpgradeWaveConfig struct {
	// Start is the sim time the first tier begins upgrading; zero disables
	// the wave.
	Start time.Duration
	// Stagger separates successive tiers (Tier1 labs first, then Tier2,
	// then the small sites); sites inside a tier spread over the first half
	// of their window. Default 48h.
	Stagger time.Duration
	// Outage is each site's reinstall window, during which its services are
	// down. Default 2h.
	Outage time.Duration
	// SkewLossPerDay is the expected per-upgraded-site rate of version-skew
	// job kills while the fleet is mixed-version. Default 0.5.
	SkewLossPerDay float64
}

// Enabled reports whether the wave is armed.
func (c UpgradeWaveConfig) Enabled() bool { return c.Start > 0 }

var errGrid3Missing = errors.New("grid3 upgrade package missing")

func (c UpgradeWaveConfig) withDefaults() UpgradeWaveConfig {
	if c.Stagger <= 0 {
		c.Stagger = 48 * time.Hour
	}
	if c.Outage <= 0 {
		c.Outage = 2 * time.Hour
	}
	if c.SkewLossPerDay == 0 {
		c.SkewLossPerDay = 0.5
	}
	return c
}

// UpgradeWave is the armed upgrade campaign and its outcome counters.
type UpgradeWave struct {
	g     *Grid
	cfg   UpgradeWaveConfig
	rng   *dist.RNG
	cache *pacman.Cache

	pending int // sites not yet upgraded; 0 = fleet converged

	// SitesUpgraded counts completed per-site reinstalls; RestartKills the
	// jobs lost to the reinstall outages; SkewKills the mixed-version
	// losses; CertFailures re-certifications that failed (expected 0).
	SitesUpgraded int
	RestartKills  int
	SkewKills     int
	CertFailures  int
	// ConvergedAt is when the last site finished (0 while in progress).
	ConvergedAt time.Duration
}

// armUpgradeWave schedules every site's reinstall. Tier rank orders the
// rollout: the release soaks at the Tier1 labs before fanning out, the
// §5.1 discipline. Scheduling iterates nodeList (sorted by name), so the
// draw order — and therefore the whole wave — is deterministic in the seed.
func armUpgradeWave(g *Grid, cfg UpgradeWaveConfig) *UpgradeWave {
	cfg = cfg.withDefaults()
	w := &UpgradeWave{
		g: g, cfg: cfg,
		rng:     dist.New(g.Cfg.Seed ^ upgradeSeedSalt),
		cache:   vdt.UpgradeCache(g.Cache),
		pending: len(g.nodeList),
	}
	// Rank the distinct tiers present (ascending: 1 before 2 before 3).
	rank := map[int]int{}
	for _, n := range g.nodeList {
		rank[n.Spec.Tier] = 0
	}
	tiers := make([]int, 0, len(rank))
	for t := range rank {
		tiers = append(tiers, t)
	}
	for i := 0; i < len(tiers); i++ {
		for j := i + 1; j < len(tiers); j++ {
			if tiers[j] < tiers[i] {
				tiers[i], tiers[j] = tiers[j], tiers[i]
			}
		}
	}
	for i, t := range tiers {
		rank[t] = i
	}
	for _, n := range g.nodeList {
		node := n
		at := cfg.Start + time.Duration(rank[node.Spec.Tier])*cfg.Stagger +
			time.Duration(w.rng.Uniform(0, 0.5*float64(cfg.Stagger)))
		g.Eng.At(at, func() { w.upgrade(node) })
	}
	return w
}

// upgrade performs one site's reinstall: services down, managed jobs dead,
// queue flushed (the §5.1 "drain and reinstall"), then after the outage the
// new release lands via the incremental pacman pull and the site re-certifies
// and returns. A site that has not joined the grid yet upgrades dark — the
// release is staged and it simply joins with the new version, no outage.
func (w *UpgradeWave) upgrade(n *Node) {
	now := w.g.Eng.Now()
	dark := n.Spec.JoinAt > now
	if !dark {
		n.Site.SetHealthy(false)
		killed := n.Gatekeeper.FailAllManaged("vdt upgrade in progress")
		killed += n.Batch.KillRunning(nil, batch.NodeFailure)
		killed += n.Batch.FlushQueue()
		w.RestartKills += killed
	}
	finish := func() {
		if _, err := vdt.InstallUpgrade(w.cache, n.Site); err != nil {
			w.CertFailures++
		}
		cert := &vdt.Certification{SiteName: n.Spec.Name, Checks: []vdt.Check{
			{Name: "grid3-upgrade", Run: func() error {
				if !n.Site.HasApp("grid3-" + vdt.NextGrid3Version) {
					return errGrid3Missing
				}
				return nil
			}},
		}}
		if err := cert.Certify(); err != nil {
			w.CertFailures++
		}
		if !dark && n.Spec.JoinAt <= w.g.Eng.Now() {
			n.Site.SetHealthy(true)
		}
		w.SitesUpgraded++
		w.pending--
		if w.pending == 0 {
			w.ConvergedAt = w.g.Eng.Now()
		}
		w.armSkew(n)
	}
	if dark {
		finish()
		return
	}
	w.g.Eng.Schedule(w.cfg.Outage, finish)
}

// armSkew runs the mixed-version loss stream on an upgraded site: while any
// site still runs the old release, this site's old-release pilots
// occasionally die against its new-release services. The stream ends the
// moment the fleet converges.
func (w *UpgradeWave) armSkew(n *Node) {
	mtbf := time.Duration(float64(24*time.Hour) / w.cfg.SkewLossPerDay)
	var next func()
	next = func() {
		if w.pending == 0 {
			return
		}
		victim := false
		n.Batch.KillRunning(func(j *batch.Job) bool {
			if victim {
				return false
			}
			victim = true
			return true
		}, batch.NodeFailure)
		if victim {
			w.SkewKills++
		}
		w.g.Eng.Schedule(w.rng.ExpDuration(mtbf), next)
	}
	w.g.Eng.Schedule(w.rng.ExpDuration(mtbf), next)
}

// CertWaveConfig schedules GSI host-credential expiry/revocation storms:
// every site's gatekeeper credential carries a short lifetime, and when it
// lapses the site's auth goes dark — remote clients refuse the expired
// host certificate — until a renewed credential lands. With staggered
// issuance the expiries arrive in waves that the health breakers and the
// iGOC ticket desk surface (arm EnableHealth to watch the closed loop).
// The zero value disables the wave.
type CertWaveConfig struct {
	// Lifetime is each site host credential's validity window; zero
	// disables the wave.
	Lifetime time.Duration
	// Spread staggers per-site issuance instants across [0, Spread), so
	// expiries arrive as a storm front rather than one cliff. Default
	// Lifetime/4.
	Spread time.Duration
	// RenewalDelay is the mean outage before a site's renewed credential
	// lands (the admin round-trip to the CA). Default 3h.
	RenewalDelay time.Duration
	// RevokeFraction is the per-cycle probability a site's credential is
	// revoked mid-life (compromise, CRL push) instead of running to its
	// expiry; a revocation outage clears in half the renewal delay because
	// the CA pre-stages the replacement. 0 disables revocations.
	RevokeFraction float64
}

// Enabled reports whether the wave is armed.
func (c CertWaveConfig) Enabled() bool { return c.Lifetime > 0 }

func (c CertWaveConfig) withDefaults() CertWaveConfig {
	if c.Spread <= 0 {
		c.Spread = c.Lifetime / 4
	}
	if c.RenewalDelay <= 0 {
		c.RenewalDelay = 3 * time.Hour
	}
	return c
}

// CertWave is the armed credential-lifecycle campaign and its counters.
type CertWave struct {
	g   *Grid
	cfg CertWaveConfig
	rng *dist.RNG

	// creds holds each site's current host credential, re-issued by the
	// grid CA every renewal; expiry decisions consult the real gsi
	// validity window, not a parallel clock.
	creds map[string]*gsi.Credential

	// Expiries counts scheduled lapses that took a site's auth down;
	// Renewals the completed re-issues; Revocations the mid-life pulls.
	Expiries    int
	Renewals    int
	Revocations int
}

// armCertWave issues every site's short-lived host credential and schedules
// the first lapse. Issuance iterates nodeList (sorted), one private-stream
// draw per site, so the storm schedule is deterministic in the seed.
func armCertWave(g *Grid, cfg CertWaveConfig) (*CertWave, error) {
	cfg = cfg.withDefaults()
	w := &CertWave{
		g: g, cfg: cfg,
		rng:   dist.New(g.Cfg.Seed ^ certSeedSalt),
		creds: make(map[string]*gsi.Credential, len(g.nodeList)),
	}
	for _, n := range g.nodeList {
		node := n
		offset := time.Duration(w.rng.Uniform(0, float64(cfg.Spread)))
		cred, err := g.CA.Issue("/DC=org/DC=DOEGrids/OU=Services/CN=host/"+node.Spec.Host,
			sim.Grid3Epoch, offset+cfg.Lifetime)
		if err != nil {
			return nil, err
		}
		w.creds[node.Spec.Name] = cred
		w.schedule(node, offset+cfg.Lifetime)
	}
	return w, nil
}

// schedule arms one site's next credential event at the given absolute sim
// time: its expiry, or — when the revocation draw fires — an earlier
// mid-life pull.
func (w *CertWave) schedule(n *Node, expiry time.Duration) {
	now := w.g.Eng.Now()
	if w.cfg.RevokeFraction > 0 && w.rng.Bernoulli(w.cfg.RevokeFraction) {
		at := now + time.Duration(w.rng.Uniform(0.2, 0.8)*float64(expiry-now))
		w.g.Eng.At(at, func() { w.outage(n, true) })
		return
	}
	w.g.Eng.At(expiry, func() { w.outage(n, false) })
}

// outage takes the site's auth down. On a plain lapse the real credential
// must actually be expired at the engine's wall clock — the gsi validity
// window is the source of truth, and a still-valid credential means the
// schedule drifted, so the lapse is skipped and re-armed. The gatekeeper's
// grid-mapfile empties for the outage (every DN lookup fails) and the site
// goes unhealthy, which the GRAM probes, the Site Status Catalog, and —
// when armed — the health breakers and iGOC tickets all observe. A renewed
// credential lands after a bounded random delay and service resumes.
func (w *CertWave) outage(n *Node, revoked bool) {
	now := w.g.Eng.Now()
	wall := sim.Grid3Epoch.Add(now)
	cred := w.creds[n.Spec.Name]
	if !revoked {
		if err := cred.Cert.ValidAt(wall); err == nil {
			// Still valid (renewal landed early); check again at its edge.
			w.g.Eng.At(now+w.cfg.Lifetime, func() { w.outage(n, false) })
			return
		}
		w.Expiries++
	} else {
		w.Revocations++
	}
	// Dark sites (pre-JoinAt) renew without an observable outage.
	dark := n.Spec.JoinAt > now
	if !dark {
		n.Site.SetHealthy(false)
		n.Gridmap.ReplaceAll(gsi.NewGridmap())
		n.gridmapGen = staleGridmap
	}
	delay := time.Duration(w.rng.Uniform(0.5, 1.5) * float64(w.cfg.RenewalDelay))
	if revoked {
		delay /= 2
	}
	w.g.Eng.Schedule(delay, func() {
		renewNow := w.g.Eng.Now()
		renewed, err := w.g.CA.Renew(cred, sim.Grid3Epoch.Add(renewNow), w.cfg.Lifetime)
		if err == nil {
			w.creds[n.Spec.Name] = renewed
		}
		if !dark && n.Spec.JoinAt <= renewNow {
			w.g.rebuildGridmap(n, w.g.Registry.Generation())
			n.Site.SetHealthy(true)
		}
		w.Renewals++
		w.schedule(n, renewNow+w.cfg.Lifetime)
	})
}

// WaveStats aggregates both wave families' outcome counters for reports;
// the zero value means neither family was armed.
type WaveStats struct {
	UpgradedSites   int
	UpgradeKills    int // jobs lost to reinstall outages
	SkewKills       int // jobs lost to mixed-version skew
	CertExpiries    int
	CertRenewals    int
	CertRevocations int
}

// Zero reports whether no wave activity occurred (or none was armed).
func (s WaveStats) Zero() bool { return s == WaveStats{} }

// WaveStats returns the scenario's wave-family counters; all zero when
// neither family was configured.
func (s *Scenario) WaveStats() WaveStats {
	var out WaveStats
	if w := s.Upgrade; w != nil {
		out.UpgradedSites = w.SitesUpgraded
		out.UpgradeKills = w.RestartKills
		out.SkewKills = w.SkewKills
	}
	if w := s.Certs; w != nil {
		out.CertExpiries = w.Expiries
		out.CertRenewals = w.Renewals
		out.CertRevocations = w.Revocations
	}
	return out
}
