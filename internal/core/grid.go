package core

import (
	"errors"
	"fmt"
	"hash/fnv"
	"sort"
	"strconv"
	"strings"
	"time"

	"grid3/internal/acdc"
	"grid3/internal/apps"
	"grid3/internal/batch"
	"grid3/internal/classad"
	"grid3/internal/condorg"
	"grid3/internal/dial"
	"grid3/internal/dist"
	"grid3/internal/ganglia"
	"grid3/internal/glue"
	"grid3/internal/goc"
	"grid3/internal/gram"
	"grid3/internal/gridftp"
	"grid3/internal/gsi"
	"grid3/internal/health"
	"grid3/internal/ingest"
	"grid3/internal/intern"
	"grid3/internal/mds"
	"grid3/internal/monalisa"
	"grid3/internal/obs"
	"grid3/internal/pacman"
	"grid3/internal/rls"
	"grid3/internal/sim"
	"grid3/internal/site"
	"grid3/internal/sitecatalog"
	"grid3/internal/srm"
	"grid3/internal/vdt"
	"grid3/internal/vo"
)

// Config tunes a Grid3 instance.
type Config struct {
	// Seed drives all randomness; same seed, same scenario.
	Seed int64
	// Sites is the site catalog; nil means Grid3Sites() (or a generated
	// testbed when TestbedSites is set).
	Sites []SiteSpec
	// TestbedSites, when positive and Sites is nil, builds the catalog
	// with ScaledSites(TestbedSites, Seed): the historical 27 sites up to
	// N=27, catalog plus synthetic sites beyond.
	TestbedSites int
	// MonitorInterval paces Ganglia/MonALISA collection (default 30 m —
	// production used 5 m, but scenario runs consolidate identically).
	MonitorInterval time.Duration
	// NegotiationInterval paces Condor-G matchmaking (default 15 m).
	NegotiationInterval time.Duration
	// UseSRM routes stage-out through SRM space reservations (§8 lesson;
	// off reproduces the paper's raw-GridFTP disk-full failures).
	UseSRM bool
	// DisableAffinity strips site pinning from workloads (the ABL-FED
	// ablation: uniform matchmaking vs favorite resources).
	DisableAffinity bool
	// EnableObservability turns on job-lifecycle tracing and the metrics
	// registry. Off by default: the observability layer publishes registry
	// totals through an extra MonALISA station, so enabling it changes the
	// engine's processed-event count (never the scheduling of sim logic).
	EnableObservability bool
	// EnableHealth arms the health monitor: per-site, per-service circuit
	// breakers fed by periodic probes, with iGOC tickets opened and resolved
	// on breaker transitions. Probes are read-only; scheduling and data
	// paths are unaffected unless EnableRecovery is also set.
	EnableHealth bool
	// EnableRecovery closes the fault-management loop (implies
	// EnableHealth): matchmaking and Pegasus planning skip sites with open
	// breakers, Condor-G steers retries away from sites that already failed
	// a job, stage-in/out transfers get bounded delayed retries, and
	// workflow transfers fail over to alternate RLS replicas. Strictly
	// opt-in: with this off, job routing is byte-identical to a grid built
	// without the health subsystem.
	EnableRecovery bool
	// TransferDoors bounds concurrent GridFTP flows per endpoint, queueing
	// the excess FIFO until a door frees (the gatekeeper-overload analog
	// for data movement). 0 keeps the historical unbounded WAN.
	TransferDoors int
	// EnableReplicaRanking makes Pegasus stage-in pick its replica source
	// by live WAN state — door occupancy, queue depth, allocated bandwidth
	// — instead of the first sorted site. Strictly opt-in.
	EnableReplicaRanking bool
	// EnableStorageCleanup arms the SRM lifecycle loop at every site:
	// stage-out outputs are pinned for a grace period and a periodic sweep
	// evicts unpinned staged files (retracting their LRC entries) whenever
	// free space falls below CleanupWatermark. Strictly opt-in.
	EnableStorageCleanup bool
	// CleanupWatermark is the Free()/Capacity() fraction below which the
	// cleanup sweep evicts (default 0.15).
	CleanupWatermark float64
	// IngestBatch, when positive, arms the per-VO Merkle usage ledger,
	// sealed once per IngestWindow on a clock driven by station metric
	// arrivals (see ingest.go). The value is not a batch size: every
	// monitoring path commits per event either way, and any positive
	// value arms the same ledger. The ledger schedules no engine events
	// and draws no randomness, so runs with it stay byte-identical to
	// runs without. 0 leaves it off.
	IngestBatch int
	// IngestWindow is the ledger's window: it seals one Merkle root of
	// per-VO usage deltas per window. Defaults to MonitorInterval when
	// IngestBatch is set.
	IngestWindow time.Duration
}

func (c *Config) defaults() {
	if c.Sites == nil {
		if c.TestbedSites > 0 {
			c.Sites = ScaledSites(c.TestbedSites, c.Seed)
		} else {
			c.Sites = Grid3Sites()
		}
	}
	if c.MonitorInterval <= 0 {
		c.MonitorInterval = 30 * time.Minute
	}
	if c.NegotiationInterval <= 0 {
		c.NegotiationInterval = 15 * time.Minute
	}
	if c.EnableRecovery {
		c.EnableHealth = true
	}
	if c.CleanupWatermark <= 0 {
		c.CleanupWatermark = 0.15
	}
	if c.IngestBatch > 0 && c.IngestWindow <= 0 {
		c.IngestWindow = c.MonitorInterval
	}
}

// Node bundles one site's full service stack.
type Node struct {
	// ID is the site's dense interned identifier (ascending in sorted
	// site-name order); hot paths index by it instead of hashing Spec.Name.
	ID         intern.ID
	Spec       SiteSpec
	Site       *site.Site
	Batch      *batch.System
	Gatekeeper *gram.Gatekeeper
	Gridmap    *gsi.Gridmap
	// gridmapGen is the registry generation Gridmap equals a fresh
	// GenerateGridmap at, or staleGridmap when it may differ (an outage
	// emptied it).
	gridmapGen int64
	LRC        *rls.LRC
	SRM        *srm.Manager
	GRIS       *mds.GRIS
	Gmetad     *ganglia.Gmetad
	Station    *monalisa.Station

	archQueue []string // archive-file FIFO for tape-migration cleanup
	archBytes int64    // bytes held by archived outputs (not scratch)

	// adCache is the CE ClassAd, built once and refreshed in place after
	// a short virtual interval, mirroring a real Condor collector's
	// refresh period: matchmaking sees at-most-minutes-stale resource
	// state instead of rebuilding the ad for every (job, resource) pair.
	adCache   *classad.Ad
	adCacheAt time.Duration
}

// adTTL is how long a cached CE ad stays fresh (the collector update
// interval of the era).
const adTTL = 5 * time.Minute

// VOStats tracks end-to-end outcomes per VO (the §7 efficiency metric,
// which counts every step: execution, stage-out, registration).
type VOStats struct {
	Submitted        int
	Completed        int
	ExecFailures     int // jobs lost for good after Condor-G retries
	AttemptFailures  int // individual failed attempts, incl. retried ones
	StageOutFailures int // disk-full on archive (the §8 failure class)
	SRMDeferred      int // submissions deferred by denied reservations
	WastedCPU        time.Duration
}

// Efficiency returns attempt-level success, the §6.1 definition: "failures
// are defined as jobs experiencing errors in any processing step that
// prevented perfect completion" — a retried attempt still counts against
// efficiency.
func (s VOStats) Efficiency() float64 {
	total := s.Completed + s.AttemptFailures + s.StageOutFailures
	if total == 0 {
		return 0
	}
	return float64(s.Completed) / float64(total)
}

// Grid is a fully assembled Grid3 instance.
type Grid struct {
	Eng *sim.Engine
	RNG *dist.RNG
	Cfg Config

	CA       *gsi.CA
	Registry *vo.Registry
	Nodes    map[string]*Node
	Order    []string
	// SiteIDs interns site names in sorted-name order, so ascending-ID
	// iteration over nodeList reproduces the historical sorted-string
	// sweeps exactly. nodeList[id] is the node whose Node.ID == id.
	SiteIDs  *intern.Table
	nodeList []*Node
	Network  *gridftp.Network
	RLI      *rls.RLI
	TopGIIS  *mds.GIIS
	VOGIIS   map[string]*mds.GIIS
	Repo     *monalisa.Repository
	Ganglia  *ganglia.Grid
	Catalog  *sitecatalog.Catalog
	Desk     *goc.Desk
	ACDC     *acdc.Monitor
	AUP      *goc.AUP
	Cache    *pacman.Cache
	DIAL     *dial.Catalog
	Schedds  map[string]*condorg.Schedd

	// Obs is the grid's tracer + metrics registry; nil unless
	// Config.EnableObservability is set.
	Obs *obs.Observer

	// Health is the circuit-breaker monitor; nil unless Config.EnableHealth
	// (or EnableRecovery) is set. Every consumer tolerates nil.
	Health *health.Monitor

	// Ledger is the Merkle-audited per-VO usage ledger; nil unless
	// Config.IngestBatch is set. See ingest.go for the window clock that
	// drives its seals.
	Ledger *ingest.Ledger

	// Usage-ledger state (Config.IngestBatch > 0): the previous seal's
	// cumulative totals, the last sealed window, and the window the
	// previous station metric arrived in.
	usagePrev    map[string]usageTotals
	lastSealed   int64
	metricWindow int64

	// Shared per-subsystem instrument bundles, nil when observability is
	// off (every instrumented call site tolerates nil).
	batchIns  *batch.Instruments
	gramIns   *gram.Instruments
	condorIns *condorg.Instruments
	healthIns *health.Instruments

	// opsRNG drives iGOC effort bookkeeping for breaker tickets; retryRNG
	// jitters stage-in/out retry delays. Both are private streams derived
	// from the seed so the recovery loop never perturbs g.RNG.
	opsRNG   *dist.RNG
	retryRNG *dist.RNG
	// healthTickets maps a degraded site to its open breaker ticket;
	// resolvedTickets remembers the last resolved one so a repeat failure
	// reopens it instead of opening a fresh ticket.
	healthTickets   map[string]int
	resolvedTickets map[string]int

	stats map[string]*VOStats
	seq   int64

	// voJobs caches voJobDefaults: each VO's jobs share one walltime
	// clamp, one application path and one job ad template.
	voJobs map[string]*voJobs

	// Concurrency sampling for the §7 peak-jobs and utilization metrics.
	peakRunning    int
	runningSamples int64
	runningSum     int64
	capacitySum    int64
}

// New assembles a Grid3 instance: CA and VOMS servers, 27 sites with their
// full middleware stacks, the WAN, central services, and per-VO Condor-G
// schedds. It performs the §5.1 Pacman/VDT install and certification at
// every site.
func New(cfg Config) (*Grid, error) {
	cfg.defaults()
	g := &Grid{
		Eng:     sim.NewEngine(sim.Grid3Epoch),
		RNG:     dist.New(cfg.Seed),
		Cfg:     cfg,
		Nodes:   make(map[string]*Node),
		Schedds: make(map[string]*condorg.Schedd),
		stats:   make(map[string]*VOStats),
	}
	if cfg.EnableObservability {
		g.Obs = obs.New(g.Eng.Now)
		g.batchIns = batch.NewInstruments(g.Obs)
		g.gramIns = gram.NewInstruments(g.Obs)
		g.condorIns = condorg.NewInstruments(g.Obs)
	}

	// --- Security fabric.
	ca, err := gsi.NewCA("/DC=org/DC=DOEGrids/OU=Certificate Authorities/CN=DOEGrids CA 1",
		sim.Grid3Epoch.Add(-365*24*time.Hour), 10*365*24*time.Hour)
	if err != nil {
		return nil, fmt.Errorf("core: creating CA: %w", err)
	}
	g.CA = ca

	// --- VOMS servers with the Table 1 user populations.
	g.Registry = vo.NewRegistry()
	classes := apps.Grid3Classes()
	for _, voName := range vo.Grid3VOs {
		cred, err := ca.Issue("/DC=org/DC=DOEGrids/OU=Services/CN=voms/"+voName+".grid3.org",
			sim.Grid3Epoch.Add(-24*time.Hour), 2*365*24*time.Hour)
		if err != nil {
			return nil, err
		}
		server := vo.NewVOMS(voName, cred)
		if class, ok := apps.ClassByVO(classes, voName); ok {
			for i, dn := range class.UserDNs() {
				roles := []vo.Role{}
				if i == 0 {
					roles = append(roles, vo.RoleProduction, vo.RoleSoftware)
				}
				if err := server.Add(dn, fmt.Sprintf("%s user %d", voName, i), roles...); err != nil {
					return nil, err
				}
			}
		}
		// Application administrators (~10% of users ran most jobs, §7).
		server.Add(fmt.Sprintf("/DC=org/DC=DOEGrids/OU=People/CN=%s admin", voName),
			voName+" admin", vo.RoleProduction, vo.RoleAdmin)
		g.Registry.Add(server)
	}
	g.AUP = goc.NewAUP(vo.Grid3VOs...)

	// --- Shared fabric and central services.
	g.Network = gridftp.NewNetwork(g.Eng)
	g.Network.Ins = gridftp.NewInstruments(g.Obs)
	g.Network.DefaultDoors = cfg.TransferDoors
	g.RLI = rls.NewRLI(g.Eng)
	g.TopGIIS = mds.NewGIIS("igoc-giis", g.Eng)
	// §5: "registration to a VO-level set of services such as index
	// servers" — per-VO GIISes provide each VO's view of its resources;
	// sites also register directly with the iGOC top-level index, which
	// therefore holds each site exactly once.
	g.VOGIIS = make(map[string]*mds.GIIS)
	for _, voName := range vo.Grid3VOs {
		g.VOGIIS[voName] = mds.NewGIIS(voName+"-giis", g.Eng)
	}
	g.Repo = monalisa.NewRepository(g.Eng)
	g.Ganglia = ganglia.NewGrid()
	g.Catalog = sitecatalog.New(g.Eng, 15*time.Minute)
	g.Desk = goc.NewDesk(g.Eng)
	g.ACDC = acdc.New(g.Eng, sim.Grid3Epoch, 6*time.Hour)
	g.ACDC.Ignore = map[string]bool{LocalVO: true}
	g.Cache = vdt.Grid3Cache()
	g.DIAL = dial.NewCatalog()

	// --- Usage ledger (before sites: stations wire their forward sinks
	// in addSite).
	if cfg.IngestBatch > 0 {
		g.setupIngest()
	}

	// --- Sites.
	for _, spec := range cfg.Sites {
		if err := g.addSite(spec); err != nil {
			return nil, fmt.Errorf("core: site %s: %w", spec.Name, err)
		}
	}
	// Freeze the catalog into dense IDs: sort once (addSite only appends),
	// intern names in sorted order, and build the ID-indexed node list the
	// hot loops iterate instead of Order+map lookups.
	sort.Strings(g.Order)
	g.SiteIDs = intern.FromSorted(g.Order)
	g.nodeList = make([]*Node, len(g.Order))
	for i, name := range g.Order {
		n := g.Nodes[name]
		n.ID = intern.ID(i)
		g.nodeList[i] = n
	}
	// --- Health monitor: one breaker per (site, service), probing the same
	// three services the Site Status Catalog checks. Built before the
	// schedds so matchmaking can consult it.
	if cfg.EnableHealth {
		g.healthIns = health.NewInstruments(g.Obs)
		g.Health = health.NewMonitor(g.Eng, dist.New(cfg.Seed^healthSeedSalt), health.Config{}, g.healthIns)
		for _, n := range g.nodeList {
			st := n.Site
			siteName := n.Spec.Name
			g.Health.Register(siteName, health.GRAM, func() error {
				if !st.Healthy() {
					return errGatekeeperDown
				}
				return nil
			})
			g.Health.Register(siteName, health.GridFTP, func() error {
				ep, err := g.Network.Endpoint(siteName)
				if err != nil || !ep.Up() {
					return errGridFTPDown
				}
				return nil
			})
			g.Health.Register(siteName, health.SRM, func() error {
				if st.Disk.Free() <= 0 {
					return errStorageFull
				}
				return nil
			})
		}
		g.opsRNG = dist.New(cfg.Seed ^ opsSeedSalt)
		g.retryRNG = dist.New(cfg.Seed ^ retrySeedSalt)
		g.healthTickets = make(map[string]int)
		g.resolvedTickets = make(map[string]int)
		g.Health.OnTransition = g.healthTransition
		g.Health.Start()
	}

	// --- Per-VO Condor-G schedds.
	for _, voName := range vo.Grid3VOs {
		sch := condorg.New(g.Eng, cfg.NegotiationInterval)
		sch.MaxMatchesPerCycle = 2000
		sch.Ins = g.condorIns
		// Seeded retry-backoff jitter, one private stream per schedd so a
		// VO's resubmission bursts desynchronize (§6.4 load lesson) without
		// touching the master RNG.
		sch.BackoffJitter = dist.New(cfg.Seed ^ voSeedSalt(voName))
		if cfg.EnableRecovery {
			sch.Exclude = func(site string) bool {
				return !g.Health.Allow(site, health.GRAM)
			}
			sch.AvoidFailedSites = true
		}
		// Each schedd only ever sees the sites that authorize its VO:
		// AddResource in sorted-site order so candidate scans reproduce the
		// historical iteration exactly.
		for _, n := range g.nodeList {
			if !n.Site.SupportsVO(voName) {
				continue
			}
			node := n
			res := &condorg.Resource{
				Name:         n.Spec.Name,
				Gatekeeper:   n.Gatekeeper,
				MaxSubmitted: 2 * n.Batch.Slots(),
				AdFunc:       func() *classad.Ad { return g.ceAd(node) },
			}
			if cfg.EnableRecovery {
				// Per-resource breaker handle: one map lookup at wiring
				// time instead of one per (job, resource) per cycle.
				h := g.Health.HandleFor(n.Spec.Name)
				res.Excluded = func() bool { return !h.Allow(health.GRAM) }
			}
			sch.AddResource(res)
		}
		g.Schedds[voName] = sch
		g.stats[voName] = &VOStats{}
	}

	// --- MonALISA bridge: an iGOC-side station publishing the registry's
	// counter totals into the central repository, so observability data
	// shows up alongside the per-site job and load series.
	if g.Obs != nil {
		station := monalisa.NewStation(g.Eng, "igoc-obs", cfg.MonitorInterval)
		station.AddAgent(&obsBridge{reg: g.Obs.Metrics})
		g.publishMetrics(station)
	}

	// --- Housekeeping: prune terminal gram jobs, migrate archive files.
	sim.NewTicker(g.Eng, 6*time.Hour, func() {
		for _, n := range g.nodeList {
			n.Gatekeeper.PruneTerminal()
			g.migrateToTape(n)
		}
	})
	// Concurrency sampling for milestones.
	sim.NewTicker(g.Eng, 10*time.Minute, g.sampleConcurrency)

	// RLS soft-state republication: every LRC refreshes its RLI
	// publication well inside the 24 h TTL.
	sim.NewTicker(g.Eng, 6*time.Hour, g.PublishRLS)

	// §5.3: grid-mapfiles are regenerated periodically "by calling an EDG
	// script to contact each VO's VOMS server", so membership changes
	// propagate to every gatekeeper within a cycle.
	sim.NewTicker(g.Eng, 6*time.Hour, g.RefreshGridmaps)

	// iGOC operations: the desk reconciles against the Site Status
	// Catalog — a failing site gets a trouble ticket; recovery resolves
	// it with logged effort. This feeds the §7 support-load metric
	// (target <2 FTEs once the infrastructure stabilized).
	openTickets := make(map[string]int)
	sim.NewTicker(g.Eng, time.Hour, func() {
		for _, entry := range g.Catalog.Entries() {
			name := entry.SiteName
			ticketID, open := openTickets[name]
			switch {
			case entry.Status() == sitecatalog.Fail && !open:
				tk := g.Desk.Open(name, g.Nodes[name].Spec.OwnerVO, entry.LastError(), goc.High)
				g.Desk.Assign(tk.ID, name+"-admin")
				openTickets[name] = tk.ID
			case entry.Status() == sitecatalog.Pass && open:
				g.Desk.Resolve(ticketID, g.RNG.Uniform(0.5, 3))
				delete(openTickets, name)
			}
		}
	})

	// Local users on shared (non-dedicated) facilities: >60% of Grid3
	// CPUs were "both shared among Grid3 participants and available to
	// local users" (§7). Their load is what pushes measured utilization
	// into the paper's 40-70% band.
	g.armLocalLoad()

	return g, nil
}

// Probe sentinel errors. The health monitor and the Site Status Catalog
// run these probes every sweep for every site; at 1000-site scale the
// errors.New per failing probe was a steady allocation source, and the
// messages are fixed strings anyway.
var (
	errGatekeeperDown = errors.New("gatekeeper unreachable")
	errGridFTPDown    = errors.New("gridftp endpoint down")
	errStorageFull    = errors.New("storage full")
)

// Seed salts for the private RNG streams the fault-management loop uses.
// Deriving them from the master seed keeps runs reproducible while leaving
// g.RNG's draw sequence untouched by health features.
const (
	healthSeedSalt = 0x6865616c7468 // "health"
	opsSeedSalt    = 0x69676f63     // "igoc"
	retrySeedSalt  = 0x7265747279   // "retry"
)

// voSeedSalt derives a per-VO salt for the schedd backoff-jitter stream.
func voSeedSalt(voName string) int64 {
	h := fnv.New64a()
	h.Write([]byte(voName))
	return int64(h.Sum64())
}

// healthTransition is the iGOC side of the closed loop: breaker state
// changes annotate the Site Status Catalog's status page and drive trouble
// tickets. A site's first open breaker opens a ticket (reopening the prior
// one on a repeat failure); severity reflects blast radius — losing the
// gatekeeper or multiple services strands jobs grid-wide (High), a single
// degraded data service is Medium. When the last breaker recloses, the
// ticket resolves with logged effort.
func (g *Grid) healthTransition(tr health.Transition) {
	open := g.Health.OpenServices(tr.Site)
	note := ""
	if len(open) > 0 {
		names := make([]string, len(open))
		for i, svc := range open {
			names[i] = svc.String()
		}
		note = "breakers open: " + strings.Join(names, ",")
	}
	g.Catalog.SetNote(tr.Site, note)

	switch {
	case tr.To == health.Open:
		sev := goc.Medium
		if !g.Health.Allow(tr.Site, health.GRAM) || len(open) >= 2 {
			sev = goc.High
		}
		summary := fmt.Sprintf("breaker open: %s (%v)", tr.Service, tr.Err)
		if id, isOpen := g.healthTickets[tr.Site]; isOpen {
			// Already ticketed; escalate if the blast radius grew.
			if sev == goc.High {
				g.Desk.Escalate(id, sev)
			}
			return
		}
		if id, wasResolved := g.resolvedTickets[tr.Site]; wasResolved {
			if err := g.Desk.Reopen(id, summary, sev); err == nil {
				delete(g.resolvedTickets, tr.Site)
				g.healthTickets[tr.Site] = id
				return
			}
		}
		owner := ""
		if n := g.Nodes[tr.Site]; n != nil {
			owner = n.Spec.OwnerVO
		}
		tk := g.Desk.Open(tr.Site, owner, summary, sev)
		g.Desk.Assign(tk.ID, tr.Site+"-admin")
		g.healthTickets[tr.Site] = tk.ID
	case tr.To == health.Closed && len(open) == 0:
		if id, isOpen := g.healthTickets[tr.Site]; isOpen {
			g.Desk.Resolve(id, g.opsRNG.Uniform(0.5, 3))
			delete(g.healthTickets, tr.Site)
			g.resolvedTickets[tr.Site] = id
		}
	}
}

// staleGridmap marks a node whose grid-mapfile may differ from a fresh
// GenerateGridmap at any generation; generations themselves are never
// negative.
const staleGridmap int64 = -1

// RefreshGridmaps regenerates every site's grid-mapfile from the current
// VOMS membership (the edg-mkgridmap cron cycle of §5.3). Sites whose map
// was built at the current registry generation already hold exactly what
// a rebuild would produce, so they are skipped.
func (g *Grid) RefreshGridmaps() {
	gen := g.Registry.Generation()
	for _, n := range g.nodeList {
		if n.gridmapGen != gen {
			g.rebuildGridmap(n, gen)
		}
	}
}

// GrantGridmaps brings every site's grid-mapfile up to date after one
// membership change of dn (an enrollment or removal) — the out-of-band
// edg-mkgridmap run. Call it once after each successful change, naming the
// DN that changed. A site that was current one generation ago differs from
// a fresh rebuild at most in dn's own entry, so only that entry is
// rewritten; any other site is rebuilt in full.
func (g *Grid) GrantGridmaps(dn string) {
	gen := g.Registry.Generation()
	for _, n := range g.nodeList {
		switch {
		case n.gridmapGen == gen: // already current
		case n.gridmapGen != staleGridmap && n.gridmapGen == gen-1:
			if acct, ok := g.Registry.AccountFor(dn, n.Spec.Accounts); ok {
				n.Gridmap.Map(dn, acct)
			} else {
				n.Gridmap.Unmap(dn)
			}
			n.gridmapGen = gen
		default:
			g.rebuildGridmap(n, gen)
		}
	}
}

// rebuildGridmap regenerates one site's map in full and records the
// generation it is now current at.
func (g *Grid) rebuildGridmap(n *Node, gen int64) {
	n.Gridmap.ReplaceAll(g.Registry.GenerateGridmap(n.Spec.Accounts))
	n.gridmapGen = gen
}

// LocalVO tags non-grid jobs submitted by a site's local users; they are
// excluded from ACDC's grid accounting but occupy CPUs.
const LocalVO = "local"

// armLocalLoad keeps each shared site's local occupancy near a
// site-specific target fraction.
func (g *Grid) armLocalLoad() {
	for _, n := range g.nodeList {
		if n.Spec.Dedicated {
			continue
		}
		l := &localLoad{g: g, node: n, target: g.RNG.Uniform(0.45, 0.75)}
		sim.NewTicker(g.Eng, 2*time.Hour, l.refill)
	}
}

// localLoad is one shared site's local-user load, and the owner of its
// local batch jobs. Long-lived local jobs model steady campus load
// without flooding the event queue. Tracking *outstanding* (not just
// running) jobs keeps the queue bounded when grid work saturates the
// site.
type localLoad struct {
	g           *Grid
	node        *Node
	target      float64 // fraction of the site's slots to keep busy
	seq         int
	outstanding int // submitted but not yet finished
}

// refill submits local jobs until the outstanding count meets the target.
func (l *localLoad) refill() {
	node := l.node
	want := int(l.target * float64(node.Batch.Slots()))
	for i := l.outstanding; i < want; i++ {
		l.seq++
		runtime := l.g.RNG.ExpDuration(24 * time.Hour)
		if runtime > node.Spec.MaxWall-time.Hour {
			runtime = node.Spec.MaxWall - time.Hour
		}
		err := node.Batch.Submit(&batch.Job{
			ID:       localJobID(node.Spec.Name, l.seq),
			VO:       LocalVO,
			Account:  "localusers",
			Runtime:  runtime,
			Walltime: runtime + time.Hour,
			Owner:    l,
		})
		if err == nil {
			l.outstanding++
		}
	}
}

// JobStarted implements batch.Owner.
func (l *localLoad) JobStarted(*batch.Job) {}

// JobDone implements batch.Owner.
func (l *localLoad) JobDone(*batch.Job) { l.outstanding-- }

// addSite constructs one site's full stack.
func (g *Grid) addSite(spec SiteSpec) error {
	st, err := site.New(spec.Config)
	if err != nil {
		return err
	}
	var policy batch.Policy
	enforce := true
	switch spec.LRMS {
	case glue.Condor:
		policy = batch.FairShare{}
		enforce = false
	case glue.LSF:
		policy = batch.Priority{}
	default:
		policy = batch.FIFO{}
	}
	bs := batch.New(g.Eng, batch.Config{
		Name: spec.Name, Slots: spec.CPUs, Policy: policy,
		EnforceWall: enforce, MaxWall: spec.MaxWall,
	})
	bs.Ins = g.batchIns
	gridmap := g.Registry.GenerateGridmap(spec.Accounts)
	gk := gram.New(g.Eng, st, bs, gridmap)
	gk.Ins = g.gramIns
	g.Network.AddEndpoint(spec.Name, spec.WANMbps)
	lrc := rls.NewLRC(spec.Name)
	srmMgr := srm.New(g.Eng, st.Disk)

	node := &Node{
		Spec: spec, Site: st, Batch: bs, Gatekeeper: gk,
		Gridmap: gridmap, gridmapGen: g.Registry.Generation(), LRC: lrc, SRM: srmMgr,
	}

	if g.Cfg.EnableStorageCleanup {
		// SRM lifecycle loop: the sweep evicts unpinned staged files when
		// the SE runs low, retracting each victim from the site catalog
		// (the RLI catches up through soft state) and returning its bytes
		// to the tape-migration budget.
		srmMgr.OnEvict = func(name string, size int64) {
			lrc.Drop(name)
			node.archBytes -= size
			if node.archBytes < 0 {
				node.archBytes = 0
			}
		}
		if err := srmMgr.EnableCleanup(cleanupInterval, g.Cfg.CleanupWatermark); err != nil {
			return err
		}
	}

	// §5.1: pacman -get Grid3, then the application releases for each VO
	// with a group account here, then certification.
	if err := vdt.InstallGrid3(g.Cache, st); err != nil {
		return err
	}
	for voName, pkg := range appPackages() {
		if st.SupportsVO(voName) {
			if _, err := pacman.Install(g.Cache, vdt.SiteTarget{Site: st}, pkg); err != nil {
				return err
			}
		}
	}
	cert := &vdt.Certification{SiteName: spec.Name, Checks: []vdt.Check{
		{Name: "gram-authenticate", Run: func() error {
			if gridmap.Len() == 0 {
				return errors.New("empty grid-mapfile")
			}
			return nil
		}},
		{Name: "grid3-install", Run: func() error {
			if !st.HasApp("grid3-" + vdt.Grid3Version) {
				return errors.New("grid3 package missing")
			}
			return nil
		}},
	}}
	if err := cert.Certify(); err != nil {
		return err
	}

	// MDS: a GRIS publishing the GLUE CE entry plus Grid3 extensions,
	// registered with the iGOC index under soft state.
	gris := mds.NewGRIS(spec.Name+"-gris", g.Eng)
	gris.AddProvider(mds.ProviderFunc{ID: "ce", Fn: func() []mds.Entry {
		return []mds.Entry{g.ceEntry(node)}
	}})
	// Each site registers with the GIIS of every VO it serves and with
	// the iGOC top-level index (§5.1 registration chain).
	for _, voName := range st.VOs() {
		if idx, ok := g.VOGIIS[voName]; ok {
			idx.Register(gris, 24*365*time.Hour)
		}
	}
	g.TopGIIS.Register(gris, 24*365*time.Hour)
	node.GRIS = gris

	// Ganglia: one gmond per site summarizing the cluster, one gmetad.
	gmond := ganglia.NewGmond(spec.Host)
	gmond.Register("cpu_num", func() float64 {
		if !st.Healthy() {
			return 0
		}
		return float64(bs.AvailableSlots())
	})
	gmond.Register("load_one", func() float64 { return gk.Load() })
	gmond.Register("disk_used_frac", func() float64 { return st.Disk.FillFraction() })
	gmetad := ganglia.NewGmetad(g.Eng, spec.Name, g.Cfg.MonitorInterval)
	gmetad.Watch(gmond)
	g.Ganglia.Add(gmetad)
	node.Gmetad = gmetad

	// MonALISA: a station server with GRAM-log, queue, and Ganglia agents
	// forwarding to the central repository.
	station := monalisa.NewStation(g.Eng, spec.Name, g.Cfg.MonitorInterval)
	station.AddAgent(monalisa.GaugeAgent("grid3.jobs.running", func() float64 {
		return float64(bs.RunningCount())
	}))
	station.AddAgent(monalisa.GaugeAgent("grid3.jobs.queued", func() float64 {
		return float64(bs.QueuedCount())
	}))
	station.AddAgent(monalisa.GaugeAgent("grid3.gram.load", func() float64 {
		return gk.Load()
	}))
	g.publishMetrics(station)
	node.Station = station

	// Site Status Catalog probes (§5.2).
	g.Catalog.Register(spec.Name, spec.Location,
		sitecatalog.Probe{Name: "gram-ping", Run: func() error {
			if !st.Healthy() {
				return errGatekeeperDown
			}
			return nil
		}},
		sitecatalog.Probe{Name: "gridftp-ping", Run: func() error {
			ep, err := g.Network.Endpoint(spec.Name)
			if err != nil || !ep.Up() {
				return errGridFTPDown
			}
			return nil
		}},
		sitecatalog.Probe{Name: "disk-space", Run: func() error {
			if st.Disk.Free() <= 0 {
				return errStorageFull
			}
			return nil
		}},
	)

	// ACDC pulls this site's completion log.
	g.ACDC.Watch(spec.Name, bs)

	// Sites that have not yet joined Grid3 start dark: services down,
	// slots drained, WAN endpoint off. They come alive at JoinAt.
	if spec.JoinAt > 0 {
		st.SetHealthy(false)
		bs.DrainSlots(bs.Slots())
		g.Network.SetEndpointUp(spec.Name, false)
		g.Eng.At(spec.JoinAt, func() {
			st.SetHealthy(true)
			bs.RestoreSlots(bs.Slots())
			g.Network.SetEndpointUp(spec.Name, true)
		})
	}

	g.Nodes[spec.Name] = node
	g.Order = append(g.Order, spec.Name)
	return nil
}

// appPackages maps VO → its application release in the iGOC cache.
func appPackages() map[string]string {
	return map[string]string{
		vo.USATLAS: "atlas-gce",
		vo.USCMS:   "cms-mop",
		vo.LIGO:    "ligo-pulsar",
		vo.SDSS:    "sdss-cluster",
		vo.BTeV:    "btev-mc",
		vo.IVDGL:   "snb",
	}
}

// ceAd renders a node's live computing-element ClassAd. The first call
// builds it; once it is older than adTTL, a call rewrites only the load
// attributes, the one part of g.ce(n) that changes after a node is built.
func (g *Grid) ceAd(n *Node) *classad.Ad {
	now := g.Eng.Now()
	switch {
	case n.adCache == nil:
		n.adCache = g.ce(n).Ad()
	case now-n.adCacheAt > adTTL:
		glue.SetAdLoad(n.adCache, n.Batch.FreeSlots(), n.Batch.RunningCount(), n.Batch.QueuedCount())
	default:
		return n.adCache
	}
	n.adCacheAt = now
	return n.adCache
}

// ce snapshots a node as a GLUE CE.
func (g *Grid) ce(n *Node) *glue.CE {
	return &glue.CE{
		ID:          n.Spec.Host + "/jobmanager-" + string(n.Spec.LRMS),
		SiteName:    n.Spec.Name,
		Host:        n.Spec.Host,
		LRMSType:    n.Spec.LRMS,
		TotalCPUs:   n.Batch.Slots(),
		FreeCPUs:    n.Batch.FreeSlots(),
		RunningJobs: n.Batch.RunningCount(),
		WaitingJobs: n.Batch.QueuedCount(),
		MaxWallTime: n.Spec.MaxWall,
		VOs:         n.Site.VOs(),
		AppDir:      "/share/app",
		DataDir:     "/share/data",
		TmpDir:      "/scratch",
		VDTLocation: "/opt/vdt-" + vdt.VDTVersion,
		OutboundIP:  n.Spec.OutboundIP,
	}
}

// ceEntry renders the MDS entry with Grid3 extensions.
func (g *Grid) ceEntry(n *Node) mds.Entry {
	attrs := g.ce(n).Attributes()
	attrs["Grid3-Owner-VO"] = []string{n.Spec.OwnerVO}
	attrs["Grid3-Disk-Free"] = []string{strconv.FormatInt(n.Site.Disk.Free(), 10)}
	var installed []string
	for app := range n.Site.AppAreas {
		installed = append(installed, app)
	}
	sort.Strings(installed)
	attrs["Grid3-App-Installed"] = installed
	return mds.Entry{DN: "GlueCEUniqueID=" + n.Spec.Host, Attrs: attrs}
}

// Stats returns per-VO end-to-end statistics (live pointer).
func (g *Grid) Stats(voName string) *VOStats {
	s, ok := g.stats[voName]
	if !ok {
		s = &VOStats{}
		g.stats[voName] = s
	}
	return s
}

// PeakRunning returns the largest sampled count of simultaneously running
// jobs (the §7 peak-concurrent-jobs milestone).
func (g *Grid) PeakRunning() int { return g.peakRunning }

// Close is a no-op: a grid starts no goroutines and holds nothing beyond
// its heap. It is kept for callers outside this module, such as the
// benchmark, that release the grids they discard with it.
func (g *Grid) Close() {}

// MeanOnlineCPUs returns the time-averaged in-service slot count — the
// "typical" CPU figure beside the catalog peak.
func (g *Grid) MeanOnlineCPUs() float64 {
	if g.runningSamples == 0 {
		return 0
	}
	return float64(g.capacitySum) / float64(g.runningSamples)
}

// MeanUtilization returns time-averaged running/capacity across samples
// (the §7 percentage-of-resources-used milestone, actual 40-70%).
func (g *Grid) MeanUtilization() float64 {
	if g.capacitySum == 0 {
		return 0
	}
	return float64(g.runningSum) / float64(g.capacitySum)
}

func (g *Grid) sampleConcurrency() {
	gridRunning := 0
	allRunning := 0
	capacity := 0
	for _, n := range g.nodeList {
		r := n.Batch.RunningCount()
		allRunning += r
		gridRunning += r - n.Batch.RunningByVO(LocalVO)
		capacity += n.Batch.AvailableSlots()
	}
	// The §7 peak-concurrent-jobs milestone counts grid jobs only; the
	// utilization milestone reflects total occupancy of the shared
	// facilities (local users included), as the monitoring plots did.
	if gridRunning > g.peakRunning {
		g.peakRunning = gridRunning
	}
	g.runningSamples++
	g.runningSum += int64(allRunning)
	g.capacitySum += int64(capacity)
}

// migrateToTape drains archived outputs once they exceed half the disk,
// oldest first — the Tier1 tape migration that kept Grid3 SEs from filling
// permanently. Budgeting on archive bytes (not raw fill) keeps a transient
// disk-full incident from wiping the archive.
func (g *Grid) migrateToTape(n *Node) {
	disk := n.Site.Disk
	budget := disk.Capacity() / 2
	for n.archBytes > budget && len(n.archQueue) > 0 {
		name := n.archQueue[0]
		n.archQueue = n.archQueue[1:]
		if disk.Has(name) {
			size, _ := disk.Size(name)
			disk.Delete(name)
			n.archBytes -= size
		}
	}
}

// SubmitJob routes a workload request through AUP, the VO's schedd,
// matchmaking, GRAM, and the data path. It implements apps.Submitter.
func (g *Grid) SubmitJob(req apps.Request) {
	g.SubmitJobFunc(req, nil)
}

// SubmitJobFunc is SubmitJob with a completion callback: onDone fires
// exactly once when the job reaches its end-to-end terminal state
// (including stage-out and registration), with nil on success. DAG-driven
// frameworks (MOP) use this to sequence dependent work.
func (g *Grid) SubmitJobFunc(req apps.Request, onDone func(error)) {
	stats := g.Stats(req.VO)
	stats.Submitted++
	if err := g.AUP.Check(req.User, req.VO); err != nil {
		stats.ExecFailures++
		report(onDone, err)
		return
	}
	sch, ok := g.Schedds[req.VO]
	if !ok {
		stats.ExecFailures++
		report(onDone, fmt.Errorf("core: no schedd for VO %s", req.VO))
		return
	}

	// Clamp the walltime request to the largest queue limit any of the
	// VO's sites admits; users sized requests to the queues they used.
	d := g.voJobDefaults(req.VO)
	if d.maxWall > 0 && req.Walltime > d.maxWall {
		req.Walltime = d.maxWall
	}

	preferred := req.Preferred
	if g.Cfg.DisableAffinity {
		preferred = ""
	}
	if preferred != "" {
		if n, ok := g.Nodes[preferred]; !ok || !n.Site.SupportsVO(req.VO) {
			preferred = ""
		}
	}

	// SRM ablation: reserve archive space for the output before running.
	var reservation *srm.Reservation
	if g.Cfg.UseSRM && req.OutputBytes > 0 {
		archive := g.Nodes[ArchiveSiteFor(req.VO)]
		if archive != nil {
			res, err := archive.SRM.Reserve(req.VO, req.OutputBytes, 14*24*time.Hour)
			if err != nil {
				// Fail fast before burning CPU; the production system
				// resubmits when space frees.
				stats.SRMDeferred++
				report(onDone, err)
				return
			}
			reservation = res
		}
	}

	g.seq++
	job := &condorg.GridJob{
		ID:         gridJobID(req.VO, g.seq),
		Ad:         d.ad.Clone(),
		TargetSite: preferred,
		MaxRetries: 2,
		Spec: gram.Spec{
			Subject:       req.User,
			VO:            req.VO,
			Executable:    d.executable,
			Walltime:      req.Walltime,
			Runtime:       req.Runtime,
			Priority:      req.Priority,
			StagingFactor: req.StagingFactor,
		},
	}
	// Root lifecycle span for the job, with a (synchronous) submit child;
	// match/gram-auth/run children hang off job.Span down the stack.
	tr := g.Obs.TracerOf()
	sub := &submission{
		g:           g,
		onDone:      onDone,
		reservation: reservation,
		root:        tr.Begin(obs.KindJob, 0, job.ID, req.VO, ""),
		inputBytes:  req.InputBytes,
		outputBytes: req.OutputBytes,
	}
	job.Span = sub.root
	job.Owner = sub
	span := tr.Begin(obs.KindSubmit, sub.root, job.ID, req.VO, "")
	sch.Submit(job)
	tr.End(span)
}

// report hands a submission's end-to-end outcome to onDone, if set.
func report(onDone func(error), err error) {
	if onDone != nil {
		onDone(err)
	}
}

// submission is what SubmitJobFunc keeps for a queued job besides the
// job's own record: it owns the grid job, and its methods are the job's
// callbacks. It reads the VO, runtime, ID and site from the job it is
// handed, so a job waiting for a site costs this one small record and no
// closures.
type submission struct {
	g           *Grid
	onDone      func(error)
	reservation *srm.Reservation // SRM archive space held for the output
	root        obs.SpanID       // the job's lifecycle span
	inputBytes  int64
	outputBytes int64
}

// JobStarted implements condorg.Owner: each launch stages the input in.
func (s *submission) JobStarted(j *condorg.GridJob) {
	if s.inputBytes > 0 {
		s.g.stageIn(j.Spec.VO, s.inputBytes, j.Site, s.root, j.ID)
	}
}

// JobDone implements condorg.Owner: a job that ran archives its output,
// and one that failed every attempt is counted as wasted.
func (s *submission) JobDone(j *condorg.GridJob, err error) {
	g := s.g
	g.Obs.TracerOf().SetSite(s.root, j.Site)
	stats := g.Stats(j.Spec.VO)
	if err != nil {
		stats.ExecFailures++
		stats.AttemptFailures += j.Attempts
		stats.WastedCPU += j.Spec.Runtime
		if s.reservation != nil {
			g.releaseReservation(j.Spec.VO, s.reservation)
		}
		s.finish(err)
		return
	}
	// Attempts beyond the first were failures that got retried.
	stats.AttemptFailures += j.Attempts - 1
	s.stageOut(j)
}

// finish ends the job's lifecycle span and reports the end-to-end
// outcome.
func (s *submission) finish(err error) {
	tr := s.g.Obs.TracerOf()
	if err != nil {
		tr.Fail(s.root, err.Error())
	} else {
		tr.End(s.root)
	}
	report(s.onDone, err)
}

// defaultRank prefers emptier sites; parsed once (one parse per job
// submission showed up in scenario profiles).
var defaultRank = classad.MustParse("TARGET.FreeCpus - TARGET.WaitingJobs")

// voJobs is what every job of one VO shares. It is computed once per VO:
// the site walltime policies and the VO support matrix are fixed at
// construction, and rescanning every site per submission is the kind of
// linear cost that only shows up at 1000-site scale.
type voJobs struct {
	maxWall    time.Duration // the largest MaxWall among the VO's sites
	executable string        // the VO's application path
	ad         *classad.Ad   // job ad template binding Rank and VO
}

// voJobDefaults returns the VO's shared job defaults.
func (g *Grid) voJobDefaults(voName string) *voJobs {
	if d, ok := g.voJobs[voName]; ok {
		return d
	}
	d := &voJobs{executable: "/share/app/" + voName + "/run", ad: classad.NewAd()}
	for _, n := range g.nodeList {
		if n.Site.SupportsVO(voName) && n.Spec.MaxWall > d.maxWall {
			d.maxWall = n.Spec.MaxWall
		}
	}
	d.ad.Set("Rank", defaultRank)
	d.ad.SetString("VO", voName)
	if g.voJobs == nil {
		g.voJobs = make(map[string]*voJobs)
	}
	g.voJobs[voName] = d
	return d
}

// gridJobID is the schedd-side ID of a grid job: grid3-VO-N with N
// zero-padded to eight digits.
func gridJobID(voName string, seq int64) string {
	var buf [64]byte
	b := append(buf[:0], "grid3-"...)
	b = append(b, voName...)
	b = append(b, '-')
	return string(appendPadded(b, seq, 8))
}

// localJobID is the batch ID of a site's n-th local-user job.
func localJobID(siteName string, n int) string {
	var buf [64]byte
	b := append(buf[:0], "local-"...)
	b = append(b, siteName...)
	b = append(b, '-')
	return string(strconv.AppendInt(b, int64(n), 10))
}

// appendPadded appends the non-negative n in decimal, zero-padded to width
// digits, as fmt's %0*d prints it.
func appendPadded(b []byte, n int64, width int) []byte {
	var digits [20]byte
	d := strconv.AppendInt(digits[:0], n, 10)
	for i := len(d); i < width; i++ {
		b = append(b, '0')
	}
	return append(b, d...)
}

// SRM lifecycle pacing (EnableStorageCleanup only): the cleanup sweep runs
// every cleanupInterval at each SE, and stage-out outputs stay pinned for
// archivePinTTL — long enough to be read back or migrated to tape, short
// enough that abandoned outputs free their space within the run.
const (
	cleanupInterval = 6 * time.Hour
	archivePinTTL   = 7 * 24 * time.Hour
)

// Bounded stage retry schedule (EnableRecovery only): doubling delays from
// stageRetryBase, jittered, up to maxStageRetries attempts beyond the
// first. The sum (~15.5 h) outlasts the longest injected incident class
// (the 8 h disk-full), so a transient outage costs latency, not the job.
const (
	maxStageRetries  = 5
	stageRetryBase   = 30 * time.Minute
	stageRetryJitter = 0.25
)

// stageRetryDelay returns the jittered delay before retry number n (1-based).
func (g *Grid) stageRetryDelay(n int) time.Duration {
	d := stageRetryBase << (n - 1)
	return g.retryRNG.Jitter(d, stageRetryJitter)
}

// stageRetryable reports whether a stage failure is worth a delayed retry:
// recovery must be on, the budget unspent, and the error a transient
// endpoint/storage condition rather than a planning bug.
func (g *Grid) stageRetryable(attempt int, err error) bool {
	if !g.Cfg.EnableRecovery || attempt > maxStageRetries || err == nil {
		return false
	}
	return gridftp.IsEndpointFailure(err) || errors.Is(err, site.ErrDiskFull)
}

// stageIn moves input data from the VO's archive to the execution site.
// With recovery on, a transfer that dies on a downed endpoint is retried on
// the bounded stage schedule.
func (g *Grid) stageIn(voName string, bytes int64, execSite string, parent obs.SpanID, jobID string) {
	archive := ArchiveSiteFor(voName)
	if archive == execSite {
		return
	}
	tr := g.Obs.TracerOf()
	var span obs.SpanID
	if tr.Enabled() {
		span = tr.Begin(obs.KindStageIn, parent, jobID, voName, execSite)
	}
	attempt := 0
	var start func()
	settle := func(err error) {
		if g.stageRetryable(attempt, err) {
			if g.healthIns != nil {
				g.healthIns.StageRetries.Inc()
			}
			g.Eng.Schedule(g.stageRetryDelay(attempt), start)
			return
		}
		if err != nil {
			tr.Fail(span, err.Error())
		} else {
			tr.End(span)
		}
	}
	start = func() {
		attempt++
		if _, err := g.Network.StartTraced(archive, execSite, bytes, voName, span,
			func(_ *gridftp.Transfer, err error) { settle(err) }); err != nil {
			settle(err)
		}
	}
	start()
}

// stageOut archives the job's output: a GridFTP transfer to the Tier1,
// then a write into its storage element (SRM-managed or raw), then RLS
// registration. A raw write into a full disk is the §8 failure class.
func (s *submission) stageOut(j *condorg.GridJob) {
	g, voName, bytes, reservation := s.g, j.Spec.VO, s.outputBytes, s.reservation
	stats := g.Stats(voName)
	if bytes <= 0 {
		stats.Completed++
		s.finish(nil)
		return
	}
	archiveName := ArchiveSiteFor(voName)
	archive := g.Nodes[archiveName]
	lfn := "lfn:" + voName + "/" + j.ID
	tr := g.Obs.TracerOf()
	var span obs.SpanID
	if archive != nil {
		span = tr.Begin(obs.KindStageOut, s.root, j.ID, voName, archiveName)
	}
	// Bounded delayed retries (recovery mode): a transfer killed by a downed
	// endpoint restarts from the execution site's scratch copy, and a raw
	// archive write bounced by a full disk waits out the incident. Retried
	// attempts do not count as stage-out failures — only the final verdict
	// lands in stats.
	retries := 0
	var startTransfer func()
	tryAgain := func(err error, again func()) bool {
		if !g.stageRetryable(retries+1, err) {
			return false
		}
		retries++
		if g.healthIns != nil {
			g.healthIns.StageRetries.Inc()
		}
		g.Eng.Schedule(g.stageRetryDelay(retries), again)
		return true
	}
	var arrive func(transferErr error)
	arrive = func(transferErr error) {
		if transferErr != nil {
			if tryAgain(transferErr, startTransfer) {
				return
			}
			tr.Fail(span, transferErr.Error())
			stats.StageOutFailures++
			stats.WastedCPU += j.Spec.Runtime
			if reservation != nil {
				g.releaseReservation(voName, reservation)
			}
			s.finish(transferErr)
			return
		}
		var err error
		if reservation != nil {
			err = archive.SRM.Put(reservation.ID, lfn, bytes)
			archive.SRM.Release(reservation.ID)
			if err == nil && g.Cfg.EnableStorageCleanup {
				// Fresh outputs get a pin so the cleanup sweep cannot evict
				// them before tape migration or analysis reads them back.
				archive.SRM.Pin(lfn, archivePinTTL)
			}
		} else {
			err = archive.Site.Disk.Store(lfn, bytes, false)
			if err != nil && tryAgain(err, func() { arrive(nil) }) {
				return
			}
		}
		if err != nil {
			tr.Fail(span, err.Error())
			stats.StageOutFailures++
			stats.WastedCPU += j.Spec.Runtime
			s.finish(err)
			return
		}
		archive.archQueue = append(archive.archQueue, lfn)
		archive.archBytes += bytes
		archive.LRC.Add(lfn, "/data/"+voName+"/"+j.ID, bytes)
		// §6.1: "A dataset catalog was created for produced samples,
		// making them available to the DIAL distributed analysis package."
		g.DIAL.Append(voName+".produced", lfn, bytes)
		tr.End(span)
		stats.Completed++
		s.finish(nil)
	}
	if archive == nil {
		stats.Completed++
		s.finish(nil)
		return
	}
	if j.Site == archiveName {
		arrive(nil)
		return
	}
	startTransfer = func() {
		if _, err := g.Network.StartTraced(j.Site, archiveName, bytes, voName, span, func(_ *gridftp.Transfer, err error) {
			arrive(err)
		}); err != nil {
			arrive(err)
		}
	}
	startTransfer()
}

func (g *Grid) releaseReservation(voName string, res *srm.Reservation) {
	if archive := g.Nodes[ArchiveSiteFor(voName)]; archive != nil {
		archive.SRM.Release(res.ID)
	}
}

// StartTransfer implements apps.TransferService for the demonstrator.
func (g *Grid) StartTransfer(src, dst string, bytes int64, label string, done func(error)) {
	_, err := g.Network.Start(src, dst, bytes, label, func(_ *gridftp.Transfer, err error) {
		if done != nil {
			done(err)
		}
	})
	if err != nil && done != nil {
		done(err)
	}
}

// PreferredSitesFor returns the VO's pinning pool: its owned sites first
// (largest first — the Tier1 "favorite resource" leads), then the other
// sites supporting it. Production teams targeted their own facilities
// first but spread assignments across every site with a group account
// (§6.4: "applications tend to favor the resources provided within their
// VO" while still using many sites).
func (g *Grid) PreferredSitesFor(voName string) []string {
	type cand struct {
		name  string
		owned bool
		cpus  int
	}
	var cands []cand
	for _, n := range g.nodeList {
		if !n.Site.SupportsVO(voName) {
			continue
		}
		cands = append(cands, cand{n.Spec.Name, n.Spec.OwnerVO == voName, n.Spec.CPUs})
	}
	sort.Slice(cands, func(i, j int) bool {
		if cands[i].owned != cands[j].owned {
			return cands[i].owned
		}
		if cands[i].cpus != cands[j].cpus {
			return cands[i].cpus > cands[j].cpus
		}
		return cands[i].name < cands[j].name
	})
	out := make([]string, len(cands))
	for i, c := range cands {
		out[i] = c.name
	}
	return out
}

// JobTrace correlates a submit-side job with its execution-side identity —
// the §8 troubleshooting lesson.
type JobTrace struct {
	GridJobID string
	VO        string
	State     string
	Site      string
	Contact   string // GRAM contact URL at the execution site
	Attempts  int
}

// TraceJob finds a grid job by its schedd-side ID across every VO's
// schedd and returns both sides of its identity.
func (g *Grid) TraceJob(id string) (JobTrace, bool) {
	for voName, sch := range g.Schedds {
		if j, ok := sch.Job(id); ok {
			return JobTrace{
				GridJobID: id,
				VO:        voName,
				State:     j.State.String(),
				Site:      j.Site,
				Contact:   j.Contact,
				Attempts:  j.Attempts,
			}, true
		}
	}
	return JobTrace{}, false
}

// SitesSupporting lists sites with a group account for the VO.
func (g *Grid) SitesSupporting(voName string) []string {
	var out []string
	for _, n := range g.nodeList {
		if n.Site.SupportsVO(voName) {
			out = append(out, n.Spec.Name)
		}
	}
	return out
}
