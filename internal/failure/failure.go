// Package failure injects the Grid3 failure taxonomy into a running
// scenario. §6.1: "Approximately 90% of failures were due to site
// problems: disk filling errors, gatekeeper overloading, or network
// interruptions. For example, we did not handle ACDC's nightly roll over
// of worker nodes gracefully." §6.2: "We saw few random job losses: more
// frequently a disk would fill up or a service would fail and all jobs
// submitted to a site would die."
package failure

import (
	"fmt"
	"sort"
	"time"

	"grid3/internal/batch"
	"grid3/internal/dist"
	"grid3/internal/gram"
	"grid3/internal/gridftp"
	"grid3/internal/obs"
	"grid3/internal/sim"
	"grid3/internal/site"
)

// numKinds is the count of failure kinds, for per-kind counter arrays.
const numKinds = int(RandomLoss) + 1

// Instruments tallies injected incidents and their job kills per failure
// kind. Nil disables.
type Instruments struct {
	Incidents  [numKinds]*obs.Counter
	JobsKilled [numKinds]*obs.Counter
}

// NewInstruments wires failure instruments into an observer; nil in, nil out.
func NewInstruments(o *obs.Observer) *Instruments {
	if o == nil {
		return nil
	}
	in := &Instruments{}
	for k := 0; k < numKinds; k++ {
		name := Kind(k).String()
		in.Incidents[k] = o.Metrics.Counter("failure." + name + ".incidents")
		in.JobsKilled[k] = o.Metrics.Counter("failure." + name + ".jobs_killed")
	}
	return in
}

// Kind classifies injected failures.
type Kind int

// Failure kinds, ordered roughly by the paper's frequency attribution.
const (
	DiskFull Kind = iota
	ServiceFailure
	NetworkOutage
	NightlyRollover
	RandomLoss
)

func (k Kind) String() string {
	switch k {
	case DiskFull:
		return "disk-full"
	case ServiceFailure:
		return "service-failure"
	case NetworkOutage:
		return "network-outage"
	case NightlyRollover:
		return "nightly-rollover"
	case RandomLoss:
		return "random-loss"
	}
	return fmt.Sprintf("Kind(%d)", int(k))
}

// Event records one injected incident.
type Event struct {
	Kind       Kind
	Site       string
	At         time.Duration
	Duration   time.Duration
	JobsKilled int
}

// Target bundles one site's failure surfaces.
type Target struct {
	Site       *site.Site
	Batch      *batch.System
	Gatekeeper *gram.Gatekeeper
}

// Config tunes incident rates. Zero MTBFs disable that class.
type Config struct {
	// DiskFullMTBF is each site's mean time between disk-pressure
	// incidents; the disk stays full for DiskFullDuration.
	DiskFullMTBF     time.Duration
	DiskFullDuration time.Duration
	// ServiceMTBF is each site's mean time between whole-service
	// failures (gatekeeper or batch master crash): all managed jobs die
	// in a group and the site refuses submissions for ServiceDuration.
	ServiceMTBF     time.Duration
	ServiceDuration time.Duration
	// OutageMTBF is each site's mean time between WAN interruptions of
	// OutageDuration.
	OutageMTBF     time.Duration
	OutageDuration time.Duration
	// RolloverSites lists sites with an ACDC-style nightly worker-node
	// rollover draining RolloverFraction of slots for RolloverDuration.
	RolloverSites    []string
	RolloverFraction float64
	RolloverDuration time.Duration
	// RandomLossPerDay is the expected count of individual job kills per
	// site per day ("we saw few random job losses").
	RandomLossPerDay float64
}

// Grid3Defaults approximates the paper's observed failure mix: enough site
// incidents to produce ~30% end-to-end job failure for staged workloads,
// with random losses rare.
func Grid3Defaults() Config {
	return Config{
		DiskFullMTBF:     10 * 24 * time.Hour,
		DiskFullDuration: 8 * time.Hour,
		ServiceMTBF:      14 * 24 * time.Hour,
		ServiceDuration:  6 * time.Hour,
		OutageMTBF:       21 * 24 * time.Hour,
		OutageDuration:   2 * time.Hour,
		RolloverFraction: 0.25,
		RolloverDuration: time.Hour,
		RandomLossPerDay: 0.05,
	}
}

// Scaled returns cfg with incident rates multiplied by intensity: MTBFs
// shrink and the random-loss rate grows by the factor, while incident
// durations stay untouched (a disk takes as long to clear at any failure
// rate). intensity <= 0 or exactly 1 returns cfg unchanged, so 0 can mean
// "default" in sweep configs. Scaled MTBFs are floored at one minute.
func Scaled(cfg Config, intensity float64) Config {
	if intensity <= 0 || intensity == 1 {
		return cfg
	}
	scale := func(d time.Duration) time.Duration {
		if d <= 0 {
			return d
		}
		nd := time.Duration(float64(d) / intensity)
		if nd < time.Minute {
			nd = time.Minute
		}
		return nd
	}
	cfg.DiskFullMTBF = scale(cfg.DiskFullMTBF)
	cfg.ServiceMTBF = scale(cfg.ServiceMTBF)
	cfg.OutageMTBF = scale(cfg.OutageMTBF)
	cfg.RandomLossPerDay *= intensity
	return cfg
}

// Injector drives incidents against registered targets.
type Injector struct {
	eng     *sim.Engine
	rng     *dist.RNG
	cfg     Config
	network *gridftp.Network
	targets map[string]*Target
	events  []Event
	stopped bool
	// Ins enables observability (nil = off). Set before registering targets.
	Ins *Instruments
}

// record appends the incident to the event log and bumps per-kind counters.
func (inj *Injector) record(e Event) {
	inj.events = append(inj.events, e)
	if in := inj.Ins; in != nil {
		in.Incidents[e.Kind].Inc()
		in.JobsKilled[e.Kind].Add(uint64(e.JobsKilled))
	}
}

// New creates an injector. network may be nil to disable WAN outages.
func New(eng *sim.Engine, rng *dist.RNG, cfg Config, network *gridftp.Network) *Injector {
	return &Injector{
		eng: eng, rng: rng, cfg: cfg, network: network,
		targets: make(map[string]*Target),
	}
}

// Register adds a site and arms its incident streams.
func (inj *Injector) Register(t *Target) {
	name := t.Site.Name
	inj.targets[name] = t
	if inj.cfg.DiskFullMTBF > 0 {
		inj.armDiskFull(t)
	}
	if inj.cfg.ServiceMTBF > 0 {
		inj.armService(t)
	}
	if inj.cfg.OutageMTBF > 0 && inj.network != nil {
		inj.armOutage(t)
	}
	if inj.cfg.RandomLossPerDay > 0 {
		inj.armRandomLoss(t)
	}
	for _, s := range inj.cfg.RolloverSites {
		if s == name {
			inj.armRollover(t)
		}
	}
}

// Stop disarms all future incidents (already-scheduled recoveries still run).
func (inj *Injector) Stop() { inj.stopped = true }

// Events returns the incident log.
func (inj *Injector) Events() []Event { return inj.events }

// CountByKind tallies incidents per class.
func (inj *Injector) CountByKind() map[Kind]int {
	out := map[Kind]int{}
	for _, e := range inj.events {
		out[e.Kind]++
	}
	return out
}

// KilledByKind tallies jobs killed per class — the §6.1 failure
// attribution (site problems vs random losses).
func (inj *Injector) KilledByKind() map[Kind]int {
	out := map[Kind]int{}
	for _, e := range inj.events {
		out[e.Kind] += e.JobsKilled
	}
	return out
}

// SiteProblemFraction returns the share of killed jobs attributable to
// site problems (everything except RandomLoss) — the paper reports ~90%.
func (inj *Injector) SiteProblemFraction() float64 {
	byKind := inj.KilledByKind()
	total, random := 0, 0
	for k, n := range byKind {
		total += n
		if k == RandomLoss {
			random += n
		}
	}
	if total == 0 {
		return 0
	}
	return float64(total-random) / float64(total)
}

func (inj *Injector) armDiskFull(t *Target) {
	delay := inj.rng.ExpDuration(inj.cfg.DiskFullMTBF)
	inj.eng.Schedule(delay, func() {
		if inj.stopped {
			return
		}
		inj.diskFull(t)
		inj.armDiskFull(t)
	})
}

// diskFull consumes all free space with a runaway scratch file, kills the
// site's running jobs (their output writes fail), and cleans up after the
// configured duration.
func (inj *Injector) diskFull(t *Target) {
	free := t.Site.Disk.Free()
	name := fmt.Sprintf("runaway-scratch-%d", inj.eng.Now())
	if free > 0 {
		t.Site.Disk.Store(name, free, false)
	}
	killed := t.Batch.KillRunning(nil, batch.NodeFailure)
	inj.record(Event{
		Kind: DiskFull, Site: t.Site.Name, At: inj.eng.Now(),
		Duration: inj.cfg.DiskFullDuration, JobsKilled: killed,
	})
	inj.eng.Schedule(inj.cfg.DiskFullDuration, func() {
		if t.Site.Disk.Has(name) {
			t.Site.Disk.Delete(name)
		}
	})
}

func (inj *Injector) armService(t *Target) {
	delay := inj.rng.ExpDuration(inj.cfg.ServiceMTBF)
	inj.eng.Schedule(delay, func() {
		if inj.stopped {
			return
		}
		inj.serviceFailure(t)
		inj.armService(t)
	})
}

// serviceFailure takes the gatekeeper down: every managed job dies in a
// group, submissions are refused until recovery.
func (inj *Injector) serviceFailure(t *Target) {
	t.Site.SetHealthy(false)
	killed := 0
	if t.Gatekeeper != nil {
		killed = t.Gatekeeper.FailAllManaged("site service failure")
	}
	// Locally-submitted jobs (and anything the gatekeeper does not manage)
	// die with the site services too.
	killed += t.Batch.KillRunning(nil, batch.NodeFailure)
	killed += t.Batch.FlushQueue()
	inj.record(Event{
		Kind: ServiceFailure, Site: t.Site.Name, At: inj.eng.Now(),
		Duration: inj.cfg.ServiceDuration, JobsKilled: killed,
	})
	inj.eng.Schedule(inj.cfg.ServiceDuration, func() {
		t.Site.SetHealthy(true)
	})
}

func (inj *Injector) armOutage(t *Target) {
	delay := inj.rng.ExpDuration(inj.cfg.OutageMTBF)
	inj.eng.Schedule(delay, func() {
		if inj.stopped {
			return
		}
		name := t.Site.Name
		inj.network.SetEndpointUp(name, false)
		inj.record(Event{
			Kind: NetworkOutage, Site: name, At: inj.eng.Now(),
			Duration: inj.cfg.OutageDuration,
		})
		inj.eng.Schedule(inj.cfg.OutageDuration, func() {
			inj.network.SetEndpointUp(name, true)
		})
		inj.armOutage(t)
	})
}

func (inj *Injector) armRollover(t *Target) {
	// Nightly at a site-specific minute past midnight.
	offset := time.Duration(inj.rng.Intn(60)) * time.Minute
	var nightly func()
	nightly = func() {
		if inj.stopped {
			return
		}
		n := int(float64(t.Batch.Slots()) * inj.cfg.RolloverFraction)
		if n < 1 {
			n = 1
		}
		killed := t.Batch.DrainSlots(n)
		inj.record(Event{
			Kind: NightlyRollover, Site: t.Site.Name, At: inj.eng.Now(),
			Duration: inj.cfg.RolloverDuration, JobsKilled: killed,
		})
		inj.eng.Schedule(inj.cfg.RolloverDuration, func() {
			t.Batch.RestoreSlots(n)
		})
		inj.eng.Schedule(24*time.Hour, nightly)
	}
	inj.eng.Schedule(24*time.Hour+offset, nightly)
}

func (inj *Injector) armRandomLoss(t *Target) {
	mtbf := time.Duration(float64(24*time.Hour) / inj.cfg.RandomLossPerDay)
	var next func()
	next = func() {
		if inj.stopped {
			return
		}
		// Kill one arbitrary (deterministically chosen) running job.
		killed := 0
		victimFound := false
		t.Batch.KillRunning(func(j *batch.Job) bool {
			if victimFound {
				return false
			}
			victimFound = true
			return true
		}, batch.NodeFailure)
		if victimFound {
			killed = 1
		}
		inj.record(Event{
			Kind: RandomLoss, Site: t.Site.Name, At: inj.eng.Now(), JobsKilled: killed,
		})
		inj.eng.Schedule(inj.rng.ExpDuration(mtbf), next)
	}
	inj.eng.Schedule(inj.rng.ExpDuration(mtbf), next)
}

// Sites returns registered site names, sorted.
func (inj *Injector) Sites() []string {
	out := make([]string, 0, len(inj.targets))
	for n := range inj.targets {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}
