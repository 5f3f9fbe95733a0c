// Package gram implements the Globus GRAM gatekeeper and jobmanager layer:
// authenticated job submission into a site's local batch system, job state
// polling, cancellation, and the gatekeeper load model the paper quantifies.
//
// §6.4: "a typical gatekeeper using a queue manager will experience a
// sustained one minute load of ~225 when managing ~1000 computational jobs.
// This load can sharply increase when the job submission frequency is high
// ... For computational jobs that only require a minimal amount of
// production node file staging, a factor of two can be applied to the
// sustained load; on the other hand computational jobs requiring a
// substantial amount of file staging the factor can increase to three or
// four." Gatekeeper overloading was one of the three dominant site failure
// classes in §6.1.
package gram

import (
	"errors"
	"fmt"
	"math"
	"sort"
	"strconv"
	"time"

	"grid3/internal/batch"
	"grid3/internal/gsi"
	"grid3/internal/obs"
	"grid3/internal/sim"
	"grid3/internal/site"
)

// Instruments mirrors gatekeeper admission decisions into the metrics
// registry, broken down by rejection cause — the paper's §6.1 failure
// attribution needs exactly this split. Shared across all gatekeepers
// (counters aggregate grid-wide); nil disables.
type Instruments struct {
	Accepted         *obs.Counter
	RejectedInvalid  *obs.Counter
	RejectedDown     *obs.Counter
	RejectedOverload *obs.Counter
	RejectedAuth     *obs.Counter
	RejectedLocal    *obs.Counter
}

// NewInstruments wires gatekeeper counters into an observer; nil in, nil out.
func NewInstruments(o *obs.Observer) *Instruments {
	if o == nil {
		return nil
	}
	return &Instruments{
		Accepted:         o.Metrics.Counter("gram.accepted"),
		RejectedInvalid:  o.Metrics.Counter("gram.rejected.invalid"),
		RejectedDown:     o.Metrics.Counter("gram.rejected.site_down"),
		RejectedOverload: o.Metrics.Counter("gram.rejected.overload"),
		RejectedAuth:     o.Metrics.Counter("gram.rejected.auth"),
		RejectedLocal:    o.Metrics.Counter("gram.rejected.local"),
	}
}

// JobState is the GRAM job state machine (GRAM 1.x states).
type JobState int

// GRAM job states.
const (
	StateUnsubmitted JobState = iota
	StatePending              // accepted, waiting in the local queue
	StateActive               // executing on a worker node
	StateDone                 // completed successfully
	StateFailed               // any unsuccessful terminal state
)

func (s JobState) String() string {
	switch s {
	case StateUnsubmitted:
		return "UNSUBMITTED"
	case StatePending:
		return "PENDING"
	case StateActive:
		return "ACTIVE"
	case StateDone:
		return "DONE"
	case StateFailed:
		return "FAILED"
	}
	return fmt.Sprintf("JobState(%d)", int(s))
}

// Errors.
var (
	ErrNotAuthorized = errors.New("gram: subject not authorized")
	ErrOverloaded    = errors.New("gram: gatekeeper overloaded")
	ErrSiteDown      = errors.New("gram: site services unavailable")
	ErrNoSuchJob     = errors.New("gram: no such job")
	ErrBadSpec       = errors.New("gram: invalid job specification")
)

// Spec is a job submission request (the RSL of GRAM).
type Spec struct {
	Subject    string // certificate identity DN of the submitter
	VO         string
	Executable string
	Walltime   time.Duration
	Runtime    time.Duration // true duration, consumed by the simulation
	Priority   int
	// StagingFactor scales gatekeeper load per §6.4: 1 = minimal staging,
	// 2 = typical, 3-4 = substantial file staging.
	StagingFactor float64
	// Parent is the submit-side lifecycle span this job runs under
	// (0 = untraced); the gatekeeper forwards it to the batch system so
	// the run span links back to the grid job.
	Parent obs.SpanID
}

// Watcher is told of a job's state transitions. Condor-G passes its grid
// job, the record it already keeps per job, so a submission allocates no
// callback. The watcher is an argument of Submit rather than a Spec
// field: the Spec describes the job, and the grid job keeps a copy of it.
type Watcher interface {
	StateChanged(*Job, JobState)
}

// Validate checks the spec.
func (s *Spec) Validate() error {
	switch {
	case s.Subject == "":
		return fmt.Errorf("%w: missing subject", ErrBadSpec)
	case s.VO == "":
		return fmt.Errorf("%w: missing VO", ErrBadSpec)
	case s.Walltime <= 0:
		return fmt.Errorf("%w: missing walltime", ErrBadSpec)
	case s.Runtime <= 0:
		return fmt.Errorf("%w: missing runtime", ErrBadSpec)
	case s.StagingFactor < 0:
		return fmt.Errorf("%w: negative staging factor", ErrBadSpec)
	}
	return nil
}

// Job is one gatekeeper-managed job.
type Job struct {
	ID      string
	Spec    Spec
	State   JobState
	Account string // local account the subject mapped to
	// FailureReason is set when State == StateFailed.
	FailureReason string

	gk      *Gatekeeper
	watcher Watcher
	// activeSlot is the job's index in the gatekeeper's active set plus
	// one; 0 while the job is not PENDING or ACTIVE.
	activeSlot int
}

// Gatekeeper fronts one site's batch system.
type Gatekeeper struct {
	eng     sim.Scheduler
	site    *site.Site
	batch   *batch.System
	gridmap *gsi.Gridmap

	jobs   map[string]*Job
	nextID int64
	// active holds exactly the PENDING/ACTIVE jobs, maintained on state
	// transitions. The load model and the monitoring providers read it
	// instead of scanning the full jobs map, which between PruneTerminal
	// sweeps is dominated by terminal entries — on a 1000-site day that
	// scan was ~25% of total run time.
	active []*Job

	// Load model state: decaying submission-rate estimator.
	submitRate float64 // submissions per minute, exponentially decayed
	rateStamp  time.Duration
	// OverloadThreshold is the 1-minute load above which new submissions
	// fail. Grid3 gatekeepers fell over well past the ~225 sustained
	// point; default 450 (~2000 managed jobs at typical staging).
	OverloadThreshold float64

	// Counters for monitoring.
	accepted, rejected, completed, failed int

	// Ins mirrors admission decisions into the metrics registry; nil
	// (default) disables.
	Ins *Instruments
}

// New creates a gatekeeper for a site and its batch system. The gridmap is
// regenerated externally (by the VOMS sync); pass the site's live map.
func New(eng sim.Scheduler, st *site.Site, bs *batch.System, gridmap *gsi.Gridmap) *Gatekeeper {
	return &Gatekeeper{
		eng:               eng,
		site:              st,
		batch:             bs,
		gridmap:           gridmap,
		jobs:              make(map[string]*Job),
		OverloadThreshold: 450,
	}
}

// Site returns the gatekeeper's site.
func (g *Gatekeeper) Site() *site.Site { return g.site }

// Batch returns the underlying batch system.
func (g *Gatekeeper) Batch() *batch.System { return g.batch }

// ManagedJobs returns the number of jobs in PENDING or ACTIVE state.
func (g *Gatekeeper) ManagedJobs() int { return len(g.active) }

// loadPerJob is the paper's sustained-load coefficient: ~225 of 1-minute
// load per ~1000 managed jobs.
const loadPerJob = 225.0 / 1000.0

// submitSpikeWeight converts submissions-per-minute into load: short
// duration high frequency jobs "sharply increase the gatekeeper loading".
const submitSpikeWeight = 0.5

// Load returns the modeled 1-minute load average: the sustained term
// (managed jobs × staging factor) plus the submission-frequency spike.
func (g *Gatekeeper) Load() float64 {
	g.decayRate()
	sustained := 0.0
	for _, j := range g.active {
		f := j.Spec.StagingFactor
		if f < 1 {
			f = 1
		}
		sustained += loadPerJob * f
	}
	return sustained + submitSpikeWeight*g.submitRate
}

// trackActive and untrackActive maintain the PENDING/ACTIVE set with
// O(1) swap-removal; activeSlot pins each job's slot.
func (g *Gatekeeper) trackActive(j *Job) {
	if j.activeSlot != 0 {
		return
	}
	g.active = append(g.active, j)
	j.activeSlot = len(g.active)
}

func (g *Gatekeeper) untrackActive(j *Job) {
	if j.activeSlot == 0 {
		return
	}
	last := len(g.active) - 1
	k := j.activeSlot - 1
	g.active[k] = g.active[last]
	g.active[k].activeSlot = k + 1
	g.active[last] = nil
	g.active = g.active[:last]
	j.activeSlot = 0
}

// decayRate ages the submission-rate estimator with a one-minute
// exponential window.
func (g *Gatekeeper) decayRate() {
	now := g.eng.Now()
	dt := now - g.rateStamp
	if dt <= 0 {
		return
	}
	g.submitRate *= math.Exp(-float64(dt) / float64(time.Minute))
	g.rateStamp = now
}

// Accepted, Rejected, CompletedCount and FailedCount expose counters for
// monitoring providers.
func (g *Gatekeeper) Accepted() int { return g.accepted }

// Rejected returns the count of refused submissions.
func (g *Gatekeeper) Rejected() int { return g.rejected }

// CompletedCount returns the count of jobs that reached DONE.
func (g *Gatekeeper) CompletedCount() int { return g.completed }

// FailedCount returns the count of jobs that reached FAILED.
func (g *Gatekeeper) FailedCount() int { return g.failed }

// Submit authenticates, authorizes, and enqueues a job. It returns the
// GRAM job (with contact ID) or an error. w, when not nil, is told of
// every state transition of the job.
func (g *Gatekeeper) Submit(spec Spec, w Watcher) (*Job, error) {
	if err := spec.Validate(); err != nil {
		g.rejected++
		if in := g.Ins; in != nil {
			in.RejectedInvalid.Inc()
		}
		return nil, err
	}
	if !g.site.Healthy() {
		g.rejected++
		if in := g.Ins; in != nil {
			in.RejectedDown.Inc()
		}
		return nil, fmt.Errorf("%w: %s", ErrSiteDown, g.site.Name)
	}
	g.decayRate()
	g.submitRate++
	if load := g.Load(); load > g.OverloadThreshold {
		g.rejected++
		if in := g.Ins; in != nil {
			in.RejectedOverload.Inc()
		}
		return nil, fmt.Errorf("%w: load %.0f > %.0f at %s",
			ErrOverloaded, load, g.OverloadThreshold, g.site.Name)
	}
	acct, err := g.gridmap.Lookup(spec.Subject)
	if err != nil {
		g.rejected++
		if in := g.Ins; in != nil {
			in.RejectedAuth.Inc()
		}
		return nil, fmt.Errorf("%w: %s at %s", ErrNotAuthorized, spec.Subject, g.site.Name)
	}
	// The VO must have a group account here, and the mapped account must
	// belong to the claimed VO (prevents VO spoofing in the spec).
	voAcct, err := g.site.Account(spec.VO)
	if err != nil {
		g.rejected++
		if in := g.Ins; in != nil {
			in.RejectedAuth.Inc()
		}
		return nil, fmt.Errorf("%w: VO %s has no account at %s", ErrNotAuthorized, spec.VO, g.site.Name)
	}
	if voAcct != acct {
		g.rejected++
		if in := g.Ins; in != nil {
			in.RejectedAuth.Inc()
		}
		return nil, fmt.Errorf("%w: %s maps to %s, not VO %s's account", ErrNotAuthorized, spec.Subject, acct, spec.VO)
	}

	g.nextID++
	id := contactID(g.site.Host, g.nextID)
	j := &Job{ID: id, Spec: spec, State: StateUnsubmitted, Account: acct, gk: g, watcher: w}

	bj := &batch.Job{
		ID:       id,
		VO:       spec.VO,
		Account:  acct,
		Walltime: spec.Walltime,
		Runtime:  spec.Runtime,
		Priority: spec.Priority,
		Parent:   spec.Parent,
		Owner:    j,
	}
	if err := g.batch.Submit(bj); err != nil {
		g.rejected++
		if in := g.Ins; in != nil {
			in.RejectedLocal.Inc()
		}
		return nil, fmt.Errorf("gram: local submission failed: %w", err)
	}
	g.jobs[id] = j
	g.accepted++
	if in := g.Ins; in != nil {
		in.Accepted.Inc()
	}
	if j.State == StateUnsubmitted {
		// Batch may have started it synchronously (free slot); only move
		// to PENDING if still queued.
		g.transition(j, StatePending)
	}
	return j, nil
}

// contactID is the GRAM contact of the gatekeeper's n-th job on host,
// https://host:2119/n.
func contactID(host string, n int64) string {
	var buf [64]byte
	b := append(buf[:0], "https://"...)
	b = append(b, host...)
	b = append(b, ":2119/"...)
	return string(strconv.AppendInt(b, n, 10))
}

// JobStarted implements batch.Owner: the local job began executing.
func (j *Job) JobStarted(*batch.Job) { j.gk.transition(j, StateActive) }

// JobDone implements batch.Owner: the local job left the batch system.
func (j *Job) JobDone(b *batch.Job) {
	g := j.gk
	if b.Outcome == batch.Completed {
		g.completed++
		g.transition(j, StateDone)
	} else {
		g.failed++
		j.FailureReason = b.Outcome.String()
		g.transition(j, StateFailed)
	}
}

// transition applies a state change, never moving backwards from a
// terminal state, and fires the callback.
func (g *Gatekeeper) transition(j *Job, to JobState) {
	if j.State == StateDone || j.State == StateFailed {
		return
	}
	if to == StatePending && j.State != StateUnsubmitted {
		return // already ACTIVE: don't regress
	}
	j.State = to
	switch to {
	case StatePending, StateActive:
		g.trackActive(j)
	case StateDone, StateFailed:
		g.untrackActive(j)
	}
	if j.watcher != nil {
		j.watcher.StateChanged(j, to)
	}
}

// Poll returns the job's current state.
func (g *Gatekeeper) Poll(id string) (JobState, error) {
	j, ok := g.jobs[id]
	if !ok {
		return StateUnsubmitted, fmt.Errorf("%w: %s", ErrNoSuchJob, id)
	}
	return j.State, nil
}

// Job returns the managed job by contact ID.
func (g *Gatekeeper) Job(id string) (*Job, error) {
	j, ok := g.jobs[id]
	if !ok {
		return nil, fmt.Errorf("%w: %s", ErrNoSuchJob, id)
	}
	return j, nil
}

// Cancel terminates a managed job.
func (g *Gatekeeper) Cancel(id string) error {
	j, ok := g.jobs[id]
	if !ok {
		return fmt.Errorf("%w: %s", ErrNoSuchJob, id)
	}
	if j.State == StateDone || j.State == StateFailed {
		return nil
	}
	return g.batch.Cancel(id)
}

// PruneTerminal drops DONE/FAILED jobs from the managed-job table,
// bounding memory across a 183-day scenario. Polling a pruned contact
// returns ErrNoSuchJob, as a real gatekeeper would after jobmanager exit.
func (g *Gatekeeper) PruneTerminal() int {
	n := 0
	for id, j := range g.jobs {
		if j.State == StateDone || j.State == StateFailed {
			delete(g.jobs, id)
			n++
		}
	}
	return n
}

// FailAllManaged force-fails every non-terminal job: a whole-gatekeeper
// service failure ("jobs often failed ... in groups from site service
// failures", §6.2). Queued and running jobs both die.
func (g *Gatekeeper) FailAllManaged(reason string) int {
	ids := make([]string, 0, len(g.active))
	for _, j := range g.active {
		ids = append(ids, j.ID)
	}
	sort.Strings(ids)
	n := 0
	for _, id := range ids {
		j := g.jobs[id]
		if j.State != StatePending && j.State != StateActive {
			continue // killed as a side effect of an earlier cancel
		}
		g.batch.Cancel(id)
		if j.State != StateFailed {
			// Cancel reports as Cancelled; record as a failure.
			g.failed++
			j.State = StateFailed
			g.untrackActive(j)
		}
		j.FailureReason = reason
		n++
	}
	return n
}
