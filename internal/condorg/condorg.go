// Package condorg implements Condor-G: a grid job queue (schedd) that
// matches job ClassAds against resource ClassAds and manages execution
// through remote GRAM gatekeepers, with per-resource GridManager throttles
// and retry on grid-level failures.
//
// "CMS Production jobs are specified by ... converting them to DAGs
// suitable for submission to Condor-G/DAGMan" (§4.2); computer science
// groups provided "Globus client libraries, Condor-G, RLS" as the common
// application middleware (§4.7).
package condorg

import (
	"errors"
	"fmt"
	"sort"
	"time"

	"grid3/internal/classad"
	"grid3/internal/dist"
	"grid3/internal/gram"
	"grid3/internal/obs"
	"grid3/internal/sim"
)

// Instruments is the schedd's observability wiring: match and gram-auth
// spans for the per-job lifecycle trace plus registry counters. A nil
// *Instruments (the default) disables all of it at the cost of one branch.
type Instruments struct {
	Tracer        *obs.Tracer
	Submitted     *obs.Counter
	Completed     *obs.Counter
	Held          *obs.Counter
	MatchFailures *obs.Counter
	// PinFallbacks counts planned (site-pinned) jobs that fell back to full
	// matchmaking because their target's health breaker was open.
	PinFallbacks *obs.Counter
	// CyclePlacements is the number of jobs actually launched per
	// negotiation cycle — the negotiator's effective throughput.
	CyclePlacements *obs.Histogram
}

// NewInstruments wires instruments into an observer; nil in, nil out.
func NewInstruments(o *obs.Observer) *Instruments {
	if o == nil {
		return nil
	}
	return &Instruments{
		Tracer:        o.Tracer,
		Submitted:     o.Metrics.Counter("condorg.submitted"),
		Completed:     o.Metrics.Counter("condorg.completed"),
		Held:          o.Metrics.Counter("condorg.held"),
		MatchFailures: o.Metrics.Counter("condorg.match_failures"),
		PinFallbacks:  o.Metrics.Counter("condorg.pin_fallbacks"),
		CyclePlacements: o.Metrics.Histogram("condorg.negotiation.placements",
			[]float64{1, 2, 5, 10, 20, 50, 100, 200, 500, 1000, 2000}),
	}
}

// tracer returns the span tracer, nil (disabled) when instruments are off.
func (in *Instruments) tracer() *obs.Tracer {
	if in == nil {
		return nil
	}
	return in.Tracer
}

// Errors.
var (
	ErrNoMatch    = errors.New("condorg: no resource matches job requirements")
	ErrExhausted  = errors.New("condorg: job failed after all retries")
	ErrNoResource = errors.New("condorg: unknown resource")
)

// JobState is the schedd-side job state.
type JobState int

// Schedd job states.
const (
	Idle JobState = iota
	Running
	Completed
	Held // failed all retries
)

func (s JobState) String() string {
	switch s {
	case Idle:
		return "idle"
	case Running:
		return "running"
	case Completed:
		return "completed"
	case Held:
		return "held"
	}
	return fmt.Sprintf("JobState(%d)", int(s))
}

// Resource is one grid site registered with the schedd.
type Resource struct {
	Name       string
	Gatekeeper *gram.Gatekeeper
	// AdFunc returns the resource's current ClassAd (live CE state).
	AdFunc func() *classad.Ad
	// MaxSubmitted is the GridManager throttle: the most jobs this schedd
	// keeps at the resource simultaneously (protects the gatekeeper from
	// the §6.4 overload). 0 = unlimited.
	MaxSubmitted int
	// Excluded, when set, reports that the resource must not receive new
	// traffic (its health breaker is open). It is the per-resource form of
	// Schedd.Exclude — resolved once at wiring time, so the matchmaking
	// scan pays a closure call instead of a site-name hash — and takes
	// precedence over Schedd.Exclude when both are set.
	Excluded func() bool

	schedd   *Schedd // set by AddResource
	inFlight int
	// backoffUntil pauses submissions after an overload/down response.
	backoffUntil time.Duration
	backoffStep  time.Duration
}

// full reports whether the GridManager throttle is saturated.
func (r *Resource) full() bool {
	return r.MaxSubmitted > 0 && r.inFlight >= r.MaxSubmitted
}

// Owner is told of a grid job's launches and of its end. A job reaches
// its owner through an interface, not through func fields: the owner is
// usually one record per submission, and binding its methods to func
// fields would allocate a closure per job.
type Owner interface {
	// JobStarted fires each time the job is launched at a site (Site is
	// set); a retried job may fire it again.
	JobStarted(*GridJob)
	// JobDone fires exactly once on terminal state; err nil on success.
	JobDone(*GridJob, error)
}

// DoneFunc adapts a function to an Owner that hears only the job's end.
type DoneFunc func(*GridJob, error)

// JobStarted implements Owner and does nothing.
func (DoneFunc) JobStarted(*GridJob) {}

// JobDone implements Owner.
func (f DoneFunc) JobDone(j *GridJob, err error) { f(j, err) }

// GridJob is one queued grid job. Once it is terminal (Completed or Held)
// and its owner has heard, the schedd sets Ad and Owner to nil: a finished
// job keeps only its record (ID, Spec, TargetSite, State, Site, Contact,
// Attempts, LastErr), which is what Job and HashState read, and no longer
// holds the ad or anything its owner holds.
type GridJob struct {
	ID   string
	Ad   *classad.Ad
	Spec gram.Spec
	// TargetSite pins the job to one resource (a Pegasus-planned job);
	// empty means matchmake.
	TargetSite string
	// MaxRetries bounds grid-level resubmissions after remote failures.
	MaxRetries int
	// Owner, when set, is told of each launch and of the job's end.
	Owner Owner
	// Span is the job's root lifecycle span (0 = untraced); the schedd
	// parents its match and gram-auth spans under it and forwards it to
	// the gatekeeper for the run span.
	Span obs.SpanID

	State    JobState
	Site     string // where it ran (last attempt)
	Contact  string // execution-side GRAM contact of the last attempt
	Attempts int
	LastErr  error

	matchSpan obs.SpanID // open while the job waits to be placed
	// res is the resource of the running attempt, whose GRAM state changes
	// reach the job through StateChanged.
	res *Resource
	// avoid marks resources where this job already failed. Keyed by
	// pointer: membership tests in the candidate scan stay O(1) without
	// hashing site names, and pointers are stable for the schedd's life.
	avoid       map[*Resource]bool
	pinFellBack bool // pin-fallback already counted for this job
}

// Schedd is the Condor-G scheduler daemon.
type Schedd struct {
	eng       *sim.Engine
	resources map[string]*Resource
	// list holds the resources in sorted-name order: the dense candidate
	// array every matchmaking scan walks (no per-candidate map lookup).
	list   []*Resource
	idle   []*GridJob
	jobs   map[string]*GridJob // every submitted job, by ID
	ticker *sim.Ticker

	// fullCount tracks how many resources are throttle-saturated,
	// maintained event-driven on launch/completion instead of rescanned:
	// when every resource is full, a negotiation cycle is O(1), which is
	// what bounds cost when a production burst outruns a 1000-site grid.
	fullCount int

	// spareIdle is the previous cycle's drained idle queue, kept empty:
	// Negotiate refills it as the next idle queue instead of growing a
	// fresh one every cycle.
	spareIdle []*GridJob

	// MaxMatchesPerCycle bounds matchmaking work per negotiation cycle;
	// excess idle jobs wait for the next cycle (0 = unlimited).
	MaxMatchesPerCycle int

	// BackoffJitter, when set, spreads each GridManager backoff delay by a
	// deterministic ±25% draw from this private seeded stream, so the
	// GridManagers of every schedd do not retry a recovered gatekeeper in
	// lockstep (a synchronized retry storm). Nil keeps pure doubling.
	BackoffJitter *dist.RNG

	// Exclude, when set, reports sites that must not receive new traffic
	// (open health breakers). Excluded resources are skipped in matchmaking,
	// and a pinned job whose target is excluded falls back to full
	// matchmaking instead of queueing on a dead site.
	Exclude func(site string) bool

	// AvoidFailedSites steers a job's grid-level retries away from sites
	// where it already failed, as long as another resource is eligible.
	AvoidFailedSites bool

	// Ins enables lifecycle tracing and metrics; nil (default) disables.
	Ins *Instruments

	submitted, completed, held int
	matchFailures              int
}

// DefaultNegotiationInterval matches Condor's NEGOTIATOR_INTERVAL of 300s.
const DefaultNegotiationInterval = 5 * time.Minute

// initialBackoff is the first GridManager retry delay after an overloaded
// or unreachable gatekeeper; it doubles per consecutive failure.
const initialBackoff = time.Minute

// maxBackoff caps the retry delay.
const maxBackoff = 30 * time.Minute

// backoffJitterFrac is the ± spread BackoffJitter applies to each delay.
const backoffJitterFrac = 0.25

// New creates a schedd negotiating every interval (0 = default).
func New(eng *sim.Engine, interval time.Duration) *Schedd {
	if interval <= 0 {
		interval = DefaultNegotiationInterval
	}
	s := &Schedd{eng: eng, resources: make(map[string]*Resource), jobs: make(map[string]*GridJob)}
	s.ticker = sim.NewTicker(eng, interval, s.Negotiate)
	return s
}

// Stop halts the negotiation cycle.
func (s *Schedd) Stop() { s.ticker.Stop() }

// AddResource registers a grid site, inserting it into the sorted
// candidate list (no full re-sort per registration).
func (s *Schedd) AddResource(r *Resource) {
	if r.Name == "" {
		r.Name = r.Gatekeeper.Site().Name
	}
	r.schedd = s
	s.resources[r.Name] = r
	i := sort.Search(len(s.list), func(i int) bool { return s.list[i].Name >= r.Name })
	s.list = append(s.list, nil)
	copy(s.list[i+1:], s.list[i:])
	s.list[i] = r
	if r.full() {
		s.fullCount++
	}
}

// Resource returns a registered resource.
func (s *Schedd) Resource(name string) (*Resource, error) {
	r, ok := s.resources[name]
	if !ok {
		return nil, fmt.Errorf("%w: %s", ErrNoResource, name)
	}
	return r, nil
}

// IdleCount returns queued-but-unmatched jobs.
func (s *Schedd) IdleCount() int { return len(s.idle) }

// Counters.
func (s *Schedd) SubmittedCount() int { return s.submitted }

// CompletedCount returns the number of successfully finished jobs.
func (s *Schedd) CompletedCount() int { return s.completed }

// HeldCount returns the number of jobs that exhausted retries.
func (s *Schedd) HeldCount() int { return s.held }

// MatchFailures counts placement attempts that found no resource: the try
// at Submit and each negotiation cycle's try for an idle job.
func (s *Schedd) MatchFailures() int { return s.matchFailures }

// Submit queues a job and tries to place it immediately.
func (s *Schedd) Submit(j *GridJob) error {
	if j.ID == "" {
		return errors.New("condorg: job without ID")
	}
	if j.Ad == nil {
		j.Ad = classad.NewAd()
	}
	// Standard attributes every Grid3 job ad carried. The names are
	// spelled lower-case, as the ad stores them, so a new binding takes
	// the constant instead of allocating a folded copy.
	j.Ad.SetString("vo", j.Spec.VO)
	j.Ad.SetInt("walltime", int64(j.Spec.Walltime/time.Second))
	j.State = Idle
	s.jobs[j.ID] = j
	j.matchSpan = s.Ins.tracer().Begin(obs.KindMatch, j.Span, j.ID, j.Spec.VO, "")
	// Try to place the new job right away; if nothing fits it waits for
	// the negotiation ticker. (Placing only the newcomer keeps a burst of
	// submissions linear — a full queue scan per submit would be
	// quadratic under the November production bursts.)
	if !s.placeOne(j) {
		s.idle = append(s.idle, j)
	}
	return nil
}

// placeOne attempts to match and launch one job now. It reports whether
// the job reached a resource (or terminally failed); false means it should
// wait in the idle queue.
func (s *Schedd) placeOne(j *GridJob) bool {
	r := s.pickResource(j, s.eng.Now())
	if r == nil {
		s.matchFailures++
		if in := s.Ins; in != nil {
			in.MatchFailures.Inc()
		}
		return false
	}
	if err := s.launch(j, r); err != nil {
		return false
	}
	return true
}

// Negotiate runs one matchmaking cycle: for each idle job, find the
// best matching resource with throttle headroom and submit to its
// gatekeeper. Jobs that cannot be placed stay idle for the next cycle.
func (s *Schedd) Negotiate() {
	if len(s.idle) == 0 {
		return
	}
	now := s.eng.Now()
	// Fast path: if every resource is throttled or backing off, nothing
	// can be placed this cycle. This bounds negotiation cost when a
	// production burst outruns the grid (§6.4 peak months). The saturation
	// counter makes the all-throttled case O(1); otherwise the scan breaks
	// at the first open resource.
	if len(s.list) > 0 && s.fullCount == len(s.list) {
		return
	}
	anyOpen := false
	for _, r := range s.list {
		if !r.full() && now >= r.backoffUntil {
			anyOpen = true
			break
		}
	}
	if !anyOpen {
		return
	}
	// Drain the queue first: launch failures and asynchronous remote
	// failures requeue onto the fresh s.idle without being clobbered. The
	// fresh queue reuses the last cycle's drained buffer; taking it out of
	// spareIdle keeps a nested cycle from refilling the same array.
	jobs := s.idle
	s.idle, s.spareIdle = s.spareIdle[:0], nil
	matches, placed := 0, 0
	for _, j := range jobs {
		if s.MaxMatchesPerCycle > 0 && matches >= s.MaxMatchesPerCycle {
			s.idle = append(s.idle, j)
			continue
		}
		matches++
		r := s.pickResource(j, now)
		if r == nil {
			s.matchFailures++
			if in := s.Ins; in != nil {
				in.MatchFailures.Inc()
			}
			s.idle = append(s.idle, j)
			continue
		}
		if err := s.launch(j, r); err != nil {
			s.idle = append(s.idle, j)
			continue
		}
		placed++
	}
	if in := s.Ins; in != nil && placed > 0 {
		in.CyclePlacements.Observe(float64(placed))
	}
	clear(jobs) // drop the job pointers so finished jobs can be collected
	s.spareIdle = jobs[:0]
}

// excluded reports whether a resource is breaker-blocked, preferring the
// pre-resolved per-resource hook over the schedd-level name lookup.
func (s *Schedd) excluded(r *Resource) bool {
	if r.Excluded != nil {
		return r.Excluded()
	}
	return s.Exclude != nil && s.Exclude(r.Name)
}

// eligible reports whether r may take a new submission now: GridManager
// throttle headroom, no backoff pending, and no open health breaker.
func (s *Schedd) eligible(r *Resource, now time.Duration) bool {
	return !r.full() && now >= r.backoffUntil && !s.excluded(r)
}

// pickResource selects the target for a job, honoring pinning, throttles,
// backoff, breaker exclusion, failed-site avoidance, and ClassAd matching.
func (s *Schedd) pickResource(j *GridJob, now time.Duration) *Resource {
	// pinned selects the single-candidate path; nil with pinnedOnly false
	// means full matchmaking over the sorted list.
	var pinned *Resource
	pinnedOnly := false
	if j.TargetSite != "" {
		pinned = s.resources[j.TargetSite]
		excl := false
		if pinned != nil {
			excl = s.excluded(pinned)
		} else if s.Exclude != nil {
			excl = s.Exclude(j.TargetSite)
		}
		if excl {
			// Pinned to a site with an open breaker: fall back to full
			// matchmaking rather than queueing on a dead site.
			pinned = nil
			if !j.pinFellBack {
				j.pinFellBack = true
				if in := s.Ins; in != nil {
					in.PinFallbacks.Inc()
				}
			}
		} else {
			// An unknown pinned target keeps the job idle (pinned nil,
			// pinnedOnly true), matching a schedd with no such resource.
			pinnedOnly = true
		}
	}
	pick := func(avoidFailed bool) *Resource {
		if pinnedOnly {
			if pinned == nil || !s.eligible(pinned, now) || (avoidFailed && j.avoid[pinned]) {
				return nil
			}
			if ad := pinned.AdFunc(); ad != nil && classad.Match(j.Ad, ad) {
				return pinned
			}
			return nil
		}
		var b classad.Best
		for i, r := range s.list {
			if s.eligible(r, now) && !(avoidFailed && j.avoid[r]) {
				b.Offer(i, j.Ad, r.AdFunc())
			}
		}
		if b.Index() < 0 {
			return nil
		}
		return s.list[b.Index()]
	}
	// Prefer a site the job has not failed at; if avoidance filters out
	// every eligible resource, fall back to the full set rather than
	// stranding the job.
	if s.AvoidFailedSites && len(j.avoid) > 0 {
		if r := pick(true); r != nil {
			return r
		}
	}
	return pick(false)
}

// Job returns a submitted job by schedd-side ID — the §8 troubleshooting
// lesson: "the ability to link a job ID on the execution side with a job
// ID at the submit (VO) side".
func (s *Schedd) Job(id string) (*GridJob, bool) {
	j, ok := s.jobs[id]
	return j, ok
}

// launch submits a job to a resource's gatekeeper.
func (s *Schedd) launch(j *GridJob, r *Resource) error {
	spec := j.Spec
	spec.Parent = j.Span
	j.res = r
	tr := s.Ins.tracer()
	auth := tr.Begin(obs.KindGramAuth, j.Span, j.ID, spec.VO, r.Name)
	gj, err := r.Gatekeeper.Submit(spec, j)
	if err != nil {
		tr.Fail(auth, err.Error())
		// Overload / down gatekeeper: exponential backoff on the
		// resource, job stays idle (its match span stays open).
		if errors.Is(err, gram.ErrOverloaded) || errors.Is(err, gram.ErrSiteDown) {
			if r.backoffStep == 0 {
				r.backoffStep = initialBackoff
			} else if r.backoffStep < maxBackoff {
				r.backoffStep *= 2
			}
			delay := r.backoffStep
			if s.BackoffJitter != nil {
				delay = s.BackoffJitter.Jitter(delay, backoffJitterFrac)
			}
			r.backoffUntil = s.eng.Now() + delay
			return err
		}
		// Anything else (authorization, walltime policy) is a job-level
		// failure: burn an attempt.
		j.Attempts++
		s.remoteFailure(j, r, err)
		return nil
	}
	tr.End(auth)
	tr.SetSite(j.matchSpan, r.Name)
	tr.End(j.matchSpan)
	j.matchSpan = 0
	j.Attempts++
	j.State = Running
	j.Site = r.Name
	j.Contact = gj.ID
	s.addInFlight(r)
	s.submitted++
	if in := s.Ins; in != nil {
		in.Submitted.Inc()
	}
	if j.Owner != nil {
		j.Owner.JobStarted(j)
	}
	return nil
}

// StateChanged implements gram.Watcher for the job's running attempt: a
// GRAM job that ends ends the attempt at j.res.
func (j *GridJob) StateChanged(gj *gram.Job, st gram.JobState) {
	r := j.res
	s := r.schedd
	switch st {
	case gram.StateDone:
		s.dropInFlight(r)
		r.backoffStep = 0
		j.State = Completed
		s.completed++
		if in := s.Ins; in != nil {
			in.Completed.Inc()
		}
		j.retire(nil)
	case gram.StateFailed:
		s.dropInFlight(r)
		s.remoteFailure(j, r, fmt.Errorf("condorg: remote failure at %s: %s", r.Name, gj.FailureReason))
	}
}

// addInFlight and dropInFlight adjust a resource's GridManager occupancy
// while keeping the schedd's saturation counter exact.
func (s *Schedd) addInFlight(r *Resource) {
	wasFull := r.full()
	r.inFlight++
	if !wasFull && r.full() {
		s.fullCount++
	}
}

func (s *Schedd) dropInFlight(r *Resource) {
	wasFull := r.full()
	r.inFlight--
	if wasFull && !r.full() {
		s.fullCount--
	}
}

// remoteFailure retries a failed job or holds it. r is where the failed
// attempt ran, recorded so retries can steer elsewhere.
func (s *Schedd) remoteFailure(j *GridJob, r *Resource, err error) {
	j.LastErr = err
	if s.AvoidFailedSites && r != nil {
		if j.avoid == nil {
			j.avoid = make(map[*Resource]bool)
		}
		j.avoid[r] = true
	}
	if j.Attempts <= j.MaxRetries {
		j.State = Idle
		s.idle = append(s.idle, j)
		if j.matchSpan == 0 {
			// Back in the idle queue: a fresh match wait starts now.
			j.matchSpan = s.Ins.tracer().Begin(obs.KindMatch, j.Span, j.ID, j.Spec.VO, "")
		}
		return
	}
	j.State = Held
	s.held++
	if in := s.Ins; in != nil {
		in.Held.Inc()
	}
	if j.matchSpan != 0 {
		s.Ins.tracer().Fail(j.matchSpan, "held: retries exhausted")
		j.matchSpan = 0
	}
	j.retire(fmt.Errorf("%w: %v", ErrExhausted, err))
}

// retire tells the owner of a job that just reached a terminal state,
// then drops what only a live job uses, so the owner and everything it
// holds do not live as long as the job's record.
func (j *GridJob) retire(err error) {
	if j.Owner != nil {
		j.Owner.JobDone(j, err)
	}
	j.Ad, j.Owner, j.res = nil, nil, nil
}
