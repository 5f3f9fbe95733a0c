// Package batch implements the local resource management systems behind
// Grid3 gatekeepers: OpenPBS-, Condor-, and LSF-style schedulers with
// per-VO policies (§5: "Appropriate policies were implemented at each local
// batch scheduler (OpenPBS, Condor, and LSF) and Unix group accounts were
// established at each site for each VO").
//
// A System owns a fixed pool of CPU slots and a queue. Scheduling policy is
// pluggable: FIFO with priorities (OpenPBS), decayed-usage fair-share
// (Condor), or strict priority (LSF). PBS and LSF enforce the requested
// walltime by killing overrunning jobs; Condor does not. Failure injection
// (worker-node loss, nightly rollover) enters through KillRunning and
// DrainSlots.
package batch

import (
	"errors"
	"fmt"
	"math"
	"sort"
	"time"

	"grid3/internal/obs"
	"grid3/internal/sim"
)

// Instruments is the batch layer's observability wiring: a run span per
// executed job plus queue-wait and outcome metrics. Shared by every site's
// batch system (the registry aggregates grid-wide); nil disables.
type Instruments struct {
	Tracer    *obs.Tracer
	QueueWait *obs.Histogram // local queue wait, submit → start, seconds
	Started   *obs.Counter
	Completed *obs.Counter
	Failed    *obs.Counter
}

// NewInstruments wires batch instruments into an observer; nil in, nil out.
func NewInstruments(o *obs.Observer) *Instruments {
	if o == nil {
		return nil
	}
	return &Instruments{
		Tracer:    o.Tracer,
		QueueWait: o.Metrics.Histogram("batch.queue_wait.seconds", obs.DurationBounds),
		Started:   o.Metrics.Counter("batch.started"),
		Completed: o.Metrics.Counter("batch.completed"),
		Failed:    o.Metrics.Counter("batch.failed"),
	}
}

// State is a job's lifecycle state.
type State int

// Job states.
const (
	Queued State = iota
	Running
	Done
)

func (s State) String() string {
	switch s {
	case Queued:
		return "queued"
	case Running:
		return "running"
	case Done:
		return "done"
	}
	return fmt.Sprintf("State(%d)", int(s))
}

// Outcome describes how a job left the system.
type Outcome int

// Job outcomes.
const (
	Completed Outcome = iota
	WalltimeExceeded
	NodeFailure
	Cancelled
	Rejected
)

func (o Outcome) String() string {
	switch o {
	case Completed:
		return "completed"
	case WalltimeExceeded:
		return "walltime-exceeded"
	case NodeFailure:
		return "node-failure"
	case Cancelled:
		return "cancelled"
	case Rejected:
		return "rejected"
	}
	return fmt.Sprintf("Outcome(%d)", int(o))
}

// Errors.
var (
	ErrWalltimeTooLong = errors.New("batch: requested walltime exceeds queue limit")
	ErrDuplicateJob    = errors.New("batch: duplicate job id")
	ErrNoSuchJob       = errors.New("batch: no such job")
	ErrQueueClosed     = errors.New("batch: queue closed")
)

// Job is one batch job. Runtime is the job's true compute duration, known
// to the workload generator but not to the scheduler, which sees only the
// requested Walltime.
type Job struct {
	ID       string
	VO       string
	Account  string // local Unix group account
	Walltime time.Duration
	Runtime  time.Duration
	Priority int // higher runs first; exerciser backfill uses negative

	Submitted time.Duration
	Started   time.Duration
	Ended     time.Duration
	State     State
	Outcome   Outcome

	// Owner, when set, is told when the job starts and when it leaves.
	Owner Owner

	// Parent is the submit-side lifecycle span the run span is linked
	// under (0 = untraced).
	Parent obs.SpanID

	endEvent sim.Event
	seq      uint64
	runSpan  obs.SpanID
}

// Owner is told of a job's start and end. A job reaches its owner
// through an interface, not through func fields: the owner is usually a
// record the submitter already holds per job (a GRAM job), and binding
// one of its methods to a func field would allocate a closure per job.
type Owner interface {
	// JobStarted fires when the job begins executing.
	JobStarted(*Job)
	// JobDone fires exactly once when the job leaves the system for any
	// reason.
	JobDone(*Job)
}

// CPUTime returns consumed CPU time (wall occupancy of one slot).
func (j *Job) CPUTime() time.Duration {
	if j.State != Done || j.Started == 0 && j.Ended == 0 {
		return 0
	}
	return j.Ended - j.Started
}

// Record is the completion log entry ACDC's job monitor pulls (§5.2).
type Record struct {
	JobID     string
	VO        string
	Account   string
	Submitted time.Duration
	Started   time.Duration
	Ended     time.Duration
	Outcome   Outcome
	Walltime  time.Duration
}

// Runtime returns the record's execution duration.
func (r Record) Runtime() time.Duration {
	if r.Started == 0 && r.Ended == 0 {
		return 0
	}
	return r.Ended - r.Started
}

// Policy selects the next queued job to start. It returns the index into
// queue, or -1 to leave the CPU idle (e.g. quota exhausted for every
// queued VO). Implementations must be deterministic.
type Policy interface {
	Next(queue []*Job, sys *System) int
	Name() string
}

// Config configures a batch system.
type Config struct {
	Name        string
	Slots       int
	Policy      Policy
	MaxWall     time.Duration // admission limit; 0 = unlimited
	EnforceWall bool          // kill jobs at their requested walltime
	// VOQuota caps simultaneously running jobs per VO; missing VO =
	// no cap. This is the per-VO site policy layer of §5.
	VOQuota map[string]int
}

// System is one site's batch scheduler.
type System struct {
	cfg        Config
	eng        sim.Scheduler
	queue      []*Job
	running    map[string]*Job
	queued     map[string]*Job
	freeSlots  int
	drained    int // slots removed by failure injection
	seq        uint64
	usage      map[string]float64 // decayed CPU-seconds per VO (fair-share)
	usageStamp time.Duration
	runningVO  map[string]int // incrementally maintained per-VO running counts
	records    []Record
	closed     bool

	// Cumulative counters for monitoring providers.
	totalStarted   int
	totalCompleted int
	totalFailed    int
	busyTime       time.Duration // slot-seconds of execution, for utilization

	// Ins enables run spans and queue metrics; nil (default) disables.
	Ins *Instruments
}

// New creates a batch system with the given engine and configuration.
func New(eng sim.Scheduler, cfg Config) *System {
	if cfg.Slots <= 0 {
		panic(fmt.Sprintf("batch %s: slots %d", cfg.Name, cfg.Slots))
	}
	if cfg.Policy == nil {
		cfg.Policy = FIFO{}
	}
	return &System{
		cfg:       cfg,
		eng:       eng,
		running:   make(map[string]*Job),
		queued:    make(map[string]*Job),
		freeSlots: cfg.Slots,
		usage:     make(map[string]float64),
		runningVO: make(map[string]int),
	}
}

// Name returns the system's name.
func (s *System) Name() string { return s.cfg.Name }

// Slots returns the configured slot count (ignoring drains).
func (s *System) Slots() int { return s.cfg.Slots }

// AvailableSlots returns slots not drained by failure injection.
func (s *System) AvailableSlots() int { return s.cfg.Slots - s.drained }

// FreeSlots returns currently idle, undrained slots.
func (s *System) FreeSlots() int { return s.freeSlots }

// RunningCount returns the number of executing jobs.
func (s *System) RunningCount() int { return len(s.running) }

// QueuedCount returns the number of waiting jobs.
func (s *System) QueuedCount() int { return len(s.queue) }

// MaxWall returns the queue's admission walltime limit (0 = none).
func (s *System) MaxWall() time.Duration { return s.cfg.MaxWall }

// TotalStarted returns the count of jobs that began execution.
func (s *System) TotalStarted() int { return s.totalStarted }

// TotalCompleted returns the count of successfully completed jobs.
func (s *System) TotalCompleted() int { return s.totalCompleted }

// TotalFailed returns the count of jobs that left unsuccessfully.
func (s *System) TotalFailed() int { return s.totalFailed }

// BusyTime returns accumulated slot-occupancy time.
func (s *System) BusyTime() time.Duration { return s.busyTime }

// Close rejects all future submissions (site decommissioning).
func (s *System) Close() { s.closed = true }

// Submit enqueues a job. Admission control rejects jobs whose requested
// walltime exceeds the queue limit — §6.2: "The official OSCAR production
// jobs are long (some more than 30 hours) and not all sites have been able
// to accommodate running them."
func (s *System) Submit(j *Job) error {
	if s.closed {
		return fmt.Errorf("%w: %s", ErrQueueClosed, s.cfg.Name)
	}
	if j.ID == "" {
		return errors.New("batch: job missing ID")
	}
	if _, dup := s.running[j.ID]; dup {
		return fmt.Errorf("%w: %s", ErrDuplicateJob, j.ID)
	}
	if _, dup := s.queued[j.ID]; dup {
		return fmt.Errorf("%w: %s", ErrDuplicateJob, j.ID)
	}
	if j.Walltime <= 0 {
		return fmt.Errorf("batch: job %s has no walltime request", j.ID)
	}
	if s.cfg.MaxWall > 0 && j.Walltime > s.cfg.MaxWall {
		return fmt.Errorf("%w: %v > %v at %s", ErrWalltimeTooLong, j.Walltime, s.cfg.MaxWall, s.cfg.Name)
	}
	s.seq++
	j.seq = s.seq
	j.State = Queued
	j.Submitted = s.eng.Now()
	s.queue = append(s.queue, j)
	s.queued[j.ID] = j
	s.schedule()
	return nil
}

// Cancel removes a queued job or kills a running one.
func (s *System) Cancel(id string) error {
	if j, ok := s.queued[id]; ok {
		s.removeFromQueue(id)
		s.finish(j, Cancelled)
		return nil
	}
	if j, ok := s.running[id]; ok {
		s.stopRunning(j, Cancelled)
		return nil
	}
	return fmt.Errorf("%w: %s", ErrNoSuchJob, id)
}

// quotaAllows reports whether starting a job of the VO respects its quota.
func (s *System) quotaAllows(vo string) bool {
	q, ok := s.cfg.VOQuota[vo]
	if !ok {
		return true
	}
	return s.runningVO[vo] < q
}

// RunningByVO returns the count of running jobs for a VO.
func (s *System) RunningByVO(vo string) int {
	return s.runningVO[vo]
}

// Usage returns the decayed fair-share usage for a VO, in CPU-seconds.
func (s *System) Usage(vo string) float64 {
	s.decayUsage()
	return s.usage[vo]
}

// fairShareHalfLife is the decay half-life for accumulated usage, matching
// Condor's default PRIORITY_HALFLIFE of one day.
const fairShareHalfLife = 24 * time.Hour

func (s *System) decayUsage() {
	now := s.eng.Now()
	dt := now - s.usageStamp
	if dt <= 0 {
		return
	}
	factor := math.Exp2(-float64(dt) / float64(fairShareHalfLife))
	for vo := range s.usage {
		s.usage[vo] *= factor
		if s.usage[vo] < 1e-9 {
			delete(s.usage, vo)
		}
	}
	s.usageStamp = now
}

func (s *System) schedule() {
	for s.freeSlots > 0 && len(s.queue) > 0 {
		idx := s.cfg.Policy.Next(s.queue, s)
		if idx < 0 || idx >= len(s.queue) {
			return
		}
		j := s.queue[idx]
		s.queue = append(s.queue[:idx], s.queue[idx+1:]...)
		delete(s.queued, j.ID)
		s.start(j)
	}
}

func (s *System) start(j *Job) {
	s.freeSlots--
	j.State = Running
	j.Started = s.eng.Now()
	s.running[j.ID] = j
	s.runningVO[j.VO]++
	s.totalStarted++
	if in := s.Ins; in != nil {
		in.Started.Inc()
		in.QueueWait.Observe((j.Started - j.Submitted).Seconds())
		j.runSpan = in.Tracer.Begin(obs.KindRun, j.Parent, j.ID, j.VO, s.cfg.Name)
	}

	execTime := j.Runtime
	outcome := Completed
	if s.cfg.EnforceWall && j.Runtime > j.Walltime {
		execTime = j.Walltime
		outcome = WalltimeExceeded
	}
	j.endEvent = s.eng.Schedule(execTime, func() {
		s.stopRunning(j, outcome)
	})
	if j.Owner != nil {
		j.Owner.JobStarted(j)
	}
}

// stopRunning ends a running job with the given outcome.
func (s *System) stopRunning(j *Job, outcome Outcome) {
	s.stopRunningInternal(j, outcome, true)
}

// stopRunningInternal optionally suppresses rescheduling so DrainSlots can
// retire the freed slot before queued work grabs it.
func (s *System) stopRunningInternal(j *Job, outcome Outcome, resched bool) {
	if j.State != Running {
		return
	}
	j.endEvent.Cancel()
	j.endEvent = sim.Event{}
	delete(s.running, j.ID)
	s.runningVO[j.VO]--
	if s.runningVO[j.VO] == 0 {
		delete(s.runningVO, j.VO)
	}
	s.freeSlots++
	s.busyTime += s.eng.Now() - j.Started
	s.decayUsage()
	s.usage[j.VO] += (s.eng.Now() - j.Started).Seconds()
	s.finish(j, outcome)
	if resched {
		s.schedule()
	}
}

func (s *System) finish(j *Job, outcome Outcome) {
	j.State = Done
	j.Outcome = outcome
	j.Ended = s.eng.Now()
	switch outcome {
	case Completed:
		s.totalCompleted++
	default:
		s.totalFailed++
	}
	if in := s.Ins; in != nil {
		if outcome == Completed {
			in.Completed.Inc()
			in.Tracer.End(j.runSpan)
		} else {
			in.Failed.Inc()
			in.Tracer.Fail(j.runSpan, outcome.String())
		}
		j.runSpan = 0
	}
	s.records = append(s.records, Record{
		JobID:     j.ID,
		VO:        j.VO,
		Account:   j.Account,
		Submitted: j.Submitted,
		Started:   j.Started,
		Ended:     j.Ended,
		Outcome:   outcome,
		Walltime:  j.Walltime,
	})
	if j.Owner != nil {
		j.Owner.JobDone(j)
	}
}

func (s *System) removeFromQueue(id string) {
	for i, j := range s.queue {
		if j.ID == id {
			s.queue = append(s.queue[:i], s.queue[i+1:]...)
			delete(s.queued, id)
			return
		}
	}
}

// KillRunning ends every running job matching the filter with the given
// outcome; it returns how many were killed. Failure injection uses this for
// whole-site service failures ("a disk would fill up or a service would
// fail and all jobs submitted to a site would die", §6.2).
func (s *System) KillRunning(match func(*Job) bool, outcome Outcome) int {
	// Enumerate in deterministic (submission) order before filtering, so
	// stateful predicates ("kill the first one") see a stable sequence.
	all := make([]*Job, 0, len(s.running))
	for _, j := range s.running {
		all = append(all, j)
	}
	sort.Slice(all, func(i, k int) bool { return all[i].seq < all[k].seq })
	var victims []*Job
	for _, j := range all {
		if match == nil || match(j) {
			victims = append(victims, j)
		}
	}
	for _, j := range victims {
		s.stopRunning(j, outcome)
	}
	return len(victims)
}

// FlushQueue cancels all queued jobs, returning how many were dropped.
func (s *System) FlushQueue() int {
	n := len(s.queue)
	for len(s.queue) > 0 {
		j := s.queue[0]
		s.queue = s.queue[1:]
		delete(s.queued, j.ID)
		s.finish(j, Cancelled)
	}
	return n
}

// DrainSlots removes n slots from service, killing the youngest running
// jobs if necessary — the ACDC "nightly roll over of worker nodes" that
// §6.1 reports ATLAS did not handle gracefully.
func (s *System) DrainSlots(n int) int {
	if n > s.AvailableSlots() {
		n = s.AvailableSlots()
	}
	s.drained += n
	killed := 0
	// Idle slots absorb the drain first.
	if s.freeSlots >= n {
		s.freeSlots -= n
		return 0
	}
	need := n - s.freeSlots
	s.freeSlots = 0
	var victims []*Job
	for _, j := range s.running {
		victims = append(victims, j)
	}
	// Youngest first: rollovers take out the most recently started work.
	sort.Slice(victims, func(i, k int) bool {
		return victims[i].Started > victims[k].Started || (victims[i].Started == victims[k].Started && victims[i].seq > victims[k].seq)
	})
	for _, j := range victims {
		if killed == need {
			break
		}
		s.stopRunningInternal(j, NodeFailure, false)
		killed++
		s.freeSlots-- // the freed slot is consumed by the drain
	}
	s.schedule()
	return killed
}

// RestoreSlots returns n drained slots to service.
func (s *System) RestoreSlots(n int) {
	if n > s.drained {
		n = s.drained
	}
	s.drained -= n
	s.freeSlots += n
	s.schedule()
}

// DrainRecords returns and clears the completion log — the pull-based
// collection model of the ACDC job monitor.
func (s *System) DrainRecords() []Record {
	out := s.records
	s.records = nil
	return out
}

// PeekRecords returns the completion log without clearing it.
func (s *System) PeekRecords() []Record { return s.records }
