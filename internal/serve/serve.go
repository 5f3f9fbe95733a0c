// Package serve turns a Grid3 scenario into a long-running service: the
// discrete-event engine advances continuously in scaled real time behind a
// thread-safe ingress boundary, and the paper's user-facing surfaces (VOMS
// enrollment, Condor-G submission, RLS lookup, MonALISA/ACDC monitoring,
// iGOC tickets) are exposed as HTTP/JSON APIs.
//
// # The ingress determinism boundary
//
// The engine is single-threaded by design — that is what makes runs
// reproducible — so the service keeps exactly one goroutine (the sim loop)
// that owns the engine, and serializes every external touch through a
// bounded FIFO mailbox. HTTP handlers never read or mutate grid state
// directly: they enqueue a closure and wait for the sim loop to execute it
// between engine steps. Given the same admission sequence, the simulation
// evolves identically; wall-clock arrival order is the only
// nondeterministic input, and it is pinned at exactly one place (mailbox
// admission) rather than scattered across handlers. When the mailbox is
// full the request is shed with ErrOverloaded before it can perturb the
// engine — overload degrades goodput, never determinism.
//
// # Scaled real time
//
// A sim.Governor maps wall time onto the virtual clock at Pace virtual
// seconds per wall second. Each loop tick advances the engine to the
// governor's target, bounding any catch-up burst to MaxStride of virtual
// time per tick so ingress stays responsive while lag is repaid; lag beyond
// MaxLag is forgiven (the schedule slips) instead of freezing the service
// for an unbounded replay.
package serve

import (
	"errors"
	"fmt"
	"math"
	"sync"
	"sync/atomic"
	"time"

	"grid3/internal/checkpoint"
	"grid3/internal/core"
	"grid3/internal/sim"
)

// Service errors.
var (
	// ErrOverloaded reports that the ingress mailbox was full and the
	// request was shed (HTTP 503).
	ErrOverloaded = errors.New("serve: ingress mailbox full")
	// ErrStopped reports that the service shut down before the request ran.
	ErrStopped = errors.New("serve: service stopped")
)

// Config shapes a Service.
type Config struct {
	// Scenario is the campaign configuration to run continuously. Its
	// Horizon bounds the simulation (the service keeps answering queries
	// after the horizon is reached); RealTimePace sets the default pace.
	Scenario core.ScenarioConfig
	// Pace is the compression ratio in virtual seconds per wall second;
	// 0 takes Scenario.RealTimePace, and if both are zero DefaultPace.
	Pace float64
	// Tick is the wall interval between governor steps (default 10ms).
	Tick time.Duration
	// MaxPending bounds the ingress mailbox; requests beyond it are shed
	// with ErrOverloaded (default 4096).
	MaxPending int
	// MaxStride bounds how much virtual time one loop tick may advance
	// during catch-up, keeping ingress responsive behind a burst (default
	// 6 virtual hours).
	MaxStride time.Duration
	// MaxLag bounds accumulated schedule lag; beyond it the governor
	// re-anchors and the simulation slips rather than replaying an
	// unbounded backlog (default 24 virtual hours).
	MaxLag time.Duration
	// Restore, when set, boots the service from a checkpoint instead of a
	// fresh Scenario: the recorded configuration is reconstructed and
	// replayed to the snapshot's sim time (re-injecting journaled API
	// operations), and Scenario is ignored except where RestoreOverrides
	// whitelists a change. Serve-scope snapshots rebuild the job table;
	// batch-scope snapshots warm-start with an empty one.
	Restore *checkpoint.Snapshot
	// RestoreOverrides whitelists what may change when booting from
	// Restore (extended horizon, fresh sinks, re-armed checkpointing,
	// pace). Its ReplayOp and ExtraHash hooks are owned by
	// the serve layer and overwritten here.
	RestoreOverrides core.RestoreOverrides
}

// Defaults.
const (
	// DefaultPace compresses one simulated hour into one wall second.
	DefaultPace       = 3600.0
	defaultTick       = 10 * time.Millisecond
	defaultMaxPending = 4096
	defaultMaxStride  = 6 * time.Hour
	defaultMaxLag     = 24 * time.Hour
)

func (c *Config) defaults() {
	if c.Pace == 0 {
		c.Pace = c.Scenario.RealTimePace
	}
	if c.Pace == 0 {
		c.Pace = DefaultPace
	}
	if c.Tick <= 0 {
		c.Tick = defaultTick
	}
	if c.MaxPending <= 0 {
		c.MaxPending = defaultMaxPending
	}
	if c.MaxStride <= 0 {
		c.MaxStride = defaultMaxStride
	}
	if c.MaxLag <= 0 {
		c.MaxLag = defaultMaxLag
	}
}

// Service runs one scenario continuously behind the ingress boundary.
type Service struct {
	cfg  Config
	scen *core.Scenario
	gov  *sim.Governor

	mbox chan func()
	stop chan struct{}
	done chan struct{}

	startOnce sync.Once
	stopOnce  sync.Once
	started   time.Time

	// accepted/shed count mailbox admissions; shed requests never touch
	// the engine. Atomics because handlers bump them off the sim loop.
	accepted atomic.Uint64
	shed     atomic.Uint64

	// pace holds the live compression ratio as Float64bits; atomic because
	// SetPace rewrites it from the sim goroutine while Pace reads anywhere.
	pace atomic.Uint64

	// Owned by the sim goroutine after Start (reads go through do()).
	jobs     *jobTable
	finished bool

	// journal records every executed external mutation (enroll, submit)
	// with its sim time, in execution order — the replay log a serve-scope
	// snapshot carries. Owned by the sim goroutine. Seeded from the
	// snapshot's journal on restore so later snapshots keep the full
	// history from the original boot.
	journal []checkpoint.Op
}

// New builds a Service around a freshly assembled scenario — or, when
// cfg.Restore is set, around a scenario rebuilt from a checkpoint, with the
// engine already advanced to the snapshot's sim time. Start begins (or
// resumes) scaled-real-time execution from there.
func New(cfg Config) (*Service, error) {
	var (
		scen    *core.Scenario
		jobs    *jobTable
		journal []checkpoint.Op
		err     error
	)
	if cfg.Restore != nil {
		scen, jobs, err = restoreScenario(cfg.Restore, cfg.RestoreOverrides)
		if err != nil {
			return nil, fmt.Errorf("serve: restore: %w", err)
		}
		journal = append(journal, cfg.Restore.Journal...)
		// The recorded pace travels inside the snapshot config; the usual
		// Scenario.RealTimePace fallback must read it from there.
		if cfg.Pace == 0 {
			cfg.Pace = scen.Cfg.RealTimePace
		}
	} else {
		scen, err = core.NewScenario(cfg.Scenario)
		if err != nil {
			return nil, fmt.Errorf("serve: %w", err)
		}
		jobs = newJobTable()
	}
	cfg.defaults()
	s := &Service{
		cfg:     cfg,
		scen:    scen,
		mbox:    make(chan func(), cfg.MaxPending),
		stop:    make(chan struct{}),
		done:    make(chan struct{}),
		jobs:    jobs,
		journal: journal,
	}
	s.pace.Store(math.Float64bits(cfg.Pace))
	return s, nil
}

// Scenario exposes the underlying campaign. Outside the sim loop, touch it
// only through Do — the engine is not safe for concurrent use.
func (s *Service) Scenario() *core.Scenario { return s.scen }

// Pace returns the live compression ratio.
func (s *Service) Pace() float64 { return math.Float64frombits(s.pace.Load()) }

// Start launches the sim loop. Safe to call once; the zero-cost way to use
// the Service synchronously in tests is to skip Start and call Step.
func (s *Service) Start() {
	s.startOnce.Do(func() {
		s.started = time.Now()
		s.gov = sim.NewGovernor(s.Pace(), s.scen.Grid.Eng.Now(), s.started)
		go s.loop()
	})
}

// Stop shuts the sim loop down: pending mailbox entries drain, the
// scenario finishes (final ACDC pull, observability flush), and the loop
// exits. Safe to call more than once; blocks until shutdown completes.
func (s *Service) Stop() {
	s.Start() // a never-started service still stops cleanly
	s.stopOnce.Do(func() { close(s.stop) })
	<-s.done
}

// loop is the sim goroutine: the only place engine time advances and the
// only executor of mailbox closures.
func (s *Service) loop() {
	defer close(s.done)
	ticker := time.NewTicker(s.cfg.Tick)
	defer ticker.Stop()
	for {
		select {
		case <-s.stop:
			s.drain()
			s.finish()
			return
		case fn := <-s.mbox:
			fn()
		case now := <-ticker.C:
			s.advance(now)
		}
	}
}

// advance runs the engine toward the governor's target for wall instant
// now, bounding the stride and forgiving excessive lag.
func (s *Service) advance(now time.Time) {
	eng := s.scen.Grid.Eng
	simNow := eng.Now()
	if s.gov.Lag(simNow, now) > s.cfg.MaxLag {
		s.gov.Forgive(simNow, now)
	}
	target := s.gov.Target(now)
	if max := simNow + s.cfg.MaxStride; target > max {
		target = max
	}
	horizon := s.scen.Cfg.Horizon
	if horizon > 0 && target > horizon {
		target = horizon
	}
	if target > simNow {
		s.scen.RunUntil(target)
	}
	if horizon > 0 && eng.Now() >= horizon {
		s.finish()
	}
}

// finish performs end-of-run bookkeeping exactly once. The service keeps
// answering queries afterward; Finished reports the state.
func (s *Service) finish() {
	if s.finished {
		return
	}
	s.finished = true
	s.scen.Finish()
}

// drain empties the mailbox on shutdown so no caller blocks forever on a
// posted closure.
func (s *Service) drain() {
	for {
		select {
		case fn := <-s.mbox:
			fn()
		default:
			return
		}
	}
}

// Do executes fn on the sim goroutine and waits for it, the synchronous
// ingress path every handler uses. It returns ErrOverloaded when the
// mailbox is full and ErrStopped when the service shut down before fn ran.
func (s *Service) Do(fn func()) error {
	ran := make(chan struct{})
	select {
	case s.mbox <- func() { fn(); close(ran) }:
		s.accepted.Add(1)
	default:
		s.shed.Add(1)
		return ErrOverloaded
	}
	select {
	case <-ran:
		return nil
	case <-s.done:
		// The loop may have executed fn during its shutdown drain.
		select {
		case <-ran:
			return nil
		default:
			return ErrStopped
		}
	}
}

// Step synchronously drains the mailbox and advances the engine to the
// governor target for wall instant now — the loop body without the loop,
// for deterministic tests that drive wall time by hand. Only valid before
// Start.
func (s *Service) Step(now time.Time) {
	if s.gov == nil {
		s.gov = sim.NewGovernor(s.Pace(), s.scen.Grid.Eng.Now(), now)
	}
	s.drain()
	s.advance(now)
}

// SetPace re-anchors the governor at the engine's current position with a
// new compression ratio — the hot-reload path. Accumulated lag is forgiven
// (the schedule restarts from here), so a reload never triggers a replay
// burst.
func (s *Service) SetPace(pace float64) error {
	if pace <= 0 {
		return fmt.Errorf("serve: pace %v must be positive", pace)
	}
	return s.Do(func() {
		s.pace.Store(math.Float64bits(pace))
		if s.gov != nil {
			s.gov.Repace(pace, s.scen.Grid.Eng.Now(), time.Now())
		}
	})
}

// Status is a point-in-time snapshot of the daemon, assembled on the sim
// goroutine; the HTTP layer owns the wire shape.
type Status struct {
	SimNow        time.Duration
	SimClock      time.Time
	Pace          float64
	Lag           time.Duration
	Events        uint64
	Pending       int
	Finished      bool
	Jobs          JobCounts
	Accepted      uint64
	Shed          uint64
	UptimeSeconds float64
}

// StatusNow assembles a Status via the ingress boundary.
func (s *Service) StatusNow() (Status, error) {
	var st Status
	wall := time.Now()
	err := s.Do(func() {
		eng := s.scen.Grid.Eng
		st.SimNow = eng.Now()
		st.SimClock = eng.WallClock()
		st.Pace = s.Pace()
		if s.gov != nil {
			st.Lag = s.gov.Lag(eng.Now(), wall)
		}
		st.Events = eng.Processed()
		st.Pending = eng.Pending()
		st.Finished = s.finished
		st.Jobs = s.jobs.counts
	})
	st.Accepted = s.accepted.Load()
	st.Shed = s.shed.Load()
	if !s.started.IsZero() {
		st.UptimeSeconds = time.Since(s.started).Seconds()
	}
	return st, err
}
