// Package sim provides a deterministic discrete-event simulation engine.
//
// All Grid3 services run against a virtual clock owned by an Engine. Events
// scheduled for the same instant fire in the order they were scheduled, so a
// simulation is reproducible bit-for-bit given the same inputs and RNG seed.
//
// Times are expressed as time.Duration offsets from the engine's epoch, which
// anchors the simulation to a wall-clock date (Grid3 scenarios start on
// 2003-10-23, the first day of the Table 1 sample window).
//
// The engine is built for the hot path of a full 183-day campaign (~10^7
// events): a hand-rolled 4-ary min-heap over an event-slot arena with a free
// list, so steady-state scheduling performs no per-event allocation; a
// timer-wheel fast path for the fixed-interval ticks (monitoring collection,
// Condor-G negotiation, soft-state refresh) that dominate the queue, so a
// periodic re-arm never touches the main heap; and lazy cancellation with
// compaction once cancelled events exceed half the queue.
package sim

import (
	"fmt"
	"time"
)

// Clock exposes the current virtual time. Services that only need to read
// time (MDS soft-state expiry, monitoring timestamps) depend on Clock rather
// than the full Engine.
type Clock interface {
	// Now returns the current virtual time as an offset from the epoch.
	Now() time.Duration
	// WallClock returns the current virtual time as an absolute instant.
	WallClock() time.Time
}

// Scheduler is the write side of the engine: the ability to schedule events.
// Most services hold a Scheduler; tests may substitute their own.
type Scheduler interface {
	Clock
	// Schedule runs fn after delay. A negative delay is an error at Run time;
	// a zero delay runs fn after all currently pending events at Now.
	Schedule(delay time.Duration, fn func()) Event
	// At runs fn at absolute offset t, which must not be in the past.
	At(t time.Duration, fn func()) Event
}

// Event is a value handle to a scheduled callback. The zero Event is invalid
// (Valid reports false) and all its methods are no-ops. Handles are
// generation-checked against the engine's event arena: once an event has
// fired or been discarded its slot may be reused, and stale handles safely
// report not-pending rather than aliasing the new occupant.
type Event struct {
	eng *Engine
	at  time.Duration
	id  uint32
	gen uint32
}

// Time returns the virtual time at which the event was scheduled to fire.
func (ev Event) Time() time.Duration { return ev.at }

// Valid reports whether the handle refers to an event that was actually
// scheduled (as opposed to the zero Event).
func (ev Event) Valid() bool { return ev.eng != nil }

// Pending reports whether the event is still queued: not yet fired and not
// cancelled.
func (ev Event) Pending() bool {
	if ev.eng == nil {
		return false
	}
	s := &ev.eng.slots[ev.id]
	return s.gen == ev.gen && s.state == slotPending
}

// Cancelled reports whether Cancel was called on the event before it fired.
// Once the event's arena slot has been reused by a later event, a stale
// handle reports false.
func (ev Event) Cancelled() bool {
	if ev.eng == nil {
		return false
	}
	s := &ev.eng.slots[ev.id]
	if s.gen == ev.gen {
		return s.state == slotCancelled
	}
	if s.gen == ev.gen+1 {
		// The slot died exactly once since this handle was issued, so the
		// recorded cause of death is this event's.
		return s.prevCancelled
	}
	return false
}

// Cancel removes the event from the queue if it has not fired. Safe to call
// multiple times, on fired events, and on the zero Event.
func (ev Event) Cancel() {
	if ev.eng != nil {
		ev.eng.Cancel(ev)
	}
}

// Slot states in the event arena.
const (
	slotFree uint8 = iota
	slotPending
	slotCancelled
)

// slot is one arena entry. The scheduling key (at, seq) lives in the heap
// item, not here: the slot only carries what Cancel and firing need.
type slot struct {
	fn            func()
	gen           uint32
	state         uint8
	prevCancelled bool // how generation gen-1 ended (fired vs cancelled)
}

// qitem is one entry of the 4-ary min-heap, ordered by (at, seq).
type qitem struct {
	at  time.Duration
	seq uint64
	id  uint32
}

func qless(a, b qitem) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	return a.seq < b.seq
}

// Engine is a single-threaded discrete-event executor. It is not safe for
// concurrent use: all Grid3 components run on one goroutine, which is what
// makes simulations deterministic. Run one Engine per goroutine to run
// campaigns in parallel (see internal/campaign).
type Engine struct {
	epoch time.Time
	now   time.Duration
	seq   uint64

	q         []qitem  // 4-ary min-heap over (at, seq)
	slots     []slot   // event arena; q items point into it
	freeSlots []uint32 // recycled arena indices
	cancelled int      // cancelled events still occupying q
	live      int      // scheduled one-shot events neither fired nor cancelled

	wheel timerWheel

	processed uint64
	discarded uint64
	running   bool
}

// NewEngine returns an engine whose virtual time starts at zero, anchored to
// the given epoch.
func NewEngine(epoch time.Time) *Engine {
	return &Engine{epoch: epoch}
}

// Grid3Epoch is the start of the paper's Table 1 sample window,
// October 23 2003 00:00 UTC.
var Grid3Epoch = time.Date(2003, time.October, 23, 0, 0, 0, 0, time.UTC)

// Now implements Clock.
func (e *Engine) Now() time.Duration { return e.now }

// WallClock implements Clock.
func (e *Engine) WallClock() time.Time { return e.epoch.Add(e.now) }

// Epoch returns the wall-clock instant corresponding to virtual time zero.
func (e *Engine) Epoch() time.Time { return e.epoch }

// Processed returns the number of events executed so far (one-shot events
// fired plus periodic timer ticks).
func (e *Engine) Processed() uint64 { return e.processed }

// Discarded returns the number of cancelled events physically removed from
// the queue so far — the housekeeping cost of lazy cancellation.
func (e *Engine) Discarded() uint64 { return e.discarded }

// Pending returns the number of live events scheduled but not yet fired:
// cancelled-but-undiscarded events are excluded, active periodic timers
// count one each. The live count is maintained incrementally in the arena
// bookkeeping (push/Cancel/fire) rather than derived from the queue, so
// Pending is O(1) and independent of how many cancelled entries are still
// awaiting lazy discard.
func (e *Engine) Pending() int {
	return e.live + e.wheel.active()
}

// Schedule implements Scheduler.
func (e *Engine) Schedule(delay time.Duration, fn func()) Event {
	if delay < 0 {
		panic(fmt.Sprintf("sim: negative delay %v", delay))
	}
	return e.push(e.now+delay, fn)
}

// At implements Scheduler.
func (e *Engine) At(t time.Duration, fn func()) Event {
	if t < e.now {
		panic(fmt.Sprintf("sim: scheduling into the past: %v < now %v", t, e.now))
	}
	return e.push(t, fn)
}

func (e *Engine) push(t time.Duration, fn func()) Event {
	if fn == nil {
		panic("sim: nil event function")
	}
	e.seq++
	var id uint32
	if n := len(e.freeSlots); n > 0 {
		id = e.freeSlots[n-1]
		e.freeSlots = e.freeSlots[:n-1]
	} else {
		e.slots = append(e.slots, slot{})
		id = uint32(len(e.slots) - 1)
	}
	s := &e.slots[id]
	s.fn = fn
	s.state = slotPending
	e.live++
	e.q = append(e.q, qitem{at: t, seq: e.seq, id: id})
	e.siftUp(len(e.q) - 1)
	return Event{eng: e, at: t, id: id, gen: s.gen}
}

// freeSlot retires an arena entry, recording how it ended, and makes it
// available for reuse under the next generation.
func (e *Engine) freeSlot(id uint32, wasCancelled bool) {
	s := &e.slots[id]
	s.fn = nil
	s.state = slotFree
	s.prevCancelled = wasCancelled
	s.gen++
	e.freeSlots = append(e.freeSlots, id)
}

// Cancel removes the event from the queue if it has not fired. It is safe to
// call multiple times and on events that have already fired. Cancellation is
// lazy — the heap entry is discarded when it surfaces — but once cancelled
// events outnumber live ones the queue is compacted in one pass.
func (e *Engine) Cancel(ev Event) {
	if ev.eng != e || ev.eng == nil {
		return
	}
	s := &e.slots[ev.id]
	if s.gen != ev.gen || s.state != slotPending {
		return
	}
	s.state = slotCancelled
	s.fn = nil // release the closure immediately
	e.cancelled++
	e.live--
	if e.cancelled > len(e.q)/2 && len(e.q) >= 64 {
		e.compact()
	}
}

// compact rebuilds the heap without the cancelled entries.
func (e *Engine) compact() {
	kept := e.q[:0]
	for _, it := range e.q {
		if e.slots[it.id].state == slotCancelled {
			e.freeSlot(it.id, true)
			e.discarded++
			continue
		}
		kept = append(kept, it)
	}
	e.q = kept
	e.cancelled = 0
	// Build-heap: sift down from the last parent. For a 4-ary heap the
	// parent of the final leaf n-1 is (n-2)/4.
	for i := (len(e.q) - 2) / 4; i >= 0; i-- {
		e.siftDown(i)
	}
}

// peekEvent returns the earliest live one-shot event, discarding cancelled
// entries that surface at the root.
func (e *Engine) peekEvent() (qitem, bool) {
	for len(e.q) > 0 {
		it := e.q[0]
		if e.slots[it.id].state != slotCancelled {
			return it, true
		}
		e.popRoot()
		e.freeSlot(it.id, true)
		e.discarded++
		e.cancelled--
	}
	return qitem{}, false
}

// Step fires the next pending event, if any, advancing the clock to its
// scheduled time. It reports whether an event was fired.
func (e *Engine) Step() bool {
	it, eok := e.peekEvent()
	tm, tok := e.wheel.peek()
	if eok && (!tok || qless(it, qitem{at: tm.at, seq: tm.seq})) {
		e.popRoot()
		s := &e.slots[it.id]
		fn := s.fn
		e.freeSlot(it.id, false)
		e.live--
		e.now = it.at
		e.processed++
		fn()
		return true
	}
	if tok {
		e.now = tm.at
		e.processed++
		e.wheel.fire(e)
		return true
	}
	return false
}

// Run fires events until the queue is empty.
func (e *Engine) Run() {
	e.guard()
	defer func() { e.running = false }()
	for e.Step() {
	}
}

// RunUntil fires events with timestamps ≤ t, then advances the clock to t.
// Events scheduled at exactly t do fire.
func (e *Engine) RunUntil(t time.Duration) {
	e.guard()
	defer func() { e.running = false }()
	for {
		it, eok := e.peekEvent()
		tm, tok := e.wheel.peek()
		if !eok && !tok {
			break
		}
		next := tm.at
		if eok && (!tok || qless(it, qitem{at: tm.at, seq: tm.seq})) {
			next = it.at
		}
		if next > t {
			break
		}
		e.Step()
	}
	if t > e.now {
		e.now = t
	}
}

// RunFor advances the simulation by d from the current time.
func (e *Engine) RunFor(d time.Duration) { e.RunUntil(e.now + d) }

func (e *Engine) guard() {
	if e.running {
		panic("sim: re-entrant Run")
	}
	e.running = true
}

// 4-ary heap primitives. A wider node halves the tree depth versus the
// binary container/heap layout, trading a few extra comparisons per level
// for far fewer cache-missing levels — the standard win for sift-down-heavy
// workloads like an event queue that pops as often as it pushes.

func (e *Engine) siftUp(i int) {
	it := e.q[i]
	for i > 0 {
		parent := (i - 1) / 4
		if !qless(it, e.q[parent]) {
			break
		}
		e.q[i] = e.q[parent]
		i = parent
	}
	e.q[i] = it
}

func (e *Engine) siftDown(i int) {
	n := len(e.q)
	it := e.q[i]
	for {
		first := 4*i + 1
		if first >= n {
			break
		}
		min := first
		last := first + 4
		if last > n {
			last = n
		}
		for c := first + 1; c < last; c++ {
			if qless(e.q[c], e.q[min]) {
				min = c
			}
		}
		if !qless(e.q[min], it) {
			break
		}
		e.q[i] = e.q[min]
		i = min
	}
	e.q[i] = it
}

// popRoot removes the heap minimum. Callers read q[0] first.
func (e *Engine) popRoot() {
	n := len(e.q) - 1
	e.q[0] = e.q[n]
	e.q = e.q[:n]
	if n > 0 {
		e.siftDown(0)
	}
}
