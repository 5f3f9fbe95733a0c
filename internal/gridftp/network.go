// Package gridftp provides Grid3's bulk data movement: a simulated wide-area
// network with max–min fair bandwidth sharing for scenario runs, and a real
// TCP file server/client speaking a GridFTP-like control protocol with GSI
// authentication for the examples and integration tests.
//
// The paper's transfer demonstrator (§6.3) moved more than 2 TB/day between
// Grid3 sites, nearly 100 TB in the 30 days around SC2003 (Figure 5), using
// NetLogger-instrumented GridFTP; with Instruments set, each transfer is a
// span that obs.Trace.WriteNetLogger renders as NetLogger start, end and
// error records. The simulation models each site's WAN link
// as a capacity shared by all concurrent transfers touching it, allocating
// rates by progressive filling (max–min fairness), which is the standard
// first-order model of long-lived TCP flows over shared links.
package gridftp

import (
	"cmp"
	"errors"
	"fmt"
	"math"
	"slices"
	"sort"
	"time"

	"grid3/internal/obs"
	"grid3/internal/sim"
)

// Instruments is the WAN's observability wiring: a transfer span per bulk
// movement plus volume and throughput metrics. A nil *Instruments (the
// default) disables all of it.
type Instruments struct {
	Tracer         *obs.Tracer
	Started        *obs.Counter
	Completed      *obs.Counter
	Failed         *obs.Counter
	Bytes          *obs.Counter   // completed transfer volume
	ThroughputMbps *obs.Histogram // achieved rate per completed transfer
	Queued         *obs.Counter   // transfers that waited for a door
	QueueWaitSecs  *obs.Histogram // time spent waiting for a door

	// metrics backs the lazily created per-VO byte counters (Figure 5's
	// per-VO traffic accounting); voBytes caches them by label.
	metrics *obs.Registry
	voBytes map[string]*obs.Counter
}

// NewInstruments wires network instruments into an observer; nil in, nil out.
func NewInstruments(o *obs.Observer) *Instruments {
	if o == nil {
		return nil
	}
	return &Instruments{
		Tracer:    o.Tracer,
		Started:   o.Metrics.Counter("gridftp.transfers.started"),
		Completed: o.Metrics.Counter("gridftp.transfers.completed"),
		Failed:    o.Metrics.Counter("gridftp.transfers.failed"),
		Bytes:     o.Metrics.Counter("gridftp.bytes.completed"),
		ThroughputMbps: o.Metrics.Histogram("gridftp.throughput.mbps",
			[]float64{1, 5, 10, 25, 50, 100, 250, 500, 1000, 2500, 10000}),
		Queued: o.Metrics.Counter("gridftp.transfers.queued"),
		QueueWaitSecs: o.Metrics.Histogram("gridftp.queue.wait.secs",
			[]float64{1, 10, 60, 300, 1800, 3600, 21600}),
		metrics: o.Metrics,
	}
}

// labelBytes returns the per-VO completed-bytes counter for a label,
// creating it on first use ("gridftp.bytes.vo.<label>").
func (in *Instruments) labelBytes(label string) *obs.Counter {
	if in.metrics == nil {
		return nil // Counter methods are nil-safe
	}
	c, ok := in.voBytes[label]
	if !ok {
		c = in.metrics.Counter("gridftp.bytes.vo." + label)
		if in.voBytes == nil {
			in.voBytes = make(map[string]*obs.Counter)
		}
		in.voBytes[label] = c
	}
	return c
}

// Errors.
var (
	ErrUnknownEndpoint = errors.New("gridftp: unknown endpoint")
	ErrEndpointDown    = errors.New("gridftp: endpoint down")
	ErrInterrupted     = errors.New("gridftp: transfer interrupted")
	ErrBadSize         = errors.New("gridftp: transfer size must be positive")
	ErrSameEndpoint    = errors.New("gridftp: source and destination are the same endpoint")
)

// IsEndpointFailure reports whether a transfer error is a site-side service
// failure (door down, unknown, or the transfer was severed by an outage) —
// the class where retrying an alternate replica source can succeed — as
// opposed to a caller mistake like a bad size.
func IsEndpointFailure(err error) bool {
	return errors.Is(err, ErrEndpointDown) ||
		errors.Is(err, ErrUnknownEndpoint) ||
		errors.Is(err, ErrInterrupted)
}

// Endpoint is one site's WAN attachment.
type Endpoint struct {
	Name        string
	CapacityBps float64 // bytes per second
	up          bool

	// Doors bounds concurrent transfers through this endpoint (the GridFTP
	// data-door limit, the gatekeeper-overload analog for data movement).
	// 0 means unbounded — the historical behavior.
	Doors int

	// Traffic accounting for Figure 5 ("data consumed by Grid3 sites").
	BytesIn  int64
	BytesOut int64

	// doorsBusy counts admitted transfers (including connection setup)
	// holding a door here; queuedHere counts pending transfers waiting on
	// this endpoint. Both feed replica ranking.
	doorsBusy  int
	queuedHere int

	// Progressive-filling scratch, valid only within one rebalance pass
	// (rebalGen marks which). Keeping it on the endpoint lets a pass run
	// without per-endpoint maps: the pass walks the endpoints it touched in
	// first-touch order and reads and updates these fields in place.
	// Between passes the leftover remCapScratch doubles as the live
	// allocation snapshot that Load reports.
	remCapScratch float64
	countScratch  int
	rebalGen      uint64

	// rank is the endpoint's position in sorted-name order. The bottleneck
	// search breaks share ties on it, which picks the endpoint a scan in
	// name order would, without sorting names each pass. Network.ranksStale
	// marks every rank out of date after an AddEndpoint.
	rank int
}

// Up reports whether the endpoint is in service.
func (e *Endpoint) Up() bool { return e.up }

// ActiveFlows returns the number of transfers currently holding a door.
func (e *Endpoint) ActiveFlows() int { return e.doorsBusy }

// QueuedFlows returns the number of transfers waiting for a door here.
func (e *Endpoint) QueuedFlows() int { return e.queuedHere }

// Transfer is one bulk file movement.
type Transfer struct {
	ID    int64
	Src   string
	Dst   string
	Bytes int64
	// Label tags the transfer for accounting, by convention the VO name.
	Label string

	Started time.Duration
	Ended   time.Duration

	remaining  float64
	rate       float64 // current allocation, bytes/sec
	lastUpdate time.Duration
	finish     sim.Event
	done       func(*Transfer, error)
	span       obs.SpanID

	// queuedAt stamps when the transfer joined the door queue (zero when it
	// was admitted immediately).
	queuedAt time.Duration

	// srcEP/dstEP are resolved once at Start so the rebalance and
	// completion paths never hash endpoint names again.
	srcEP, dstEP *Endpoint
	// onFinish is the completion callback, built once at Start so that
	// scheduling a finish event allocates nothing.
	onFinish func()
	// Progressive-filling scratch, valid only within one rebalance pass.
	newRate float64
	frozen  bool
}

// Rate returns the transfer's current bandwidth allocation in bytes/sec.
func (t *Transfer) Rate() float64 { return t.rate }

// Remaining returns bytes not yet moved as of the last rate recomputation.
func (t *Transfer) Remaining() int64 { return int64(math.Ceil(t.remaining)) }

// Network simulates the Grid3 WAN.
type Network struct {
	eng       *sim.Engine
	endpoints map[string]*Endpoint
	// active holds the in-flight transfers in ascending ID order: the
	// order a pass reschedules finish events in, which fixes the order
	// of same-instant completions, and the order outage victims fail in.
	active []*Transfer
	nextID int64

	// SetupDelay models connection establishment and GSI handshake
	// before data flows.
	SetupDelay time.Duration

	// DefaultDoors is the door count applied to endpoints added after it is
	// set; 0 keeps every endpoint unbounded (the historical WAN).
	DefaultDoors int

	// pending is the FIFO of transfers waiting for a free door on both of
	// their endpoints; drainPending coalesces admission scans the way
	// rebalancePending coalesces filling passes.
	pending      []*Transfer
	drainPending bool

	// Door-queue accounting for the data sweep.
	queuedTotal  int64
	peakQueue    int
	queueWaitSum time.Duration
	dequeued     int64

	// Ins enables transfer spans and throughput metrics; nil disables.
	Ins *Instruments

	// rebalancePending coalesces rate recomputations: many transfers
	// starting or finishing at the same virtual instant trigger a single
	// progressive-filling pass.
	rebalancePending bool

	// Pooled rebalance scratch: epScratch is the reusable backing array
	// for the endpoints a pass touches, and rebalGen stamps which pass an
	// endpoint's scratch fields belong to. ranksStale is set by
	// AddEndpoint; the next pass renumbers the name ranks with one sort,
	// so registering a thousand sites costs one sort, not a thousand.
	epScratch  []*Endpoint
	rebalGen   uint64
	ranksStale bool

	// TotalBytes accumulates completed transfer volume by label.
	totalByLabel map[string]int64
	completed    int64
	failures     int64

	// history logs completed transfers for windowed queries (Figure 5's
	// "30 days before and after SC2003" accounting).
	history []CompletedTransfer
}

// CompletedTransfer is one history row.
type CompletedTransfer struct {
	Src, Dst string
	Label    string
	Bytes    int64
	Ended    time.Duration
}

// NewNetwork creates an empty WAN attached to the engine.
func NewNetwork(eng *sim.Engine) *Network {
	return &Network{
		eng:          eng,
		endpoints:    make(map[string]*Endpoint),
		SetupDelay:   2 * time.Second,
		totalByLabel: make(map[string]int64),
	}
}

// AddEndpoint attaches a site with the given WAN capacity in megabits/s.
func (n *Network) AddEndpoint(name string, mbps float64) *Endpoint {
	if mbps <= 0 {
		panic(fmt.Sprintf("gridftp: endpoint %s capacity %f", name, mbps))
	}
	e := &Endpoint{Name: name, CapacityBps: mbps * 1e6 / 8, up: true, Doors: n.DefaultDoors}
	n.endpoints[name] = e
	n.ranksStale = true
	return e
}

// Load reports an endpoint's live WAN state: transfers holding doors
// (including connection setup), transfers queued for a door, and the
// fraction of link capacity allocated by the most recent max–min filling
// pass. Unknown endpoints report idle.
func (n *Network) Load(name string) (flows, queued int, busyFrac float64) {
	e, ok := n.endpoints[name]
	if !ok {
		return 0, 0, 0
	}
	if e.rebalGen == n.rebalGen && e.CapacityBps > 0 {
		busyFrac = (e.CapacityBps - e.remCapScratch) / e.CapacityBps
	}
	return e.doorsBusy, e.queuedHere, busyFrac
}

// QueueDepth returns the number of transfers currently waiting for a door.
func (n *Network) QueueDepth() int { return len(n.pending) }

// PeakQueueDepth returns the deepest the door queue has been.
func (n *Network) PeakQueueDepth() int { return n.peakQueue }

// QueuedTotal returns how many transfers have ever waited for a door.
func (n *Network) QueuedTotal() int64 { return n.queuedTotal }

// MeanQueueWait returns the mean time queued transfers waited before
// admission (zero if nothing has been dequeued).
func (n *Network) MeanQueueWait() time.Duration {
	if n.dequeued == 0 {
		return 0
	}
	return n.queueWaitSum / time.Duration(n.dequeued)
}

// Endpoint returns a registered endpoint.
func (n *Network) Endpoint(name string) (*Endpoint, error) {
	e, ok := n.endpoints[name]
	if !ok {
		return nil, fmt.Errorf("%w: %s", ErrUnknownEndpoint, name)
	}
	return e, nil
}

// ActiveCount returns the number of in-flight transfers.
func (n *Network) ActiveCount() int { return len(n.active) }

// Completed returns the count of successful transfers.
func (n *Network) Completed() int64 { return n.completed }

// Failures returns the count of failed transfers.
func (n *Network) Failures() int64 { return n.failures }

// BytesByLabel returns completed bytes per label (VO), a fresh copy.
func (n *Network) BytesByLabel() map[string]int64 {
	out := make(map[string]int64, len(n.totalByLabel))
	for k, v := range n.totalByLabel {
		out[k] = v
	}
	return out
}

// BytesByLabelWindow returns completed bytes per label within (from, to].
func (n *Network) BytesByLabelWindow(from, to time.Duration) map[string]int64 {
	out := make(map[string]int64)
	for _, h := range n.history {
		if h.Ended > from && h.Ended <= to {
			out[h.Label] += h.Bytes
		}
	}
	return out
}

// BytesInByDstWindow returns completed bytes per destination site within
// (from, to] — Figure 5's "data consumed by Grid3 sites" view.
func (n *Network) BytesInByDstWindow(from, to time.Duration) map[string]int64 {
	out := make(map[string]int64)
	for _, h := range n.history {
		if h.Ended > from && h.Ended <= to {
			out[h.Dst] += h.Bytes
		}
	}
	return out
}

// History returns the completed-transfer log (live slice; do not mutate).
func (n *Network) History() []CompletedTransfer { return n.history }

// Start begins a transfer of size bytes from src to dst. done fires exactly
// once, with nil on success or an error if the transfer was interrupted.
func (n *Network) Start(src, dst string, size int64, label string, done func(*Transfer, error)) (*Transfer, error) {
	return n.StartTraced(src, dst, size, label, 0, done)
}

// StartTraced is Start with a lifecycle-span parent: the transfer span is
// linked under parent (a stage-in/stage-out or workflow span), so a job's
// trace includes the data movements it caused. With tracing disabled or
// parent 0 the behaviour is identical to Start.
func (n *Network) StartTraced(src, dst string, size int64, label string, parent obs.SpanID, done func(*Transfer, error)) (*Transfer, error) {
	if size <= 0 {
		return nil, ErrBadSize
	}
	if src == dst {
		return nil, fmt.Errorf("%w: %s", ErrSameEndpoint, src)
	}
	se, ok := n.endpoints[src]
	if !ok {
		return nil, fmt.Errorf("%w: %s", ErrUnknownEndpoint, src)
	}
	de, ok := n.endpoints[dst]
	if !ok {
		return nil, fmt.Errorf("%w: %s", ErrUnknownEndpoint, dst)
	}
	if !se.up {
		return nil, fmt.Errorf("%w: %s", ErrEndpointDown, src)
	}
	if !de.up {
		return nil, fmt.Errorf("%w: %s", ErrEndpointDown, dst)
	}
	n.nextID++
	t := &Transfer{
		ID:        n.nextID,
		Src:       src,
		Dst:       dst,
		Bytes:     size,
		Label:     label,
		remaining: float64(size),
		done:      done,
		srcEP:     se,
		dstEP:     de,
	}
	t.onFinish = func() { n.complete(t) }
	if in := n.Ins; in != nil {
		in.Started.Inc()
		t.span = in.Tracer.BeginTransfer(parent, label, label, src, dst, size)
	}
	if doorsFull(se) || doorsFull(de) {
		// Both endpoints must have a free door; otherwise wait in FIFO
		// order (the GridFTP door limit — excess requests queue at the
		// server instead of thrashing the link).
		t.queuedAt = n.eng.Now()
		se.queuedHere++
		de.queuedHere++
		n.pending = append(n.pending, t)
		n.queuedTotal++
		if len(n.pending) > n.peakQueue {
			n.peakQueue = len(n.pending)
		}
		if in := n.Ins; in != nil {
			in.Queued.Inc()
		}
		return t, nil
	}
	n.admit(t)
	return t, nil
}

// doorsFull reports whether an endpoint has no free door.
func doorsFull(e *Endpoint) bool { return e.Doors > 0 && e.doorsBusy >= e.Doors }

// admit takes a door on both endpoints and begins connection setup.
func (n *Network) admit(t *Transfer) {
	se, de := t.srcEP, t.dstEP
	se.doorsBusy++
	de.doorsBusy++
	n.eng.Schedule(n.SetupDelay, func() {
		// The endpoint may have failed during setup.
		if !se.up || !de.up {
			n.releaseDoors(t)
			n.fail(t, fmt.Errorf("%w during setup", ErrEndpointDown))
			return
		}
		t.Started = n.eng.Now()
		t.lastUpdate = t.Started
		n.activate(t)
		n.scheduleRebalance()
	})
}

// activate inserts t into the ID-ordered active list. Transfers activate
// in ID order unless the door queue held one back, so the search for its
// slot starts at the tail.
func (n *Network) activate(t *Transfer) {
	i := len(n.active)
	for i > 0 && n.active[i-1].ID > t.ID {
		i--
	}
	n.active = slices.Insert(n.active, i, t)
}

// releaseDoors returns a transfer's doors and wakes the admission scan.
func (n *Network) releaseDoors(t *Transfer) {
	t.srcEP.doorsBusy--
	t.dstEP.doorsBusy--
	n.scheduleDrain()
}

// scheduleDrain coalesces door-queue admission to the end of the current
// virtual instant, mirroring scheduleRebalance.
func (n *Network) scheduleDrain() {
	if n.drainPending || len(n.pending) == 0 {
		return
	}
	n.drainPending = true
	n.eng.Schedule(0, func() {
		n.drainPending = false
		n.drain()
	})
}

// drain scans the door queue in FIFO order, admitting every transfer whose
// endpoints both have a free door. A transfer blocked on a busy endpoint
// does not hold up later transfers between other endpoints (the scan is
// work-conserving), but transfers contending for the same door are served
// in arrival order.
func (n *Network) drain() {
	if len(n.pending) == 0 {
		return
	}
	now := n.eng.Now()
	kept := n.pending[:0]
	for _, t := range n.pending {
		if doorsFull(t.srcEP) || doorsFull(t.dstEP) {
			kept = append(kept, t)
			continue
		}
		t.srcEP.queuedHere--
		t.dstEP.queuedHere--
		wait := now - t.queuedAt
		n.queueWaitSum += wait
		n.dequeued++
		if in := n.Ins; in != nil {
			in.QueueWaitSecs.Observe(wait.Seconds())
		}
		n.admit(t)
	}
	n.pending = kept
}

// SetEndpointUp changes an endpoint's service state. Taking an endpoint
// down interrupts every transfer touching it (the §6.1 "network
// interruptions" failure class).
func (n *Network) SetEndpointUp(name string, up bool) error {
	e, ok := n.endpoints[name]
	if !ok {
		return fmt.Errorf("%w: %s", ErrUnknownEndpoint, name)
	}
	if e.up == up {
		return nil
	}
	e.up = up
	if !up {
		// Queued transfers touching the endpoint fail in arrival order —
		// they never held a door, so none is released. The queue is
		// filtered before any failure callback runs: a callback may queue
		// a new transfer (a replica failover restarting from another
		// source), and that transfer must stay queued.
		var dropped []*Transfer
		kept := n.pending[:0]
		for _, t := range n.pending {
			if t.Src != name && t.Dst != name {
				kept = append(kept, t)
				continue
			}
			t.srcEP.queuedHere--
			t.dstEP.queuedHere--
			dropped = append(dropped, t)
		}
		n.pending = kept
		for _, t := range dropped {
			n.fail(t, fmt.Errorf("%w: %s went down while queued", ErrEndpointDown, name))
		}
		// Active transfers touching it are severed in ID order.
		var victims []*Transfer
		for _, t := range n.active {
			if t.Src == name || t.Dst == name {
				victims = append(victims, t)
			}
		}
		n.settle()
		for _, t := range victims {
			n.remove(t)
			n.fail(t, fmt.Errorf("%w: %s went down", ErrInterrupted, name))
		}
		n.rebalanceSettled()
	}
	return nil
}

func (n *Network) fail(t *Transfer, err error) {
	t.Ended = n.eng.Now()
	n.failures++
	if in := n.Ins; in != nil {
		in.Failed.Inc()
		in.Tracer.Fail(t.span, err.Error())
	}
	if t.done != nil {
		t.done(t, err)
	}
}

func (n *Network) remove(t *Transfer) {
	if i, ok := slices.BinarySearchFunc(n.active, t.ID, func(a *Transfer, id int64) int {
		return cmp.Compare(a.ID, id)
	}); ok {
		n.active = slices.Delete(n.active, i, i+1)
	}
	t.finish.Cancel()
	t.finish = sim.Event{}
	n.releaseDoors(t)
}

// settle advances every active transfer's remaining-byte counter to now at
// its current rate.
func (n *Network) settle() {
	now := n.eng.Now()
	for _, t := range n.active {
		dt := (now - t.lastUpdate).Seconds()
		if dt > 0 {
			moved := t.rate * dt
			if moved > t.remaining {
				moved = t.remaining
			}
			t.remaining -= moved
			t.lastUpdate = now
		}
	}
}

// scheduleRebalance coalesces recomputation to the end of the current
// virtual instant: simultaneous starts/finishes cost one filling pass.
func (n *Network) scheduleRebalance() {
	if n.rebalancePending {
		return
	}
	n.rebalancePending = true
	n.eng.Schedule(0, func() {
		n.rebalancePending = false
		n.rebalance()
	})
}

// rebalance settles progress and recomputes all rates.
func (n *Network) rebalance() {
	n.settle()
	n.rebalanceSettled()
}

// rebalanceSettled assigns max–min fair rates by progressive filling and
// reschedules completion events. A pass walks the ID-ordered active list,
// keeps per-endpoint state in generation-stamped scratch fields, breaks
// share ties on the endpoints' name ranks, and hands the engine each
// transfer's prebuilt completion callback: it walks no map, sorts nothing,
// and, once the scratch arrays have grown, allocates nothing.
func (n *Network) rebalanceSettled() {
	// Bumping the generation also invalidates the endpoint allocation
	// snapshots: with nothing active, Load must report idle links, not the
	// last pass's rates.
	n.rebalGen++
	if len(n.active) == 0 {
		return
	}
	if n.ranksStale {
		n.rankEndpoints()
	}
	gen := n.rebalGen

	// Initialize per-endpoint remaining capacity and unfrozen counts,
	// collecting each endpoint the first time a transfer touches it.
	eps := n.epScratch[:0]
	for _, t := range n.active {
		t.frozen = false
		t.newRate = 0
		eps = touch(eps, t.srcEP, gen)
		eps = touch(eps, t.dstEP, gen)
	}
	n.epScratch = eps

	unfrozen := len(n.active)
	for unfrozen > 0 {
		// Find the bottleneck endpoint: minimum per-transfer share, ties to
		// the lowest name rank — the endpoint a scan in sorted-name order
		// with a strict < would pick.
		var bottleneck *Endpoint
		best := math.Inf(1)
		for _, ep := range eps {
			if ep.countScratch <= 0 {
				continue
			}
			share := ep.remCapScratch / float64(ep.countScratch)
			if share < best || (share == best && bottleneck != nil && ep.rank < bottleneck.rank) {
				best = share
				bottleneck = ep
			}
		}
		if bottleneck == nil {
			break
		}
		// Freeze every unfrozen transfer touching the bottleneck.
		for _, t := range n.active {
			if t.frozen || (t.srcEP != bottleneck && t.dstEP != bottleneck) {
				continue
			}
			t.newRate = best
			t.frozen = true
			unfrozen--
			t.srcEP.remCapScratch -= best
			t.dstEP.remCapScratch -= best
			t.srcEP.countScratch--
			t.dstEP.countScratch--
		}
	}

	// Reschedule completion events — but only for transfers whose rate
	// actually changed: with an unchanged rate, the previously scheduled
	// absolute finish time is still exact. The walk is in ID order because
	// the engine orders same-instant events by when they were scheduled.
	now := n.eng.Now()
	for _, t := range n.active {
		rate := t.newRate
		if t.finish.Pending() && rateClose(rate, t.rate) {
			continue
		}
		t.rate = rate
		t.finish.Cancel()
		t.finish = sim.Event{}
		if t.rate <= 0 {
			continue // starved; rescheduled on the next rebalance
		}
		secs := t.remaining / t.rate
		t.finish = n.eng.At(now+time.Duration(secs*float64(time.Second))+1, t.onFinish)
	}
}

// touch readies ep's filling scratch the first time pass gen reaches it,
// appending it to eps, and counts one more unfrozen transfer through it.
func touch(eps []*Endpoint, ep *Endpoint, gen uint64) []*Endpoint {
	if ep.rebalGen != gen {
		ep.rebalGen = gen
		ep.remCapScratch = ep.CapacityBps
		ep.countScratch = 0
		eps = append(eps, ep)
	}
	ep.countScratch++
	return eps
}

// rankEndpoints numbers every endpoint by its position in sorted-name
// order.
func (n *Network) rankEndpoints() {
	eps := make([]*Endpoint, 0, len(n.endpoints))
	for _, e := range n.endpoints {
		eps = append(eps, e)
	}
	sort.Slice(eps, func(i, j int) bool { return eps[i].Name < eps[j].Name })
	for i, e := range eps {
		e.rank = i
	}
	n.ranksStale = false
}

// rateClose reports whether two rates agree to within rounding noise.
func rateClose(a, b float64) bool {
	if a == b {
		return true
	}
	diff := math.Abs(a - b)
	return diff <= 1e-9*math.Max(math.Abs(a), math.Abs(b))
}

func (n *Network) complete(t *Transfer) {
	t.finish = sim.Event{} // this event has fired
	n.settle()
	if t.remaining > 0.5 {
		// Rounding left a sliver; finish it at the current rate.
		if t.rate > 0 {
			secs := t.remaining / t.rate
			t.finish = n.eng.Schedule(time.Duration(secs*float64(time.Second))+1, t.onFinish)
		}
		return
	}
	n.remove(t)
	t.Ended = n.eng.Now()
	n.completed++
	if in := n.Ins; in != nil {
		in.Completed.Inc()
		in.Bytes.Add(uint64(t.Bytes))
		in.labelBytes(t.Label).Add(uint64(t.Bytes))
		if secs := (t.Ended - t.Started).Seconds(); secs > 0 {
			in.ThroughputMbps.Observe(float64(t.Bytes) * 8 / 1e6 / secs)
		}
		in.Tracer.End(t.span)
	}
	n.totalByLabel[t.Label] += t.Bytes
	t.srcEP.BytesOut += t.Bytes
	t.dstEP.BytesIn += t.Bytes
	n.history = append(n.history, CompletedTransfer{
		Src: t.Src, Dst: t.Dst, Label: t.Label, Bytes: t.Bytes, Ended: t.Ended,
	})
	if t.done != nil {
		t.done(t, nil)
	}
	n.scheduleRebalance()
}
