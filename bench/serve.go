package main

import (
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"runtime"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"grid3"
)

const (
	// warmHours is how far the daemon runs before serving: a simulated
	// day, four RLS publications, so lookups have registered LFNs to find.
	warmHours = 24
	// closedRate sizes the closed-loop work: requests per second of
	// measurement, about half the daemon's closed-loop rate on the
	// reference host, since enrollments slow it as VO membership grows.
	closedRate = 1500
	// fixedRate is the open-loop rate of the traced run's fixed phase,
	// well under the knee.
	fixedRate = 200.0
	// The knee search bisects this range of open-loop rates.
	kneeLo, kneeHi = 100.0, 3200.0
	kneeProbes     = 6
	// A rate passes when p99 latency and the generator's own lateness stay
	// within kneeLimit and at least kneeGoodput of requests succeed.
	kneeLimit   = 10 * time.Millisecond
	kneeGoodput = 0.99
	// seedJobs are submitted before measuring, so status polls always have
	// known IDs to ask for.
	seedJobs = 16
	// maxLFNs caps how many registered LFNs the RLS lookups draw from.
	maxLFNs = 512
)

// serveRunner measures the serve workload: grid3d's defaults warmed to sim
// hour warmHours, then the portal mix over nproc loopback connections. A
// smoke run keeps the daemon's size, which builds in a fraction of a
// second, and shrinks only the load.
type serveRunner struct {
	w      workload
	o      options
	opts   []grid3.Option
	setups []time.Duration
	// setupHost samples the host once after each build.
	setupHost *hostSpeed
	tr        *tracer
	root      uint64
}

func runServe(w workload, o options) (outcome, error) {
	host, err := newHostSpeed()
	if err != nil {
		return outcome{}, err
	}
	r := &serveRunner{w: w, o: o, setupHost: host,
		opts: append([]grid3.Option{grid3.WithSeed(o.seed)}, w.options(o.smoke)...)}
	if o.traceDir != "" {
		return r.traced()
	}
	return r.untraced()
}

// build assembles the daemon and advances it to the warm-up hour, one
// RunUntil per simulated hour, before its loop starts.
func (r *serveRunner) build() (*grid3.Server, error) {
	runtime.GC()
	start := time.Now()
	svc, err := grid3.Serve(r.opts...)
	if err != nil {
		return nil, fmt.Errorf("serve: %w", err)
	}
	sc := svc.Scenario()
	for h := 1; h <= warmHours; h++ {
		t := time.Now()
		sc.RunUntil(time.Duration(h) * time.Hour)
		if r.tr != nil {
			r.tr.record(0, "hour["+strconv.Itoa(h-1)+"]", r.root, t, time.Now())
		}
	}
	r.setups = append(r.setups, time.Since(start))
	r.setupHost.sample()
	return svc, nil
}

// daemon is a started service behind a loopback HTTP server.
type daemon struct {
	svc    *grid3.Server
	ts     *httptest.Server
	client *client
	timer  *handlerTimer
	seeded int // seed submissions that failed
}

func (r *serveRunner) start(svc *grid3.Server) (*daemon, error) {
	d := &daemon{svc: svc, timer: &handlerTimer{tr: r.tr}}
	var h http.Handler = grid3.Handler(svc)
	if r.tr != nil {
		h = d.timer.wrap(h)
	}
	d.ts = httptest.NewServer(h)
	svc.Start()
	lfns, err := registeredLFNs(svc)
	if err != nil {
		d.stop()
		return nil, err
	}
	d.client = newClient(d.ts.URL, runtime.NumCPU(), lfns)
	for i := range seedJobs {
		if ok, _ := d.client.do(0, request{kind: kSubmit, vo: i % len(vos), draw: uint32(i)}, 0); !ok {
			d.seeded++
		}
	}
	if len(d.client.ids) == 0 {
		d.stop()
		return nil, fmt.Errorf("serve: no seed submission was accepted")
	}
	r.o.logf("  daemon warmed to hour %d: %d registered LFNs for RLS lookups, %d connections",
		warmHours, len(lfns), len(d.client.conns))
	return d, nil
}

// stop shuts the HTTP server and the daemon down and returns how long the
// daemon's Stop (the scenario's Finish) took.
func (d *daemon) stop() time.Duration {
	if d.client != nil {
		d.client.close()
	}
	d.ts.Close()
	t := time.Now()
	d.svc.Stop()
	return time.Since(t)
}

// registeredLFNs reads, through the ingress boundary, the LFNs the warmed
// grid's LRCs hold that the RLI can locate, sorted and thinned to maxLFNs.
func registeredLFNs(svc *grid3.Server) ([]string, error) {
	var lfns []string
	err := svc.Do(func() {
		g := svc.Scenario().Grid
		for _, name := range g.Order {
			for _, lfn := range g.Nodes[name].LRC.LFNs() {
				if _, err := g.RLI.Locate(lfn); err == nil {
					lfns = append(lfns, lfn)
				}
			}
		}
	})
	if err != nil {
		return nil, err
	}
	if len(lfns) == 0 {
		return nil, fmt.Errorf("serve: the warmed grid registered no locatable LFN")
	}
	sort.Strings(lfns)
	if len(lfns) > maxLFNs {
		thin := make([]string, 0, maxLFNs)
		for i := range maxLFNs {
			thin = append(thin, lfns[i*len(lfns)/maxLFNs])
		}
		lfns = thin
	}
	return lfns, nil
}

// handlerTimer is benchmark middleware around the API handler: while on,
// it times each request server-side and records a handler span under the
// client's request span.
type handlerTimer struct {
	on      atomic.Bool
	tr      *tracer
	mu      sync.Mutex
	samples []time.Duration
}

func (h *handlerTimer) wrap(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		if !h.on.Load() {
			next.ServeHTTP(w, req)
			return
		}
		t := time.Now()
		next.ServeHTTP(w, req)
		end := time.Now()
		parent, _ := strconv.ParseUint(req.Header.Get(spanHeader), 10, 64)
		h.tr.record(0, "handler", parent, t, end)
		h.mu.Lock()
		h.samples = append(h.samples, end.Sub(t))
		h.mu.Unlock()
	})
}

// probeMailbox posts a no-op through the ingress mailbox every interval
// until stop closes, and sends back how long each waited between enqueue
// and execution.
func probeMailbox(svc *grid3.Server, every time.Duration, stop <-chan struct{}, out chan<- []time.Duration) {
	var waits []time.Duration
	tick := time.NewTicker(every)
	defer tick.Stop()
	for {
		select {
		case <-stop:
			out <- waits
			return
		case <-tick.C:
			t := time.Now()
			var w time.Duration
			if svc.Do(func() { w = time.Since(t) }) == nil {
				waits = append(waits, w)
			}
		}
	}
}

// sampleHeap samples the heap every interval until stop closes.
func sampleHeap(h *heapStats, every time.Duration, stop <-chan struct{}, done chan<- struct{}) {
	tick := time.NewTicker(every)
	defer tick.Stop()
	for {
		select {
		case <-stop:
			close(done)
			return
		case <-tick.C:
			h.sample()
		}
	}
}

// score summarizes an open-loop phase: latency from due time over every
// planned request, where one that failed or was never sent counts as
// slower than any limit.
func (p phase) score() (lat latency, good float64, late latency) {
	lats := make([]time.Duration, len(p.calls))
	ok := 0
	for i, c := range p.calls {
		lats[i] = time.Duration(math.MaxInt64)
		if c.ok {
			lats[i] = c.lat
			ok++
		}
	}
	if len(p.calls) > 0 {
		good = float64(ok) / float64(len(p.calls))
	}
	return summarize(lats), good, summarize(p.late)
}

// countFailed counts incorrect answers, and refusals too when refusedFails.
func countFailed(calls []call, refusedFails bool) int {
	n := 0
	for _, c := range calls {
		if c.wrong || (refusedFails && !c.ok) {
			n++
		}
	}
	return n
}

// session is one daemon's measured closed loop: a fixed number of
// requests from the seed's plan, so every session at one seed sends the
// same requests in the same order and the daemon's state grows the same
// way (each enrollment makes the next one dearer).
type session struct {
	d      *daemon
	closed []call
	// closedTime is the wall time the closed-loop requests took.
	closedTime time.Duration
	// Engine events and allocation counters over the closed loop.
	events     uint64
	mem0, mem1 runtime.MemStats
	// host samples the host's speed and heap the heap until stop is
	// called.
	host *hostSpeed
	heap *heapStats
	stop func()
}

// closedRequests sizes the closed-loop work at share of a measurement.
func (r *serveRunner) closedRequests(share float64) int {
	return max(100, int(closedRate*r.o.seconds.Seconds()*share))
}

// runSession builds and starts a daemon and runs n closed-loop requests on
// it, traced when the runner has a tracer; ready, when not nil, runs just
// before the requests. The caller stops s.d, then calls s.stop.
func (r *serveRunner) runSession(n int, ready func(*daemon) error) (*session, error) {
	host, err := newHostSpeed()
	if err != nil {
		return nil, err
	}
	s := &session{host: host, heap: newHeapStats()}
	stopHost, hostDone := make(chan struct{}), make(chan struct{})
	stopHeap, heapDone := make(chan struct{}), make(chan struct{})
	go s.host.every(stopHost, hostDone)
	go sampleHeap(s.heap, 100*time.Millisecond, stopHeap, heapDone)
	s.stop = func() {
		close(stopHost)
		close(stopHeap)
		<-hostDone
		<-heapDone
	}
	t := time.Now()
	svc, err := r.build()
	if err == nil {
		s.d, err = r.start(svc)
	}
	if err != nil {
		s.stop()
		return nil, err
	}
	r.tr.record(0, "setup", r.root, t, time.Now())
	if ready != nil {
		if err := ready(s.d); err != nil {
			s.d.stop()
			s.stop()
			return nil, err
		}
	}
	s.d.timer.on.Store(r.tr != nil)
	s.d.client.tr = r.tr
	ev0, err0 := engineEvents(svc)
	runtime.ReadMemStats(&s.mem0)
	id, t := r.tr.newID(), time.Now()
	s.closed = s.d.client.closedLoop(rand.New(rand.NewSource(r.o.seed)), n, id)
	s.closedTime = time.Since(t)
	r.tr.record(id, "closed", r.root, t, time.Now())
	runtime.ReadMemStats(&s.mem1)
	ev1, err1 := engineEvents(svc)
	if err := firstErr(err0, err1); err != nil {
		s.d.stop()
		s.stop()
		return nil, err
	}
	s.events = ev1 - ev0
	lat := s.latency()
	r.o.logf("  closed loop: %d requests in %.4f s wall, p50 %.4f ms, p%g %.4f ms wall; host speed %.3f",
		len(s.closed), s.closedTime.Seconds(), ms(lat.P50), float64(lat.TailPM)/10, ms(lat.Tail), s.host.factor())
	return s, nil
}

// latency summarizes the closed-loop requests, each timed from send to
// answer.
func (s *session) latency() latency {
	lats := make([]time.Duration, len(s.closed))
	for i, c := range s.closed {
		lats[i] = c.lat
	}
	return summarize(lats)
}

func (s *session) attempted() int { return seedJobs + len(s.closed) }

func (s *session) failed() int { return s.d.seeded + countFailed(s.closed, true) }

func firstErr(errs ...error) error {
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

func engineEvents(svc *grid3.Server) (uint64, error) {
	var n uint64
	err := svc.Do(func() { n = svc.Scenario().Grid.Eng.Processed() })
	return n, err
}

func (r *serveRunner) untraced() (outcome, error) {
	for !setupDone(r.setups) {
		svc, err := r.build()
		if err != nil {
			return outcome{}, err
		}
		svc.Scenario().Grid.Close() // never started: no loop to stop
	}
	s, err := r.runSession(r.closedRequests(1), nil)
	if err != nil {
		return outcome{}, err
	}
	s.d.stop()
	s.stop()
	lat, h := s.latency(), s.host
	values := map[string]float64{
		"setup_s": durMedian(r.setups) * r.setupHost.factor(),
		"run_s":   h.seconds(s.closedTime),
		"heap_mb": s.heap.meanMB(),
		"p50_ms":  h.ms(lat.P50),
		"p99_ms":  h.ms(lat.Tail),
	}
	return outcome{attempted: s.attempted(), failed: s.failed(), values: values}, nil
}

// traced runs the closed loop untraced and then traced on fresh daemons,
// profiles the traced one through its closed loop and a fixed-rate open
// loop, and last searches its knee untraced.
func (r *serveRunner) traced() (outcome, error) {
	n := r.closedRequests(0.4)
	base, err := r.runSession(n, nil)
	if err != nil {
		return outcome{}, err
	}
	base.d.stop()
	base.stop()

	r.tr = newTracer(r.w.name, r.o.seed)
	r.root = r.tr.newID()
	start := time.Now()
	var prof *profiler
	var ev0 uint64
	s, err := r.runSession(n, func(d *daemon) error {
		var err error
		if ev0, err = engineEvents(d.svc); err != nil {
			return err
		}
		prof, err = startProfiler(r.o.traceDir, r.w.name)
		return err
	})
	if err != nil {
		if prof != nil {
			prof.stop()
		}
		return outcome{}, err
	}
	defer s.stop()
	d, h := s.d, s.host
	stopProbe, waitsCh := make(chan struct{}), make(chan []time.Duration, 1)
	go probeMailbox(d.svc, 5*time.Millisecond, stopProbe, waitsCh)
	rng := rand.New(rand.NewSource(r.o.seed))
	fixedID, t := r.tr.newID(), time.Now()
	fixed := d.client.openLoop(rng, fixedRate, r.o.seconds/5, time.Second, fixedID)
	r.tr.record(fixedID, "fixed", r.root, t, time.Now())
	close(stopProbe)
	waits := <-waitsCh
	d.timer.on.Store(false)
	d.client.tr = nil
	ev1, err := engineEvents(d.svc)
	if err := firstErr(err, prof.stop()); err != nil {
		d.stop()
		return outcome{}, err
	}
	st, err := d.svc.StatusNow()
	var counts map[string]float64
	if err == nil {
		err = d.svc.Do(func() { counts = gridCounts(d.svc.Scenario().Grid) })
	}
	if err != nil {
		d.stop()
		return outcome{}, err
	}

	probe := r.o.seconds / 10
	kneeFailed := 0
	knee := bisect(kneeLo, kneeHi, kneeProbes, func(rate float64) bool {
		p := d.client.openLoop(rng, rate, probe, probe/4, 0)
		kneeFailed += countFailed(p.calls, false)
		lat, good, late := p.score()
		pass := lat.Tail <= kneeLimit && good >= kneeGoodput && late.Tail <= kneeLimit
		r.o.logf("  knee probe %.0f req/s: p%g %.3f ms, goodput %.4f, late p%g %.3f ms wall, pass %v",
			rate, float64(lat.TailPM)/10, ms(lat.Tail), good, float64(late.TailPM)/10, ms(late.Tail), pass)
		return pass
	})
	finish := d.stop()
	r.tr.record(r.root, "run", 0, start, time.Now())
	if err := r.tr.writeJSONL(r.o.tracePath(r.w.name + ".spans.jsonl")); err != nil {
		return outcome{}, err
	}
	cpu, alloc, err := prof.attribute()
	if err != nil {
		return outcome{}, err
	}

	values := layerShares(cpu, alloc, float64(ev1-ev0))
	for k, v := range counts {
		values[k] = v
	}
	ev := float64(base.events)
	values["allocs_per_event"] = float64(base.mem1.Mallocs-base.mem0.Mallocs) / ev
	values["bytes_per_event"] = float64(base.mem1.TotalAlloc-base.mem0.TotalAlloc) / ev
	values["gc.cycles"] = float64(base.mem1.NumGC - base.mem0.NumGC)
	values["gc.pause_ms"] = base.host.ms(time.Duration(base.mem1.PauseTotalNs - base.mem0.PauseTotalNs))
	values["heap.peak_mb"] = base.heap.peakMB()
	hours := summarize(r.tr.durations("hour["))
	values["engine.hour_p50_ms"] = h.ms(hours.P50)
	values["engine.hour_p99_ms"] = h.ms(hours.Tail)
	values["engine.hour_samples"] = float64(hours.N)
	values["engine.finish_ms"] = h.ms(finish)

	lat, good, late := fixed.score()
	r.o.logf("  fixed %.0f req/s: %d requests, goodput %.4f, p50 %.4f ms, p%g %.4f ms, generator late p%g %.4f ms wall",
		fixedRate, lat.N, good, ms(lat.P50), float64(lat.TailPM)/10, ms(lat.Tail), float64(late.TailPM)/10, ms(late.Tail))
	values["serve.requests"] = float64(lat.N)
	values["serve.goodput"] = good
	values["serve.fixed_p50_ms"] = h.ms(lat.P50)
	values["serve.fixed_p99_ms"] = h.ms(lat.Tail)
	values["serve.max_rps"] = knee
	values["serve.gen_late_p99_ms"] = h.ms(late.Tail)
	mb := summarize(waits)
	values["serve.mailbox_wait_p50_ms"] = h.ms(mb.P50)
	values["serve.mailbox_wait_p99_ms"] = h.ms(mb.Tail)
	d.timer.mu.Lock()
	hl := summarize(d.timer.samples)
	d.timer.mu.Unlock()
	values["serve.handler_p50_ms"] = h.ms(hl.P50)
	values["serve.handler_p99_ms"] = h.ms(hl.Tail)
	values["serve.shed"] = float64(st.Shed)
	values["serve.lag_s"] = st.Lag.Seconds()
	for k, name := range endpointKinds {
		var lats []time.Duration
		for _, c := range fixed.calls {
			if c.kind == k && c.ok {
				lats = append(lats, c.lat)
			}
		}
		values["serve.endpoint."+name+".rps"] = float64(len(lats)) / fixed.window.Seconds()
		values["serve.endpoint."+name+".p99_ms"] = h.ms(summarize(lats).Tail)
	}
	values["trace_overhead"] = s.closedTime.Seconds()/base.closedTime.Seconds() - 1 // wall, as for batch
	r.o.logf("  mailbox probe: %d samples; handler: %d samples; knee %.0f req/s", mb.N, hl.N, knee)
	return outcome{
		attempted: base.attempted() + s.attempted() + len(fixed.calls),
		failed:    base.failed() + s.failed() + countFailed(fixed.calls, true) + kneeFailed,
		values:    values,
	}, nil
}
