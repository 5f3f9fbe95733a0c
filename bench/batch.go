package main

import (
	"bytes"
	"fmt"
	"hash/fnv"
	"runtime"
	"runtime/debug"
	"runtime/metrics"
	"strconv"
	"time"

	"grid3"
)

const day = 24 * time.Hour

// An untraced run builds at least setupSamples scenarios and keeps building
// until setupTime has gone into it, so setup_s is a steady median even
// when one repetition fills the time budget or one build takes 2 ms.
const (
	setupSamples = 5
	setupTime    = 200 * time.Millisecond
)

// setupDone reports whether enough builds have been timed.
func setupDone(setups []time.Duration) bool {
	var total time.Duration
	for _, d := range setups {
		total += d
	}
	return len(setups) >= setupSamples && total >= setupTime
}

// heapStats samples the heap-object footprint: live objects plus dead ones
// not yet swept, what the process holds. Its mean over a run repeats within
// 2% from run to run of one seed; its peak depends on whether a collection
// lands inside a short burst and reads up to 15% apart.
type heapStats struct {
	s    []metrics.Sample
	sum  float64
	n    int
	peak uint64
}

func newHeapStats() *heapStats {
	return &heapStats{s: []metrics.Sample{{Name: "/memory/classes/heap/objects:bytes"}}}
}

func (h *heapStats) sample() {
	metrics.Read(h.s)
	v := h.s[0].Value.Uint64()
	h.sum += float64(v)
	h.n++
	h.peak = max(h.peak, v)
}

func (h *heapStats) meanMB() float64 {
	if h.n == 0 {
		return 0
	}
	return h.sum / float64(h.n) / (1 << 20)
}

func (h *heapStats) peakMB() float64 { return float64(h.peak) / (1 << 20) }

// digest identifies a finished run's outcome: the scenario's full state
// walk and its rendered Table 1.
type digest struct {
	State  string `json:"state"`
	Table1 string `json:"table1"`
}

// batchRep is one complete run of a batch workload.
type batchRep struct {
	setup, run, finish, report time.Duration
	hours                      []time.Duration
	heapMB, peakHeapMB         float64
	events                     uint64
	mallocs, allocBytes        uint64
	gcCycles                   uint32
	gcPause                    time.Duration
	digest                     digest
	counts                     map[string]float64
	// speed is the repetition's host-speed factor (see hostSpeed).
	speed float64
}

// ref converts one of the repetition's measured durations to reference
// seconds.
func (r batchRep) ref(d time.Duration) float64 { return d.Seconds() * r.speed }

// runBatchRep advances s one simulated hour per RunUntil to its horizon,
// finishes it, and renders Table 1 and the milestones: the span run_s times.
// The host-speed samples taken between steps are left out of that span.
// Spans go to tr under root when tr is not nil.
func runBatchRep(s *grid3.Scenario, host *hostSpeed, tr *tracer, root uint64) batchRep {
	var rep batchRep
	heap := newHeapStats()
	var m0, m1 runtime.MemStats
	// Return freed memory to the OS so every repetition pays the same page
	// faults; otherwise the first repetition of a run is the slow one.
	debug.FreeOSMemory()
	runtime.ReadMemStats(&m0)

	horizon := s.Cfg.Horizon
	n := int(horizon / time.Hour)
	rep.hours = make([]time.Duration, 0, n)
	var calib time.Duration
	start := time.Now()
	for h := 1; h <= n; h++ {
		t := time.Now()
		s.RunUntil(time.Duration(h) * time.Hour)
		end := time.Now()
		rep.hours = append(rep.hours, end.Sub(t))
		heap.sample()
		if tr != nil {
			tr.record(0, "hour["+strconv.Itoa(h-1)+"]", root, t, end)
		}
		calib += host.worked(end.Sub(t))
	}

	t := time.Now()
	s.Finish()
	end := time.Now()
	rep.finish = end.Sub(t)
	heap.sample()
	tr.record(0, "finish", root, t, end)
	calib += host.worked(rep.finish)

	t = time.Now()
	var table, milestones bytes.Buffer
	s.WriteTable1(&table)
	s.ComputeMilestones().Write(&milestones)
	end = time.Now()
	rep.report = end.Sub(t)
	rep.run = end.Sub(start) - calib
	tr.record(0, "report", root, t, end)
	host.worked(rep.report)
	rep.speed = host.factor()

	runtime.ReadMemStats(&m1)
	rep.heapMB, rep.peakHeapMB = heap.meanMB(), heap.peakMB()
	rep.events = s.Grid.Eng.Processed()
	rep.mallocs = m1.Mallocs - m0.Mallocs
	rep.allocBytes = m1.TotalAlloc - m0.TotalAlloc
	rep.gcCycles = m1.NumGC - m0.NumGC
	rep.gcPause = time.Duration(m1.PauseTotalNs - m0.PauseTotalNs)
	h := fnv.New64a()
	h.Write(table.Bytes())
	rep.digest.Table1 = fmt.Sprintf("%016x", h.Sum64())
	return rep
}

// gridCounts reads the deterministic per-layer counts through the layers'
// public accessors.
func gridCounts(g *grid3.Grid) map[string]float64 {
	c := map[string]float64{
		"sim.events":                float64(g.Eng.Processed()),
		"sim.discarded":             float64(g.Eng.Discarded()),
		"gridftp.completed":         float64(g.Network.Completed()),
		"gridftp.failures":          float64(g.Network.Failures()),
		"gridftp.peak_queue":        float64(g.Network.PeakQueueDepth()),
		"gridftp.mean_queue_wait_s": g.Network.MeanQueueWait().Seconds(),
		"rls.index_size":            float64(g.RLI.IndexSize()),
		"rls.known_lfns":            float64(g.RLI.KnownLFNs()),
		"monalisa.series":           float64(len(g.Repo.Series())),
		"goc.tickets":               float64(g.Desk.TicketCount()),
	}
	for _, sch := range g.Schedds {
		c["condorg.submitted"] += float64(sch.SubmittedCount())
		c["condorg.completed"] += float64(sch.CompletedCount())
		c["condorg.held"] += float64(sch.HeldCount())
		c["condorg.match_failures"] += float64(sch.MatchFailures())
	}
	if c["condorg.submitted"] > 0 {
		c["condorg.completed_per_submitted"] = c["condorg.completed"] / c["condorg.submitted"]
	}
	for _, n := range g.Nodes {
		c["batch.started"] += float64(n.Batch.TotalStarted())
		c["batch.failed"] += float64(n.Batch.TotalFailed())
	}
	if g.Ledger != nil {
		c["ingest.windows"] = float64(g.Ledger.Len())
	}
	return c
}

// batchRunner measures one batch workload at one seed.
type batchRunner struct {
	w      workload
	o      options
	opts   []grid3.Option
	setups []time.Duration
	// setupHost samples the host once after each build.
	setupHost *hostSpeed
	reps      []batchRep
}

// runBatch measures a batch workload: repetitions of the whole run until
// the time budget would be overrun (at least one), or, traced, one untraced
// and one traced repetition.
func runBatch(w workload, o options) (outcome, error) {
	host, err := newHostSpeed()
	if err != nil {
		return outcome{}, err
	}
	b := &batchRunner{w: w, o: o, setupHost: host,
		opts: append([]grid3.Option{grid3.WithSeed(o.seed)}, w.options(o.smoke)...)}
	if o.traceDir != "" {
		return b.traced()
	}
	return b.untraced()
}

func (b *batchRunner) build() (*grid3.Scenario, error) {
	runtime.GC()
	t := time.Now()
	s, err := grid3.NewScenario(b.opts...)
	b.setups = append(b.setups, time.Since(t))
	b.setupHost.sample()
	if err != nil {
		return nil, fmt.Errorf("%s: building scenario: %w", b.w.name, err)
	}
	return s, nil
}

// measure builds a scenario and runs one repetition on it. around, when not
// nil, runs the repetition it is given between starting and stopping the
// traced run's profilers.
func (b *batchRunner) measure(tr *tracer, root uint64, around func(run func()) error) (batchRep, error) {
	host, err := newHostSpeed()
	if err != nil {
		return batchRep{}, err
	}
	t := time.Now()
	s, err := b.build()
	if err != nil {
		return batchRep{}, err
	}
	tr.record(0, "setup", root, t, time.Now())
	var rep batchRep
	run := func() { rep = runBatchRep(s, host, tr, root) }
	if around == nil {
		run()
	} else if err := around(run); err != nil {
		return batchRep{}, err
	}
	rep.digest.State = fmt.Sprintf("%016x", s.StateDigest(nil))
	// After the digest: KnownLFNs prunes expired RLS entries as it counts.
	rep.counts = gridCounts(s.Grid)
	rep.setup = b.setups[len(b.setups)-1]
	b.reps = append(b.reps, rep)
	b.o.logf("  rep %d: setup %.4f s, run %.4f s wall at host speed %.3f, %d hours, %d events, digest %s/%s",
		len(b.reps), rep.setup.Seconds(), rep.run.Seconds(), rep.speed, len(rep.hours), rep.events,
		rep.digest.State, rep.digest.Table1)
	return rep, nil
}

func (b *batchRunner) untraced() (outcome, error) {
	for !setupDone(b.setups) {
		s, err := b.build()
		if err != nil {
			return outcome{}, err
		}
		s.Grid.Close()
	}
	deadline := time.Now().Add(b.o.seconds)
	for {
		rep, err := b.measure(nil, 0, nil)
		if err != nil {
			return outcome{}, err
		}
		if time.Until(deadline) < rep.setup+rep.run {
			break
		}
	}

	var runs, heaps, hours []float64
	for _, r := range b.reps {
		runs = append(runs, r.ref(r.run))
		heaps = append(heaps, r.heapMB)
		for _, h := range r.hours {
			hours = append(hours, r.ref(h)*1000)
		}
	}
	// The tail percentile follows from one repetition's hour count, so a
	// workload reports the same percentile however many repetitions fit.
	pm, _ := tailPercentile(len(b.reps[0].hours))
	b.o.logf("  hour steps: p50 and p%g over %d samples", float64(pm)/10, len(hours))
	values := map[string]float64{
		"setup_s": durMedian(b.setups) * b.setupHost.factor(),
		"run_s":   median(runs),
		"heap_mb": median(heaps),
		"p50_ms":  floatAt(hours, 500),
		"p99_ms":  floatAt(hours, pm),
	}
	return outcome{attempted: len(b.reps), failed: b.checkDigests(), values: values}, nil
}

// traced runs an untraced repetition, then a traced one under the CPU and
// allocation profilers, and derives the per-layer metrics.
func (b *batchRunner) traced() (outcome, error) {
	base, err := b.measure(nil, 0, nil)
	if err != nil {
		return outcome{}, err
	}
	tr := newTracer(b.w.name, b.o.seed)
	root := tr.newID()
	start := time.Now()
	var prof *profiler
	rep, err := b.measure(tr, root, func(run func()) error {
		var err error
		if prof, err = startProfiler(b.o.traceDir, b.w.name); err != nil {
			return err
		}
		run()
		return prof.stop()
	})
	if err != nil {
		return outcome{}, err
	}
	tr.record(root, "run", 0, start, time.Now())
	if err := tr.writeJSONL(b.o.tracePath(b.w.name + ".spans.jsonl")); err != nil {
		return outcome{}, err
	}
	cpu, alloc, err := prof.attribute()
	if err != nil {
		return outcome{}, err
	}

	values := layerShares(cpu, alloc, float64(rep.events))
	for k, v := range base.counts {
		values[k] = v
	}
	ev := float64(base.events)
	values["allocs_per_event"] = float64(base.mallocs) / ev
	values["bytes_per_event"] = float64(base.allocBytes) / ev
	values["gc.cycles"] = float64(base.gcCycles)
	values["gc.pause_ms"] = base.ref(base.gcPause) * 1000
	values["heap.peak_mb"] = base.peakHeapMB
	hours := summarize(tr.durations("hour["))
	values["engine.hour_p50_ms"] = rep.ref(hours.P50) * 1000
	values["engine.hour_p99_ms"] = rep.ref(hours.Tail) * 1000
	values["engine.hour_samples"] = float64(hours.N)
	values["engine.finish_ms"] = rep.ref(rep.finish) * 1000
	values["report_ms"] = rep.ref(rep.report) * 1000
	// Wall times: the two repetitions run back to back, and one factor per
	// repetition would add the reference loop's error to the ratio.
	values["trace_overhead"] = rep.run.Seconds()/base.run.Seconds() - 1
	return outcome{attempted: len(b.reps), failed: b.checkDigests(), values: values}, nil
}

// layerShares turns profile attributions into cpu.*, cpu_incl.* shares and
// alloc.* bytes per event.
func layerShares(cpu, alloc attribution, events float64) map[string]float64 {
	v := map[string]float64{}
	for _, l := range layers {
		if cpu.Total > 0 {
			v["cpu."+l] = cpu.Self[l] / cpu.Total
		}
		if events > 0 {
			v["alloc."+l] = alloc.Self[l] / events
		}
	}
	for _, l := range inclLayers {
		if cpu.Total > 0 {
			v["cpu_incl."+l] = cpu.Incl[l] / cpu.Total
		}
	}
	return v
}

// checkDigests counts the repetitions whose outcome differs from the
// reference: the stored seed-1 digest at full size, otherwise the first
// repetition. Every repetition runs the same seed, traced or not, so any
// difference means the run is not deterministic or tracing steered it.
func (b *batchRunner) checkDigests() int {
	want := b.reps[0].digest
	if b.o.seed == 1 && !b.o.smoke {
		stored, ok := storedDigests[b.w.name]
		if !ok {
			b.o.logf("  no stored seed-1 digest for %s", b.w.name)
			return len(b.reps)
		}
		want = stored
	}
	failed := 0
	for i, r := range b.reps {
		if r.digest != want {
			b.o.logf("  rep %d: digest %s/%s, want %s/%s", i+1,
				r.digest.State, r.digest.Table1, want.State, want.Table1)
			failed++
		}
	}
	return failed
}
