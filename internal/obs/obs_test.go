package obs

import (
	"bytes"
	"math/rand"
	"reflect"
	"strconv"
	"strings"
	"testing"
	"time"
)

// fakeClock is a settable sim clock.
type fakeClock struct{ now time.Duration }

func (c *fakeClock) Now() time.Duration { return c.now }

func TestNilTracerIsNoOpAndAllocFree(t *testing.T) {
	var tr *Tracer
	if tr.Enabled() {
		t.Fatal("nil tracer reports enabled")
	}
	allocs := testing.AllocsPerRun(1000, func() {
		id := tr.Begin(KindJob, 0, "j", "vo", "site")
		tr.SetSite(id, "elsewhere")
		tr.End(id)
		tr.Fail(id, "nope")
	})
	if allocs != 0 {
		t.Fatalf("nil tracer allocated %.1f per op, want 0", allocs)
	}
	if tr.Len() != 0 || tr.Spans() != nil {
		t.Fatal("nil tracer recorded spans")
	}
	var c *Counter
	var h *Histogram
	c.Inc()
	c.Add(7)
	h.Observe(3)
	if c.Value() != 0 || h.Count() != 0 {
		t.Fatal("nil metrics recorded values")
	}
	var r *Registry
	if r.Counter("x") != nil || r.Histogram("y", DurationBounds) != nil {
		t.Fatal("nil registry handed out live metrics")
	}
}

// TestEnabledTracerSteadyPathDoesNotAllocate measures Begin and End inside
// one block. AllocsPerRun truncates its average, so a stray allocation
// could hide behind many calls; here one measured run makes every call,
// its count is exact, and both it and AllocsPerRun's warm-up run land in
// the block the priming span opened, which no call fills.
func TestEnabledTracerSteadyPathDoesNotAllocate(t *testing.T) {
	clk := &fakeClock{}
	tr := NewTracer(clk.Now, NewRegistry())
	// Open the first block with one span, leaving room for spanBlock-1
	// more.
	tr.End(tr.Begin(KindRun, 0, "j", "vo", "s"))
	const calls = (spanBlock - 1) / 2
	allocs := testing.AllocsPerRun(1, func() {
		for i := 0; i < calls; i++ {
			clk.now += time.Second
			id := tr.Begin(KindRun, 0, "j", "vo", "s")
			tr.End(id)
		}
	})
	if allocs != 0 {
		t.Fatalf("%d steady-path Begin/End pairs allocated %.0f times, want 0", calls, allocs)
	}
	if len(tr.blocks) != 1 || len(tr.blocks[0]) != 1+2*calls {
		t.Fatalf("measured runs left %d blocks, the last holding %d spans; want 1 and %d",
			len(tr.blocks), len(tr.blocks[len(tr.blocks)-1]), 1+2*calls)
	}
}

// TestSpanBlocksMatchReference drives a tracer across several block
// boundaries and a plain slice through the same operations: End, Fail and
// SetSite on random earlier spans (most of them in earlier blocks) and
// BeginTransfer among the Begins. Spans must equal the slice, and each ID
// must read back its own span.
func TestSpanBlocksMatchReference(t *testing.T) {
	clk := &fakeClock{}
	tr := NewTracer(clk.Now, nil)
	var ref []Span
	refEnd := func(id SpanID) {
		if sp := &ref[id-1]; !sp.ended {
			sp.ended = true
			sp.End = clk.now
		}
	}
	rng := rand.New(rand.NewSource(7))
	for len(ref) < 3*spanBlock+spanBlock/2 {
		clk.now += time.Duration(rng.Intn(90)) * time.Second
		job := "job-" + strconv.Itoa(len(ref))
		switch r := rng.Intn(10); {
		case r == 0:
			parent, size := SpanID(rng.Intn(len(ref)+1)), rng.Int63n(1<<40)
			tr.BeginTransfer(parent, job, "ivdgl", "src", "dst", size)
			ref = append(ref, Span{ID: SpanID(len(ref) + 1), Parent: parent, Kind: KindTransfer,
				Job: job, VO: "ivdgl", Site: "src", Peer: "dst", Bytes: size, Start: clk.now, End: -1})
		default:
			parent := SpanID(rng.Intn(len(ref) + 1))
			kind := Kind(rng.Intn(int(numKinds)))
			tr.Begin(kind, parent, job, "uscms", "")
			ref = append(ref, Span{ID: SpanID(len(ref) + 1), Parent: parent, Kind: kind,
				Job: job, VO: "uscms", Start: clk.now, End: -1})
		}
		if tr.Len() != len(ref) {
			t.Fatalf("Len = %d after %d spans", tr.Len(), len(ref))
		}
		id := SpanID(1 + rng.Intn(len(ref)))
		switch rng.Intn(4) {
		case 0:
			tr.End(id)
			refEnd(id)
		case 1:
			cause := "cause-" + strconv.Itoa(int(id))
			tr.Fail(id, cause)
			if !ref[id-1].ended {
				ref[id-1].Err = cause
			}
			refEnd(id)
		case 2:
			site := "site-" + strconv.Itoa(len(ref))
			tr.SetSite(id, site)
			ref[id-1].Site = site
		}
	}
	got := tr.Spans()
	if !reflect.DeepEqual(got, ref) {
		for i := range ref {
			if i >= len(got) || !reflect.DeepEqual(got[i], ref[i]) {
				t.Fatalf("span %d: got %+v, want %+v", i+1, got[i], ref[i])
			}
		}
		t.Fatalf("Spans holds %d spans, want %d", len(got), len(ref))
	}
	trace := tr.Trace()
	for _, id := range []SpanID{1, spanBlock, spanBlock + 1, 2 * spanBlock, SpanID(len(ref))} {
		if sp, ok := trace.Span(id); !ok || sp.ID != id || !reflect.DeepEqual(sp, ref[id-1]) {
			t.Fatalf("Trace.Span(%d) = %+v, %v; want %+v", id, sp, ok, ref[id-1])
		}
	}
	// Spans is a copy: writing to it leaves the tracer's spans alone.
	got[0].Site = "scribbled"
	if tr.Spans()[0].Site == "scribbled" {
		t.Fatal("Spans returned the tracer's own storage")
	}
}

func TestSpanLifecycleAndKindHistograms(t *testing.T) {
	clk := &fakeClock{}
	reg := NewRegistry()
	tr := NewTracer(clk.Now, reg)

	root := tr.Begin(KindJob, 0, "grid3-usatlas-00000001", "usatlas", "")
	clk.now = 10 * time.Second
	match := tr.Begin(KindMatch, root, "grid3-usatlas-00000001", "usatlas", "")
	clk.now = 70 * time.Second
	tr.SetSite(match, "UC_ATLAS")
	tr.End(match)
	run := tr.Begin(KindRun, root, "grid3-usatlas-00000001", "usatlas", "UC_ATLAS")
	clk.now = 3670 * time.Second
	tr.End(run)
	tr.End(root)
	tr.End(root) // double-End must be a no-op

	spans := tr.Spans()
	if len(spans) != 3 {
		t.Fatalf("got %d spans, want 3", len(spans))
	}
	if spans[1].Site != "UC_ATLAS" || spans[1].Duration() != 60*time.Second {
		t.Fatalf("match span wrong: %+v", spans[1])
	}
	if spans[0].End != 3670*time.Second {
		t.Fatalf("root End = %v after double-End", spans[0].End)
	}
	h := reg.Histogram("span.run.seconds", DurationBounds)
	if h.Count() != 1 {
		t.Fatalf("run histogram count = %d, want 1", h.Count())
	}
	if q := h.Quantile(0.5); q <= 0 || q > 7200 {
		t.Fatalf("run p50 = %v, want within bucket ladder", q)
	}
}

func TestFailRecordsCause(t *testing.T) {
	clk := &fakeClock{}
	tr := NewTracer(clk.Now, nil)
	id := tr.Begin(KindGramAuth, 0, "j", "vo", "site")
	tr.Fail(id, "gatekeeper overloaded")
	sp := tr.Spans()[0]
	if !sp.Ended() || sp.Err != "gatekeeper overloaded" {
		t.Fatalf("failed span wrong: %+v", sp)
	}
}

func TestRegistryDeterministicOrderAndQuantiles(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("b.second").Add(2)
	reg.Counter("a.first").Inc()
	if c := reg.Counter("b.second"); c.Value() != 2 {
		t.Fatalf("get-or-create returned a fresh counter: %d", c.Value())
	}
	h := reg.Histogram("lat", []float64{1, 2, 4, 8})
	for _, v := range []float64{0.5, 1.5, 1.5, 3, 3, 3, 7, 100} {
		h.Observe(v)
	}
	if h.Count() != 8 {
		t.Fatalf("count = %d", h.Count())
	}
	if q := h.Quantile(0.5); q < 1 || q > 4 {
		t.Fatalf("p50 = %v, want in [1,4]", q)
	}
	if q := h.Quantile(1.0); q != 8 {
		t.Fatalf("overflow quantile = %v, want last bound 8", q)
	}
	reg.Gauge("depth", func() float64 { return 42 })

	s := reg.Snapshot()
	if len(s.Counters) != 2 || s.Counters[0].Name != "b.second" || s.Counters[1].Name != "a.first" {
		t.Fatalf("counter order not registration order: %+v", s.Counters)
	}
	if len(s.Gauges) != 1 || s.Gauges[0].Value != 42 {
		t.Fatalf("gauge snapshot wrong: %+v", s.Gauges)
	}

	var buf bytes.Buffer
	if err := s.WriteText(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"# counters", "b.second", "# gauges", "depth", "# histograms", "lat"} {
		if !strings.Contains(out, want) {
			t.Fatalf("text snapshot missing %q:\n%s", want, out)
		}
	}
}

func TestHistSnapshotMerge(t *testing.T) {
	bounds := []float64{1, 10}
	mk := func(vals ...float64) HistSnapshot {
		h := &Histogram{name: "x", bounds: bounds, counts: make([]uint64, 3)}
		for _, v := range vals {
			h.Observe(v)
		}
		return h.Snapshot()
	}
	a, b := mk(0.5, 5), mk(5, 50)
	var m HistSnapshot
	m.Merge(a)
	m.Merge(b)
	if m.N != 4 || m.Counts[0] != 1 || m.Counts[1] != 2 || m.Counts[2] != 1 {
		t.Fatalf("merge wrong: %+v", m)
	}
	if m.Sum != 60.5 {
		t.Fatalf("merged sum = %v", m.Sum)
	}
	// Mismatched shapes must not corrupt.
	m.Merge(HistSnapshot{Counts: []uint64{1}})
	if m.N != 4 {
		t.Fatal("mismatched merge changed N")
	}
}

func TestStageLatenciesExtraction(t *testing.T) {
	clk := &fakeClock{}
	reg := NewRegistry()
	tr := NewTracer(clk.Now, reg)
	id := tr.Begin(KindStageIn, 0, "j", "vo", "s")
	clk.now = 30 * time.Second
	tr.End(id)
	reg.Histogram("gridftp.throughput.mbps", []float64{1, 10, 100}).Observe(12)

	stages := reg.Snapshot().StageLatencies()
	if _, ok := stages["stage-in"]; !ok {
		t.Fatalf("stage-in missing from %v", SortedStageNames(stages))
	}
	if _, ok := stages["gridftp.throughput.mbps"]; ok {
		t.Fatal("non-span histogram leaked into stage latencies")
	}
	if stages["stage-in"].N != 1 {
		t.Fatalf("stage-in N = %d", stages["stage-in"].N)
	}
}

func buildChainTrace() (*Tracer, SpanID) {
	clk := &fakeClock{}
	tr := NewTracer(clk.Now, nil)
	root := tr.Begin(KindJob, 0, "j1", "uscms", "")
	fast := tr.Begin(KindMatch, root, "j1", "uscms", "")
	clk.now = 5 * time.Second
	tr.End(fast)
	slow := tr.Begin(KindRun, root, "j1", "uscms", "CIT_CMS")
	inner := tr.Begin(KindTransfer, slow, "j1", "uscms", "CIT_CMS")
	clk.now = 100 * time.Second
	tr.End(inner)
	clk.now = 200 * time.Second
	tr.End(slow)
	tr.End(root)
	return tr, root
}

func TestTraceQueries(t *testing.T) {
	tr, root := buildChainTrace()
	trace := tr.Trace()

	if got := trace.ByJob("j1"); len(got) != 4 {
		t.Fatalf("ByJob returned %d spans", len(got))
	}
	roots := trace.Roots()
	if len(roots) != 1 || roots[0].ID != root {
		t.Fatalf("Roots = %+v", roots)
	}
	path := trace.CriticalPath(root)
	if len(path) != 3 || path[1].Kind != KindRun || path[2].Kind != KindTransfer {
		t.Fatalf("critical path wrong: %+v", path)
	}
	slow := trace.Slowest(2)
	if len(slow) != 2 || slow[0].Kind != KindJob || slow[1].Kind != KindRun {
		t.Fatalf("Slowest wrong: %+v", slow)
	}
}

func TestJSONLExportShape(t *testing.T) {
	tr, _ := buildChainTrace()
	var buf bytes.Buffer
	if err := tr.Trace().WriteJSONL(&buf); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 4 {
		t.Fatalf("got %d JSONL lines, want 4", len(lines))
	}
	for _, l := range lines {
		if !strings.HasPrefix(l, `{"id":`) || !strings.Contains(l, `"dur_s":`) {
			t.Fatalf("malformed JSONL line: %s", l)
		}
	}
	if !strings.Contains(lines[0], `"kind":"job"`) {
		t.Fatalf("first line not the job span: %s", lines[0])
	}
}

func TestNetLoggerExportSubsumesTransferFormat(t *testing.T) {
	clk := &fakeClock{}
	tr := NewTracer(clk.Now, nil)
	id := tr.BeginTransfer(0, "stage-in", "ligo", "archive", "PSU_LIGO", 4<<30)
	clk.now = 90 * time.Second
	tr.End(id)
	bad := tr.BeginTransfer(0, "stage-out", "ligo", "PSU_LIGO", "archive", 1<<20)
	clk.now = 95 * time.Second
	tr.Fail(bad, "disk full")
	auth := tr.Begin(KindGramAuth, 0, "j2", "ligo", "PSU_LIGO")
	tr.End(auth)

	var buf bytes.Buffer
	if err := tr.Trace().WriteNetLogger(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		"DATE=0.000 HOST=archive PROG=gridftp NL.EVNT=gridftp.transfer.start DEST=PSU_LIGO BYTES=4294967296",
		"DATE=90.000 HOST=archive PROG=gridftp NL.EVNT=gridftp.transfer.end DEST=PSU_LIGO BYTES=4294967296",
		`NL.EVNT=gridftp.transfer.error DEST=archive BYTES=1048576 ERR="disk full"`,
		"PROG=grid3 NL.EVNT=span.gram-auth.start JOB=j2 VO=ligo",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("NetLogger output missing %q:\n%s", want, out)
		}
	}
	// Event-time order: the DATE fields must be non-decreasing.
	last := -1.0
	for _, line := range strings.Split(strings.TrimSpace(out), "\n") {
		end := strings.Index(line, " ")
		d, err := strconv.ParseFloat(strings.TrimPrefix(line[:end], "DATE="), 64)
		if err != nil {
			t.Fatalf("unparseable line: %s", line)
		}
		if d < last {
			t.Fatalf("NetLogger lines out of time order:\n%s", out)
		}
		last = d
	}
}
