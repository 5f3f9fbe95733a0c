// Package obs is the simulator's own observability substrate: job-lifecycle
// spans and a metrics registry shared by the whole middleware stack.
//
// The paper's monitoring chapter (Ganglia → MonALISA → RRD, ACDC) observes
// the *grid*; obs observes the *simulation of the grid* — it follows one job
// across VOMS → Pegasus → DAGMan → Condor-G → GRAM → batch → stage-out and
// aggregates per-stage latency, queue depths, transfer throughput, and
// failure kinds, which is what production-grid operations papers (INFN-GRID)
// identify as the difference between a debuggable grid and a black box.
//
// Everything here is built to cost nothing when disabled: the Tracer is a
// pointer whose methods are nil-receiver no-ops, so instrumented hot paths
// pay one predictable branch and zero allocations when observability is off
// (asserted by a test), keeping seeded runs bit-identical to the
// pre-instrumentation simulator. When enabled, spans fill fixed-size
// blocks, so opening a span never copies the spans before it, and
// histograms are fixed-bucket arrays — no maps or interface calls on the
// hot path.
//
// Spans are recorded against sim-time (time.Duration offsets from the
// engine epoch) with parent/child links, so a DAG's critical path is
// queryable after the run (Trace.CriticalPath). Exporters render JSONL
// (Trace.WriteJSONL), a text metrics snapshot (Snapshot.WriteText), and the
// classic NetLogger "NL" line format (Trace.WriteNetLogger), the paper's
// GridFTP instrumentation (§4.7) for transfer spans.
package obs

import "time"

// Kind classifies a span: one job-lifecycle stage, or one of the
// workflow-level activities.
type Kind uint8

// Span kinds. The first block is the per-job lifecycle in causal order;
// the second block is workflow machinery.
const (
	KindJob      Kind = iota // whole lifetime, submit → done/failed
	KindSubmit               // Grid.SubmitJob: AUP check, schedd enqueue
	KindMatch                // Condor-G idle queue → matched to a resource
	KindGramAuth             // GRAM gatekeeper: auth + admission
	KindStageIn              // input staging transfer window
	KindRun                  // batch execution, start → end
	KindStageOut             // output archive + registration
	KindTransfer             // one GridFTP transfer
	KindWorkflow             // one DAG execution
	KindDAGNode              // one DAG node attempt
	KindPlan                 // one Pegasus planning pass
	KindOutage               // one detected service outage: breaker open → close
	numKinds
)

func (k Kind) String() string {
	switch k {
	case KindJob:
		return "job"
	case KindSubmit:
		return "submit"
	case KindMatch:
		return "match"
	case KindGramAuth:
		return "gram-auth"
	case KindStageIn:
		return "stage-in"
	case KindRun:
		return "run"
	case KindStageOut:
		return "stage-out"
	case KindTransfer:
		return "transfer"
	case KindWorkflow:
		return "workflow"
	case KindDAGNode:
		return "dag-node"
	case KindPlan:
		return "plan"
	case KindOutage:
		return "outage"
	}
	return "unknown"
}

// SpanID identifies a span within one Tracer. The zero SpanID means "no
// span" — it is what a nil Tracer hands out, and it is always safe to pass
// back into any Tracer method or along as a parent.
type SpanID uint64

// Span is one recorded lifecycle interval on the sim clock.
type Span struct {
	ID     SpanID
	Parent SpanID // 0 = root
	Kind   Kind
	Job    string // grid job ID, transfer label, or workflow name
	VO     string
	Site   string // execution site; transfer source for KindTransfer
	Peer   string // transfer destination (KindTransfer only)
	Bytes  int64  // transfer size (KindTransfer only)
	Start  time.Duration
	End    time.Duration
	Err    string // non-empty if the stage failed
	ended  bool
}

// Ended reports whether the span was closed (End/Fail called). Spans still
// open when the scenario horizon ends — jobs cut off mid-flight — stay
// unended.
func (s Span) Ended() bool { return s.ended }

// Duration is End-Start for ended spans and -1 for open ones.
func (s Span) Duration() time.Duration {
	if !s.ended {
		return -1
	}
	return s.End - s.Start
}

// Tracer records spans against a sim clock. A nil *Tracer is the disabled
// tracer: every method is a no-op and Begin returns SpanID 0, so
// instrumented code never branches on "is tracing on" beyond the receiver
// nil check the method itself performs.
type Tracer struct {
	clock func() time.Duration
	// blocks hold the spans in creation order, spanBlock to a block: span
	// ID i sits at blocks[(i-1)/spanBlock][(i-1)%spanBlock]. Every block
	// but the last is full, and each is allocated whole.
	blocks [][]Span
	byKind [numKinds]*Histogram // per-stage duration histograms, may be nil
}

// spanBlock is the number of spans in a full block (136 KiB of spans).
const spanBlock = 1024

// NewTracer returns an enabled tracer reading sim-time from clock. If reg is
// non-nil, every ended span feeds a per-kind duration histogram
// ("span.<kind>.seconds") registered there — the per-stage latency data the
// campaign aggregator quantiles across seeds.
func NewTracer(clock func() time.Duration, reg *Registry) *Tracer {
	t := &Tracer{clock: clock}
	if reg != nil {
		for k := Kind(0); k < numKinds; k++ {
			t.byKind[k] = reg.Histogram("span."+k.String()+".seconds", DurationBounds)
		}
	}
	return t
}

// Enabled reports whether the tracer records anything.
func (t *Tracer) Enabled() bool { return t != nil }

// Begin opens a span of the given kind under parent (0 for a root span) and
// returns its ID. On a nil tracer it returns 0.
func (t *Tracer) Begin(kind Kind, parent SpanID, job, vo, site string) SpanID {
	if t == nil {
		return 0
	}
	n := len(t.blocks)
	if n == 0 || len(t.blocks[n-1]) == spanBlock {
		t.blocks = append(t.blocks, make([]Span, 0, spanBlock))
		n++
	}
	b := &t.blocks[n-1]
	id := SpanID((n-1)*spanBlock + len(*b) + 1)
	*b = append(*b, Span{
		ID: id, Parent: parent, Kind: kind,
		Job: job, VO: vo, Site: site,
		Start: t.clock(), End: -1,
	})
	return id
}

// span returns the stored span with the given nonzero ID.
func (t *Tracer) span(id SpanID) *Span {
	i := int(id - 1)
	return &t.blocks[i/spanBlock][i%spanBlock]
}

// BeginTransfer opens a KindTransfer span carrying the transfer endpoints
// and size, so the NetLogger exporter can render the classic
// gridftp.transfer.* lines.
func (t *Tracer) BeginTransfer(parent SpanID, label, vo, src, dst string, bytes int64) SpanID {
	id := t.Begin(KindTransfer, parent, label, vo, src)
	if id != 0 {
		sp := t.span(id)
		sp.Peer = dst
		sp.Bytes = bytes
	}
	return id
}

// End closes a span at the current sim time. Safe on a nil tracer, on
// SpanID 0, and on already-ended spans.
func (t *Tracer) End(id SpanID) {
	if t == nil || id == 0 {
		return
	}
	sp := t.span(id)
	if sp.ended {
		return
	}
	sp.ended = true
	sp.End = t.clock()
	if h := t.byKind[sp.Kind]; h != nil {
		h.Observe((sp.End - sp.Start).Seconds())
	}
}

// Fail closes a span recording a failure cause.
func (t *Tracer) Fail(id SpanID, cause string) {
	if t == nil || id == 0 {
		return
	}
	sp := t.span(id)
	if !sp.ended {
		sp.Err = cause
	}
	t.End(id)
}

// SetSite fills in the execution site once matchmaking has chosen it.
func (t *Tracer) SetSite(id SpanID, site string) {
	if t == nil || id == 0 {
		return
	}
	t.span(id).Site = site
}

// Len returns the number of recorded spans.
func (t *Tracer) Len() int {
	if t == nil || len(t.blocks) == 0 {
		return 0
	}
	n := len(t.blocks)
	return (n-1)*spanBlock + len(t.blocks[n-1])
}

// Spans returns a copy of the recorded spans in creation order, assembled
// from the tracer's blocks on each call, or nil when there are none. Call
// it once, after the run.
func (t *Tracer) Spans() []Span {
	n := t.Len()
	if n == 0 {
		return nil
	}
	out := make([]Span, 0, n)
	for _, b := range t.blocks {
		out = append(out, b...)
	}
	return out
}

// Trace returns the query/export view over a copy of everything recorded
// so far (see Spans).
func (t *Tracer) Trace() *Trace { return NewTrace(t.Spans()) }

// Observer bundles the tracer and registry one scenario shares. A nil
// *Observer means observability is off; both fields of a non-nil Observer
// are always non-nil.
type Observer struct {
	Tracer  *Tracer
	Metrics *Registry
}

// New builds an enabled Observer on the given sim clock.
func New(clock func() time.Duration) *Observer {
	reg := NewRegistry()
	return &Observer{Tracer: NewTracer(clock, reg), Metrics: reg}
}

// TracerOf returns o's tracer, or nil (the disabled tracer) when o is nil.
func (o *Observer) TracerOf() *Tracer {
	if o == nil {
		return nil
	}
	return o.Tracer
}

// Registry returns o's metrics registry, or nil when o is nil.
func (o *Observer) Registry() *Registry {
	if o == nil {
		return nil
	}
	return o.Metrics
}
