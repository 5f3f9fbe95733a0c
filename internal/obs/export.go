package obs

import (
	"fmt"
	"io"
	"sort"
)

// Trace is the query and export view over a set of recorded spans. It is
// built once, after the run, from a copy of the tracer's spans — exporters
// never run on the simulation hot path, and in parallel sweeps each
// scenario's trace is flushed by its own goroutine after the engine stops.
type Trace struct {
	spans    []Span
	children map[SpanID][]SpanID // built lazily
}

// NewTrace wraps spans (creation-ordered, as Tracer.Spans returns them).
func NewTrace(spans []Span) *Trace { return &Trace{spans: spans} }

// Len returns the number of spans.
func (tr *Trace) Len() int { return len(tr.spans) }

// Spans returns all spans in creation order.
func (tr *Trace) Spans() []Span { return tr.spans }

// Span returns the span with the given ID.
func (tr *Trace) Span(id SpanID) (Span, bool) {
	if id == 0 || int(id) > len(tr.spans) {
		return Span{}, false
	}
	return tr.spans[id-1], true
}

// ByJob returns every span recorded for the given job ID, in creation order.
func (tr *Trace) ByJob(job string) []Span {
	var out []Span
	for _, s := range tr.spans {
		if s.Job == job {
			out = append(out, s)
		}
	}
	return out
}

// Roots returns the parentless spans (whole-job and workflow spans).
func (tr *Trace) Roots() []Span {
	var out []Span
	for _, s := range tr.spans {
		if s.Parent == 0 {
			out = append(out, s)
		}
	}
	return out
}

func (tr *Trace) index() {
	if tr.children != nil {
		return
	}
	tr.children = make(map[SpanID][]SpanID)
	for _, s := range tr.spans {
		if s.Parent != 0 {
			tr.children[s.Parent] = append(tr.children[s.Parent], s.ID)
		}
	}
}

// Children returns the direct children of a span, in creation order.
func (tr *Trace) Children(id SpanID) []Span {
	tr.index()
	ids := tr.children[id]
	out := make([]Span, 0, len(ids))
	for _, c := range ids {
		out = append(out, tr.spans[c-1])
	}
	return out
}

// CriticalPath walks from root to the leaf that finished last, following at
// each level the child with the latest End — the chain of stages that
// determined the root's completion time. Open spans (no End yet) are
// treated as ending at the root's own end, so a cut-off DAG still yields a
// path. The root span itself is the first element.
func (tr *Trace) CriticalPath(root SpanID) []Span {
	rs, ok := tr.Span(root)
	if !ok {
		return nil
	}
	tr.index()
	path := []Span{rs}
	cur := rs
	for {
		ids := tr.children[cur.ID]
		if len(ids) == 0 {
			return path
		}
		best, bestEnd := Span{}, int64(-1)
		for _, id := range ids {
			c := tr.spans[id-1]
			end := int64(c.End)
			if !c.Ended() {
				end = int64(rs.End)
			}
			if end > bestEnd {
				best, bestEnd = c, end
			}
		}
		path = append(path, best)
		cur = best
	}
}

// Slowest returns the n longest ended spans, longest first, ties broken by
// span ID so the order is deterministic.
func (tr *Trace) Slowest(n int) []Span {
	ended := make([]Span, 0, len(tr.spans))
	for _, s := range tr.spans {
		if s.Ended() {
			ended = append(ended, s)
		}
	}
	sort.Slice(ended, func(i, j int) bool {
		di, dj := ended[i].Duration(), ended[j].Duration()
		if di != dj {
			return di > dj
		}
		return ended[i].ID < ended[j].ID
	})
	if n > len(ended) {
		n = len(ended)
	}
	return ended[:n]
}

// WriteJSONL renders one span per line with a fixed key order, so the dump
// is diffable across runs and trivially parseable by line tools (the
// trace-demo script extracts fields with awk, no JSON parser needed). Open
// spans carry end_s and dur_s of -1.
func (tr *Trace) WriteJSONL(w io.Writer) error {
	for _, s := range tr.spans {
		endS, durS := -1.0, -1.0
		if s.Ended() {
			endS = s.End.Seconds()
			durS = (s.End - s.Start).Seconds()
		}
		var err error
		if s.Kind == KindTransfer {
			_, err = fmt.Fprintf(w,
				`{"id":%d,"parent":%d,"kind":%q,"job":%q,"vo":%q,"site":%q,"peer":%q,"bytes":%d,"start_s":%.3f,"end_s":%.3f,"dur_s":%.3f,"err":%q}`+"\n",
				s.ID, s.Parent, s.Kind.String(), s.Job, s.VO, s.Site, s.Peer, s.Bytes,
				s.Start.Seconds(), endS, durS, s.Err)
		} else {
			_, err = fmt.Fprintf(w,
				`{"id":%d,"parent":%d,"kind":%q,"job":%q,"vo":%q,"site":%q,"start_s":%.3f,"end_s":%.3f,"dur_s":%.3f,"err":%q}`+"\n",
				s.ID, s.Parent, s.Kind.String(), s.Job, s.VO, s.Site,
				s.Start.Seconds(), endS, durS, s.Err)
		}
		if err != nil {
			return err
		}
	}
	return nil
}

// nlEvent is one rendered NetLogger line with its sort key.
type nlEvent struct {
	at   float64
	id   SpanID
	end  bool // start lines sort before end lines at the same instant
	line string
}

// WriteNetLogger renders the trace in the classic NetLogger "NL" line
// format, in event-time order. Transfer spans render exactly the lines the
// internal/gridftp NetLogger shim produced (PROG=gridftp, DEST=, BYTES=),
// so this exporter subsumes it; every other span kind renders as
// PROG=grid3 with span.<kind>.start/end/error events.
func (tr *Trace) WriteNetLogger(w io.Writer) error {
	events := make([]nlEvent, 0, 2*len(tr.spans))
	for _, s := range tr.spans {
		if s.Kind == KindTransfer {
			events = append(events, nlEvent{
				at: s.Start.Seconds(), id: s.ID,
				line: fmt.Sprintf("DATE=%.3f HOST=%s PROG=gridftp NL.EVNT=gridftp.transfer.start DEST=%s BYTES=%d",
					s.Start.Seconds(), s.Site, s.Peer, s.Bytes),
			})
			if s.Ended() {
				evnt, suffix := "gridftp.transfer.end", ""
				if s.Err != "" {
					evnt, suffix = "gridftp.transfer.error", fmt.Sprintf(" ERR=%q", s.Err)
				}
				events = append(events, nlEvent{
					at: s.End.Seconds(), id: s.ID, end: true,
					line: fmt.Sprintf("DATE=%.3f HOST=%s PROG=gridftp NL.EVNT=%s DEST=%s BYTES=%d%s",
						s.End.Seconds(), s.Site, evnt, s.Peer, s.Bytes, suffix),
				})
			}
			continue
		}
		events = append(events, nlEvent{
			at: s.Start.Seconds(), id: s.ID,
			line: fmt.Sprintf("DATE=%.3f HOST=%s PROG=grid3 NL.EVNT=span.%s.start JOB=%s VO=%s",
				s.Start.Seconds(), s.Site, s.Kind, s.Job, s.VO),
		})
		if s.Ended() {
			evnt, suffix := fmt.Sprintf("span.%s.end", s.Kind), ""
			if s.Err != "" {
				evnt, suffix = fmt.Sprintf("span.%s.error", s.Kind), fmt.Sprintf(" ERR=%q", s.Err)
			}
			events = append(events, nlEvent{
				at: s.End.Seconds(), id: s.ID, end: true,
				line: fmt.Sprintf("DATE=%.3f HOST=%s PROG=grid3 NL.EVNT=%s JOB=%s VO=%s%s",
					s.End.Seconds(), s.Site, evnt, s.Job, s.VO, suffix),
			})
		}
	}
	sort.SliceStable(events, func(i, j int) bool {
		if events[i].at != events[j].at {
			return events[i].at < events[j].at
		}
		if events[i].end != events[j].end {
			return !events[i].end
		}
		return events[i].id < events[j].id
	})
	for _, e := range events {
		if _, err := fmt.Fprintln(w, e.line); err != nil {
			return err
		}
	}
	return nil
}

// TraceSink consumes a finished trace; MetricsSink consumes a final metrics
// snapshot. Both run after the engine has stopped.
type TraceSink func(*Trace) error

// MetricsSink consumes the end-of-run metrics snapshot.
type MetricsSink func(*Snapshot) error

// JSONLSink returns a TraceSink writing the JSONL dump to w.
func JSONLSink(w io.Writer) TraceSink {
	return func(tr *Trace) error { return tr.WriteJSONL(w) }
}

// NetLoggerSink returns a TraceSink writing NetLogger NL lines to w.
func NetLoggerSink(w io.Writer) TraceSink {
	return func(tr *Trace) error { return tr.WriteNetLogger(w) }
}

// TextMetricsSink returns a MetricsSink writing the text snapshot to w.
func TextMetricsSink(w io.Writer) MetricsSink {
	return func(s *Snapshot) error { return s.WriteText(w) }
}
