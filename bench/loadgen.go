package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/url"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"
)

// vos are the VOs the portal mix submits and enrolls under; user 00 of each
// is registered by the scenario, so its submissions authenticate.
var vos = []string{"usatlas", "uscms", "sdss", "ivdgl", "btev", "ligo"}

// mixCum is grid3load's portal mix as cumulative shares, in endpointKinds
// order: submissions and status polls dominate, then monitoring reads, RLS
// lookups, the site catalog, tickets, and the occasional VOMS enrollment.
var mixCum = []float64{0.30, 0.55, 0.70, 0.80, 0.90, 0.95, 1}

const (
	kSubmit = iota
	kStatus
	kMonitor
	kRLS
	kSites
	kTickets
	kEnroll
)

// spanHeader carries a request span's ID to the server-side middleware, so
// the handler span can name its parent.
const spanHeader = "X-Bench-Span"

// request is one planned call; draw is the randomness it consumes at send
// time (runtime, which job or LFN, which monitor view).
type request struct {
	kind, vo int
	draw     uint32
}

func planRequests(rng *rand.Rand, n int) []request {
	out := make([]request, n)
	for i := range out {
		p := rng.Float64()
		k := sort.SearchFloat64s(mixCum, p)
		if k < len(mixCum) && mixCum[k] == p {
			k++
		}
		out[i] = request{kind: k, vo: rng.Intn(len(vos)), draw: rng.Uint32()}
	}
	return out
}

// poissonSchedule returns the due offsets of Poisson arrivals at rate per
// second over window.
func poissonSchedule(rng *rand.Rand, rate float64, window time.Duration) []time.Duration {
	var due []time.Duration
	t := 0.0
	for {
		t += rng.ExpFloat64() / rate
		d := time.Duration(t * float64(time.Second))
		if d >= window {
			return due
		}
		due = append(due, d)
	}
}

// clock is the pacer's view of wall time since a phase began, so tests can
// drive it by hand.
type clock interface {
	now() time.Duration
	sleep(d time.Duration)
}

type wallClock struct{ start time.Time }

func (c wallClock) now() time.Duration    { return time.Since(c.start) }
func (c wallClock) sleep(d time.Duration) { time.Sleep(d) }

// pace emits each request when it falls due, in order, with how late it was
// emitted. The schedule is absolute, which makes the loop open: a late
// wake-up makes the requests that fell due meanwhile late, and shifts no
// later one.
func pace(c clock, due []time.Duration, emit func(i int, late time.Duration)) {
	for i, d := range due {
		now := c.now()
		for now < d {
			c.sleep(d - now)
			now = c.now()
		}
		emit(i, now-d)
	}
}

// call is one request's outcome.
type call struct {
	kind  int
	ok    bool // goodput: the expected status and body
	wrong bool // an incorrect answer, as opposed to a refusal
	lat   time.Duration
}

// client sends the portal mix over a fixed set of connections, one
// http.Client per connection so no more than len(conns) are ever open.
type client struct {
	base  string
	conns []*http.Client
	lfns  []string
	tr    *tracer // request spans when not nil

	enrolled atomic.Int64
	mu       sync.Mutex
	ids      []string
}

func newClient(base string, conns int, lfns []string) *client {
	c := &client{base: base, lfns: lfns}
	for range conns {
		c.conns = append(c.conns, &http.Client{Transport: &http.Transport{
			MaxConnsPerHost:     1,
			MaxIdleConnsPerHost: 1,
			DisableCompression:  true,
		}})
	}
	return c
}

func (c *client) close() {
	for _, hc := range c.conns {
		hc.CloseIdleConnections()
	}
}

// do sends q on connection conn and checks the answer: submissions return
// an ID, polls of known IDs find the job, lookups of registered LFNs find a
// replica, enrollments are created, and reads succeed. A 503 is a refusal
// (not goodput, not wrong).
func (c *client) do(conn int, q request, span uint64) (ok, wrong bool) {
	vo := vos[q.vo]
	method, path, wantID := "GET", "", ""
	var body []byte
	switch q.kind {
	case kSubmit:
		method, path = "POST", "/api/v1/jobs"
		body = fmt.Appendf(nil, `{"vo":%q,"user":"/DC=org/DC=doegrids/OU=People/CN=%s user 00","runtime_seconds":%d}`,
			vo, vo, 1800+q.draw%7200)
	case kStatus:
		c.mu.Lock()
		wantID = c.ids[int(q.draw)%len(c.ids)]
		c.mu.Unlock()
		path = "/api/v1/jobs/" + wantID
	case kMonitor:
		path = "/api/v1/monitor/metrics"
		if q.draw%2 == 1 {
			path = "/api/v1/monitor/monalisa"
		}
	case kRLS:
		path = "/api/v1/rls/" + url.PathEscape(c.lfns[int(q.draw)%len(c.lfns)])
	case kSites:
		path = "/api/v1/sites"
	case kTickets:
		path = "/api/v1/goc/tickets"
	case kEnroll:
		n := c.enrolled.Add(1)
		method, path = "POST", "/api/v1/vo/"+vo+"/members"
		body = fmt.Appendf(nil, `{"dn":"/DC=org/DC=doegrids/OU=People/CN=%s bench user %06d","name":"%s bench user %d"}`,
			vo, n, vo, n)
	}
	req, err := http.NewRequest(method, c.base+path, bytes.NewReader(body))
	if err != nil {
		return false, true
	}
	if span != 0 {
		req.Header.Set(spanHeader, strconv.FormatUint(span, 10))
	}
	resp, err := c.conns[conn].Do(req)
	if err != nil {
		return false, true
	}
	data, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return false, true
	}
	if resp.StatusCode == http.StatusServiceUnavailable {
		return false, false
	}
	ok = c.check(q.kind, resp.StatusCode, data, wantID)
	return ok, !ok
}

func (c *client) check(kind, code int, data []byte, wantID string) bool {
	switch kind {
	case kSubmit, kStatus:
		var job struct {
			ID string `json:"id"`
		}
		want := http.StatusAccepted
		if kind == kStatus {
			want = http.StatusOK
		}
		if code != want || json.Unmarshal(data, &job) != nil || job.ID == "" {
			return false
		}
		if kind == kStatus {
			return job.ID == wantID
		}
		c.mu.Lock()
		c.ids = append(c.ids, job.ID)
		c.mu.Unlock()
		return true
	case kRLS:
		var out struct {
			Replicas []json.RawMessage `json:"replicas"`
		}
		return code == http.StatusOK && json.Unmarshal(data, &out) == nil && len(out.Replicas) > 0
	case kSites:
		var out struct {
			Sites []json.RawMessage `json:"sites"`
		}
		return code == http.StatusOK && json.Unmarshal(data, &out) == nil && len(out.Sites) > 0
	case kEnroll:
		return code == http.StatusCreated
	}
	return code == http.StatusOK
}

// phase is the outcome of one open-loop load phase.
type phase struct {
	window time.Duration
	calls  []call
	late   []time.Duration
}

// openLoop sends Poisson arrivals at rate for window, timing each request
// from when it was due. Requests still unsent grace after the window are
// dropped unsent, so an overloaded probe ends on time.
func (c *client) openLoop(rng *rand.Rand, rate float64, window, grace time.Duration, parent uint64) phase {
	due := poissonSchedule(rng, rate, window)
	reqs := planRequests(rng, len(due))
	p := phase{window: window, calls: make([]call, len(due)), late: make([]time.Duration, len(due))}
	// Sized to the whole schedule so the pacer never blocks behind a busy
	// connection: a backlog must show up as the daemon's latency.
	queue := make(chan int, len(due))
	start := time.Now()
	var wg sync.WaitGroup
	for conn := range c.conns {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range queue {
				q := reqs[i]
				p.calls[i].kind = q.kind
				if time.Since(start) > window+grace {
					continue
				}
				id := c.tr.newID()
				ok, wrong := c.do(conn, q, id)
				end := time.Now()
				p.calls[i] = call{kind: q.kind, ok: ok, wrong: wrong, lat: end.Sub(start) - due[i]}
				c.tr.record(id, "request/"+endpointKinds[q.kind], parent, start.Add(due[i]), end)
			}
		}()
	}
	pace(wallClock{start}, due, func(i int, late time.Duration) {
		p.late[i] = late
		queue <- i
	})
	close(queue)
	wg.Wait()
	return p
}

// closedLoop keeps every connection busy until n requests have been
// answered, each connection sending its next request as soon as the
// previous one answers.
func (c *client) closedLoop(rng *rand.Rand, n int, parent uint64) []call {
	reqs := planRequests(rng, n)
	calls := make([]call, n)
	var next atomic.Int64
	var wg sync.WaitGroup
	for conn := range c.conns {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= n {
					return
				}
				q := reqs[i]
				id := c.tr.newID()
				t := time.Now()
				ok, wrong := c.do(conn, q, id)
				end := time.Now()
				c.tr.record(id, "request/"+endpointKinds[q.kind], parent, t, end)
				calls[i] = call{kind: q.kind, ok: ok, wrong: wrong, lat: end.Sub(t)}
			}
		}()
	}
	wg.Wait()
	return calls
}

// bisect returns the highest rate in [lo, hi] that passes, to the
// resolution probes halvings give; lo is taken to pass.
func bisect(lo, hi float64, probes int, pass func(rate float64) bool) float64 {
	for range probes {
		mid := (lo + hi) / 2
		if pass(mid) {
			lo = mid
		} else {
			hi = mid
		}
	}
	return lo
}
