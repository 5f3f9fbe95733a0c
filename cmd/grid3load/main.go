// Command grid3load drives a running grid3d with an open-loop workload:
// arrivals follow a Poisson process whose rate is shaped by a diurnal cycle
// and an optional flash crowd, never waiting on responses — exactly the
// traffic a production portal sees, where users do not slow down because
// the service did. The endpoint mix models the paper's user populations:
// mostly submissions and job-status polls, with monitoring reads, RLS
// lookups, site-catalog views, ticket queries, and the occasional VOMS
// enrollment across all of the Grid3 VOs.
//
//	grid3load [-target http://127.0.0.1:8080] [-rps 150] [-duration 20s]
//	          [-diurnal-period 10s] [-diurnal-amp 0.3]
//	          [-flash-start 0.5] [-flash-frac 0.25] [-flash-mult 4]
//	          [-seed 1] [-out BENCH_serve.json]
//
// The report (schema grid3.serve.bench/1) gives offered vs sustained
// request rate, latency quantiles, and goodput — the fraction of requests
// the daemon answered usefully (2xx, or an authoritative 404 on a replica
// lookup). Overload shows up as 503 sheds: lost goodput, never a stuck
// daemon, because the ingress boundary sheds before it perturbs the engine.
// Per-phase splits separate steady-state behavior from the flash crowd.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net/http"
	"os"
	"sort"
	"sync"
	"time"
)

// vos are the Grid3 VOs the generator submits and enrolls under; user 00
// of every VO is seeded by the scenario, so submissions authenticate.
var vos = []string{"usatlas", "uscms", "sdss", "ivdgl", "btev", "ligo"}

func main() {
	target := flag.String("target", "http://127.0.0.1:8080", "grid3d base URL")
	rps := flag.Float64("rps", 150, "base arrival rate, requests/second")
	duration := flag.Duration("duration", 20*time.Second, "generation window")
	diurnalPeriod := flag.Duration("diurnal-period", 10*time.Second, "diurnal cycle length (0 disables)")
	diurnalAmp := flag.Float64("diurnal-amp", 0.3, "diurnal swing as a fraction of the base rate")
	flashStart := flag.Float64("flash-start", 0.5, "flash crowd start, as a fraction of the window")
	flashFrac := flag.Float64("flash-frac", 0.25, "flash crowd length, as a fraction of the window")
	flashMult := flag.Float64("flash-mult", 4, "flash crowd rate multiplier (1 disables)")
	seed := flag.Int64("seed", 1, "generator RNG seed")
	timeout := flag.Duration("timeout", 5*time.Second, "per-request timeout")
	out := flag.String("out", "", "write the bench report JSON to this file")
	flag.Parse()

	g := &generator{
		target: *target,
		client: &http.Client{Timeout: *timeout},
		rng:    rand.New(rand.NewSource(*seed)),
		window: *duration,
		base:   *rps,
		diurP:  *diurnalPeriod,
		diurA:  *diurnalAmp,
		flash0: time.Duration(float64(*duration) * *flashStart),
		flash1: time.Duration(float64(*duration) * (*flashStart + *flashFrac)),
		flashX: *flashMult,
		users:  map[string]int{},
	}
	rep := g.run()
	rep.write(os.Stdout)
	if *out != "" {
		data, err := json.MarshalIndent(rep, "", "  ")
		if err != nil {
			fatal(err)
		}
		if err := os.WriteFile(*out, append(data, '\n'), 0o644); err != nil {
			fatal(err)
		}
		fmt.Printf("bench JSON written to %s\n", *out)
	}
	if rep.Goodput < 0.5 {
		fatal(fmt.Errorf("goodput %.2f: daemon unreachable or melting down", rep.Goodput))
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "grid3load:", err)
	os.Exit(1)
}

// sample is one request's outcome.
type sample struct {
	phase   string // "normal" or "flash"
	kind    string // endpoint class
	code    int    // HTTP status, 0 on transport error
	ok      bool
	latency time.Duration
}

type generator struct {
	target         string
	client         *http.Client
	rng            *rand.Rand
	window         time.Duration
	base           float64
	diurP          time.Duration
	diurA          float64
	flash0, flash1 time.Duration
	flashX         float64

	// users counts enrollments per VO so every enroll carries a fresh DN.
	users map[string]int

	// jobIDs feeds status polls with real IDs from earlier submissions.
	jobMu  sync.Mutex
	jobIDs []string

	wg      sync.WaitGroup
	samples chan sample
}

// rate is the offered arrival rate at offset t into the window.
func (g *generator) rate(t time.Duration) float64 {
	r := g.base
	if g.diurP > 0 {
		r *= 1 + g.diurA*math.Sin(2*math.Pi*float64(t)/float64(g.diurP))
	}
	if g.inFlash(t) {
		r *= g.flashX
	}
	return r
}

func (g *generator) inFlash(t time.Duration) bool {
	return g.flashX > 1 && t >= g.flash0 && t < g.flash1
}

// run drives the open loop: exponential inter-arrival gaps at the current
// rate, each request fired on its own goroutine so a slow response never
// throttles the arrival process.
func (g *generator) run() *report {
	g.samples = make(chan sample, 65536)
	var collected []sample
	done := make(chan struct{})
	go func() {
		defer close(done)
		for s := range g.samples {
			collected = append(collected, s)
		}
	}()

	start := time.Now()
	fired := 0
	for {
		t := time.Since(start)
		if t >= g.window {
			break
		}
		gap := time.Duration(g.rng.ExpFloat64() / g.rate(t) * float64(time.Second))
		time.Sleep(gap)
		t = time.Since(start)
		if t >= g.window {
			break
		}
		phase := "normal"
		if g.inFlash(t) {
			phase = "flash"
		}
		kind, req := g.pick()
		fired++
		g.wg.Add(1)
		go g.fire(phase, kind, req)
	}
	offeredWindow := time.Since(start)
	g.wg.Wait()
	close(g.samples)
	<-done

	flashWindow := time.Duration(0)
	if g.flashX > 1 && g.flash1 > g.flash0 {
		flashWindow = g.flash1 - g.flash0
	}
	return score(collected, fired, offeredWindow, flashWindow)
}

// request is a prepared HTTP call.
type request struct {
	method string
	path   string
	body   []byte
	// okCodes are the statuses that count as goodput for this endpoint.
	okCodes map[int]bool
}

var ok2xx = map[int]bool{200: true, 201: true, 202: true}

// pick chooses the next endpoint from the portal mix. All randomness stays
// on the arrival goroutine, so the choice sequence is reproducible for a
// given seed even though responses land out of order.
func (g *generator) pick() (string, request) {
	vo := vos[g.rng.Intn(len(vos))]
	p := g.rng.Float64()
	switch {
	case p < 0.30: // submit
		body, _ := json.Marshal(map[string]any{
			"vo":              vo,
			"user":            fmt.Sprintf("/DC=org/DC=doegrids/OU=People/CN=%s user 00", vo),
			"runtime_seconds": 1800 + g.rng.Intn(7200),
		})
		return "submit", request{"POST", "/api/v1/jobs", body, ok2xx}
	case p < 0.55: // job status: a known ID when one exists, else the summary
		g.jobMu.Lock()
		n := len(g.jobIDs)
		var id string
		if n > 0 {
			id = g.jobIDs[g.rng.Intn(n)]
		}
		g.jobMu.Unlock()
		if id != "" {
			return "status", request{"GET", "/api/v1/jobs/" + id, nil, ok2xx}
		}
		return "status", request{"GET", "/api/v1/jobs", nil, ok2xx}
	case p < 0.70: // monitoring reads
		if g.rng.Intn(2) == 0 {
			return "monitor", request{"GET", "/api/v1/monitor/metrics", nil, ok2xx}
		}
		return "monitor", request{"GET", "/api/v1/monitor/monalisa", nil, ok2xx}
	case p < 0.80: // RLS lookup; an authoritative miss is a served lookup
		lfn := fmt.Sprintf("lfn:%%2F%%2F%s%%2Fdataset%%2Ffile%04d", vo, g.rng.Intn(500))
		return "rls", request{"GET", "/api/v1/rls/" + lfn, nil, map[int]bool{200: true, 404: true}}
	case p < 0.90: // site catalog
		return "sites", request{"GET", "/api/v1/sites", nil, ok2xx}
	case p < 0.95: // iGOC tickets
		return "tickets", request{"GET", "/api/v1/goc/tickets", nil, ok2xx}
	default: // VOMS enrollment, always a fresh DN
		g.users[vo]++
		body, _ := json.Marshal(map[string]any{
			"dn":   fmt.Sprintf("/DC=org/DC=doegrids/OU=People/CN=%s load user %04d", vo, g.users[vo]),
			"name": fmt.Sprintf("%s load user %d", vo, g.users[vo]),
		})
		return "enroll", request{"POST", "/api/v1/vo/" + vo + "/members", body, ok2xx}
	}
}

// fire executes one request and records its outcome.
func (g *generator) fire(phase, kind string, r request) {
	defer g.wg.Done()
	var rd io.Reader
	if r.body != nil {
		rd = bytes.NewReader(r.body)
	}
	req, err := http.NewRequest(r.method, g.target+r.path, rd)
	if err != nil {
		g.samples <- sample{phase: phase, kind: kind}
		return
	}
	t0 := time.Now()
	resp, err := g.client.Do(req)
	lat := time.Since(t0)
	s := sample{phase: phase, kind: kind, latency: lat}
	if err == nil {
		s.code = resp.StatusCode
		s.ok = r.okCodes[resp.StatusCode]
		if kind == "submit" && s.ok {
			var dto struct {
				ID string `json:"id"`
			}
			if json.NewDecoder(resp.Body).Decode(&dto) == nil && dto.ID != "" {
				g.jobMu.Lock()
				g.jobIDs = append(g.jobIDs, dto.ID)
				g.jobMu.Unlock()
			}
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
	}
	g.samples <- s
}

// --- scoring ---------------------------------------------------------------

type latencyJSON struct {
	P50Ms float64 `json:"p50_ms"`
	P90Ms float64 `json:"p90_ms"`
	P99Ms float64 `json:"p99_ms"`
}

type phaseJSON struct {
	Requests     int         `json:"requests"`
	OfferedRPS   float64     `json:"offered_rps,omitempty"`
	SustainedRPS float64     `json:"sustained_rps"`
	Goodput      float64     `json:"goodput"`
	Latency      latencyJSON `json:"latency"`
}

type report struct {
	Schema       string               `json:"schema"`
	Kind         string               `json:"kind"`
	Duration     float64              `json:"duration_seconds"`
	Offered      int                  `json:"requests_offered"`
	Answered     int                  `json:"requests_answered"`
	OfferedRPS   float64              `json:"offered_rps"`
	SustainedRPS float64              `json:"sustained_rps"`
	Goodput      float64              `json:"goodput"`
	Shed         int                  `json:"shed_503"`
	Errors       int                  `json:"transport_errors"`
	Latency      latencyJSON          `json:"latency"`
	Phases       map[string]phaseJSON `json:"phases"`
	ByEndpoint   map[string]phaseJSON `json:"by_endpoint"`
	Codes        map[string]int       `json:"codes"`
}

func quantiles(lats []time.Duration) latencyJSON {
	if len(lats) == 0 {
		return latencyJSON{}
	}
	sort.Slice(lats, func(i, j int) bool { return lats[i] < lats[j] })
	q := func(p float64) float64 {
		i := int(p * float64(len(lats)-1))
		return float64(lats[i]) / float64(time.Millisecond)
	}
	return latencyJSON{P50Ms: q(0.50), P90Ms: q(0.90), P99Ms: q(0.99)}
}

func scorePhase(samples []sample, window time.Duration) phaseJSON {
	var lats []time.Duration
	okCount := 0
	for _, s := range samples {
		if s.code != 0 {
			lats = append(lats, s.latency)
		}
		if s.ok {
			okCount++
		}
	}
	ph := phaseJSON{Requests: len(samples), Latency: quantiles(lats)}
	if len(samples) > 0 {
		ph.Goodput = float64(okCount) / float64(len(samples))
	}
	if window > 0 {
		ph.SustainedRPS = float64(okCount) / window.Seconds()
	}
	return ph
}

func score(samples []sample, fired int, window, flashWindow time.Duration) *report {
	rep := &report{
		Schema:     "grid3.serve.bench/1",
		Kind:       "grid3load",
		Duration:   window.Seconds(),
		Offered:    fired,
		Phases:     map[string]phaseJSON{},
		ByEndpoint: map[string]phaseJSON{},
		Codes:      map[string]int{},
	}
	var lats []time.Duration
	byPhase := map[string][]sample{}
	byKind := map[string][]sample{}
	okCount := 0
	for _, s := range samples {
		byPhase[s.phase] = append(byPhase[s.phase], s)
		byKind[s.kind] = append(byKind[s.kind], s)
		if s.code == 0 {
			rep.Errors++
			rep.Codes["error"]++
		} else {
			rep.Answered++
			rep.Codes[fmt.Sprintf("%d", s.code)]++
			lats = append(lats, s.latency)
		}
		if s.code == 503 {
			rep.Shed++
		}
		if s.ok {
			okCount++
		}
	}
	rep.OfferedRPS = float64(fired) / window.Seconds()
	rep.SustainedRPS = float64(okCount) / window.Seconds()
	if len(samples) > 0 {
		rep.Goodput = float64(okCount) / float64(len(samples))
	}
	rep.Latency = quantiles(lats)
	// Phase windows: flash gets its configured slice, normal the rest, so
	// the per-phase offered/sustained rates are comparable.
	for name, ss := range byPhase {
		w := window
		if flashWindow > 0 {
			if name == "flash" {
				w = flashWindow
			} else {
				w = window - flashWindow
			}
		}
		if w <= 0 {
			w = window
		}
		ph := scorePhase(ss, w)
		ph.OfferedRPS = float64(len(ss)) / w.Seconds()
		rep.Phases[name] = ph
	}
	for name, ss := range byKind {
		ph := scorePhase(ss, window)
		ph.OfferedRPS = float64(len(ss)) / window.Seconds()
		rep.ByEndpoint[name] = ph
	}
	return rep
}

func (rep *report) write(w io.Writer) {
	fmt.Fprintf(w, "grid3load: %d offered over %.1fs (%.1f req/s), %d answered, %d shed, %d errors\n",
		rep.Offered, rep.Duration, rep.OfferedRPS, rep.Answered, rep.Shed, rep.Errors)
	fmt.Fprintf(w, "  sustained %.1f req/s goodput %.3f — p50 %.1fms p90 %.1fms p99 %.1fms\n",
		rep.SustainedRPS, rep.Goodput, rep.Latency.P50Ms, rep.Latency.P90Ms, rep.Latency.P99Ms)
	for _, name := range []string{"normal", "flash"} {
		ph, okPhase := rep.Phases[name]
		if !okPhase {
			continue
		}
		fmt.Fprintf(w, "  %-7s %6d reqs, offered %7.1f req/s, sustained %7.1f req/s, goodput %.3f, p99 %.1fms\n",
			name, ph.Requests, ph.OfferedRPS, ph.SustainedRPS, ph.Goodput, ph.Latency.P99Ms)
	}
	names := make([]string, 0, len(rep.ByEndpoint))
	for name := range rep.ByEndpoint {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		ph := rep.ByEndpoint[name]
		fmt.Fprintf(w, "    %-8s %6d reqs, sustained %7.1f req/s, goodput %.3f, p99 %.1fms\n",
			name, ph.Requests, ph.SustainedRPS, ph.Goodput, ph.Latency.P99Ms)
	}
}
