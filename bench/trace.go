package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// span is one interval the benchmark timed around its own call into the
// program. Start and end are offsets from the tracer's creation.
type span struct {
	Trace  string `json:"trace"`
	ID     uint64 `json:"id"`
	Parent uint64 `json:"parent,omitempty"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps one run's spans in memory until the run ends. Every span of
// the run carries the same trace ID. A nil *tracer records nothing, so an
// untraced run pays one nil check per call site.
type tracer struct {
	trace string
	t0    time.Time
	next  atomic.Uint64

	mu    sync.Mutex
	spans []span
}

func newTracer(workload string, seed int64) *tracer {
	h := fnv.New64a()
	fmt.Fprintf(h, "%s/%d/%d", workload, seed, time.Now().UnixNano())
	return &tracer{trace: fmt.Sprintf("%016x", h.Sum64()), t0: time.Now()}
}

// newID reserves a span ID, for a span whose children start before it ends.
func (t *tracer) newID() uint64 {
	if t == nil {
		return 0
	}
	return t.next.Add(1)
}

// record stores a finished span under id, or under a fresh ID when id is 0.
func (t *tracer) record(id uint64, name string, parent uint64, start, end time.Time) {
	if t == nil {
		return
	}
	if id == 0 {
		id = t.newID()
	}
	s := span{Trace: t.trace, ID: id, Parent: parent, Name: name,
		Start: int64(start.Sub(t.t0)), End: int64(end.Sub(t.t0))}
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// durations returns the lengths of the spans whose name starts with prefix.
func (t *tracer) durations(prefix string) []time.Duration {
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []time.Duration
	for _, s := range t.spans {
		if strings.HasPrefix(s.Name, prefix) {
			out = append(out, time.Duration(s.End-s.Start))
		}
	}
	return out
}

// writeJSONL writes every span as one JSON object per line.
func (t *tracer) writeJSONL(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	t.mu.Lock()
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			t.mu.Unlock()
			f.Close()
			return err
		}
	}
	t.mu.Unlock()
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// layers are the repository's modules as the per-layer metrics name them,
// plus gc (the Go runtime) and other (everything else).
var layers = []string{
	"sim", "condorg", "classad", "batch", "gram", "gridftp", "srm", "rls",
	"gsi", "vo", "monalisa", "ganglia", "rrd", "acdc", "ingest", "obs",
	"health", "goc", "core", "apps", "serve", "gc", "other",
}

// inclLayers get an inclusive share too: the layers that mostly call into
// others, where self time alone hides their cost.
var inclLayers = []string{
	"condorg", "batch", "gram", "gridftp", "rls", "monalisa", "ganglia",
	"ingest", "health", "serve",
}

var isLayer = func() map[string]bool {
	m := make(map[string]bool, len(layers))
	for _, l := range layers {
		m[l] = true
	}
	return m
}()

// framePackage returns the import path of a pprof frame's function, such
// as grid3/internal/condorg for grid3/internal/condorg.(*Schedd).Negotiate.
func framePackage(fn string) string {
	if i := strings.IndexByte(fn, '['); i >= 0 {
		fn = fn[:i] // generic instantiations may name other packages
	}
	slash := strings.LastIndexByte(fn, '/')
	if dot := strings.IndexByte(fn[slash+1:], '.'); dot >= 0 {
		return fn[:slash+1+dot]
	}
	return fn
}

// frameLayer maps a frame to its layer, or "" for a frame outside grid3.
func frameLayer(fn string) string {
	pkg := framePackage(fn)
	if pkg != "grid3" && !strings.HasPrefix(pkg, "grid3/") {
		return ""
	}
	name, _, _ := strings.Cut(strings.TrimPrefix(pkg, "grid3/internal/"), "/")
	if isLayer[name] {
		return name
	}
	return "other"
}

// classify attributes one sample's stack (innermost frame first). Self goes
// to the innermost grid3 frame's layer. A stack with no grid3 frame is the
// HTTP server (serve) when net/http's connection loop is on it, the
// benchmark's own code or HTTP client (other) when main or net/http is, and
// otherwise the Go runtime (gc). Inclusive layers are every layer on the
// stack, self included.
func classify(frames []string) (self string, incl map[string]bool) {
	incl = map[string]bool{}
	var sawServer, sawOther bool
	for _, fn := range frames {
		if l := frameLayer(fn); l != "" {
			if self == "" {
				self = l
			}
			incl[l] = true
			continue
		}
		switch {
		case strings.HasPrefix(fn, "net/http.(*conn)."):
			sawServer = true
		case strings.HasPrefix(fn, "main."), strings.HasPrefix(fn, "net/http."):
			sawOther = true
		}
	}
	if self == "" {
		switch {
		case sawServer:
			self = "serve"
		case sawOther:
			self = "other"
		default:
			self = "gc"
		}
		incl[self] = true
	}
	return self, incl
}

// attribution is a profile's samples summed per layer.
type attribution struct {
	Total float64
	Self  map[string]float64
	Incl  map[string]float64
}

// parseTraces reads the text of `go tool pprof -traces` and attributes each
// sample's value to layers. Values are in nanoseconds for CPU profiles and
// bytes for allocation profiles.
func parseTraces(r io.Reader) (attribution, error) {
	a := attribution{Self: map[string]float64{}, Incl: map[string]float64{}}
	var (
		frames  []string
		value   float64
		inBlock bool
		lineNo  int
	)
	flush := func() {
		if len(frames) == 0 {
			return
		}
		self, incl := classify(frames)
		a.Total += value
		a.Self[self] += value
		for l := range incl {
			a.Incl[l] += value
		}
		frames = frames[:0]
	}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 64<<10), 1<<20)
	for sc.Scan() {
		lineNo++
		line := sc.Text()
		if strings.HasPrefix(line, "-----------+") {
			flush()
			inBlock = true
			continue
		}
		fields := strings.Fields(line)
		if !inBlock || len(fields) == 0 || strings.HasSuffix(fields[0], ":") {
			continue // header, blank, or a sample label such as "bytes: 32B"
		}
		if len(frames) > 0 {
			frames = append(frames, fields[0]) // drops an "(inline)" marker
			continue
		}
		// A sample opens with its value and innermost frame on one line.
		v, err := parseQuantity(fields[0])
		if err != nil || len(fields) < 2 {
			return a, fmt.Errorf("pprof traces line %d: want value and frame in %q (%v)", lineNo, line, err)
		}
		value = v
		frames = append(frames, fields[1])
	}
	if err := sc.Err(); err != nil {
		return a, err
	}
	flush()
	return a, nil
}

// quantityUnits are the units pprof prints for one stack's CPU time or
// allocated bytes within a run of at most a minute.
var quantityUnits = map[string]float64{
	"ns": 1, "us": 1e3, "µs": 1e3, "ms": 1e6, "s": 1e9,
	"B": 1, "kB": 1 << 10, "MB": 1 << 20, "GB": 1 << 30,
}

// parseQuantity reads a pprof value such as 10ms, 1.56s, 62.51MB or -32B;
// pprof prints a zero without a unit.
func parseQuantity(s string) (float64, error) {
	if s == "0" {
		return 0, nil
	}
	i := strings.IndexFunc(s, func(r rune) bool {
		return (r < '0' || r > '9') && r != '.' && r != '-'
	})
	if i <= 0 {
		return 0, fmt.Errorf("bad quantity %q", s)
	}
	v, err := strconv.ParseFloat(s[:i], 64)
	if err != nil {
		return 0, fmt.Errorf("bad quantity %q: %w", s, err)
	}
	scale, ok := quantityUnits[s[i:]]
	if !ok {
		return 0, fmt.Errorf("unknown unit in %q", s)
	}
	return v * scale, nil
}

// profiler captures a CPU profile and the allocations made between start
// and stop, as DIR/<workload>.cpu.pprof and DIR/<workload>.alloc.pprof.
type profiler struct {
	cpuPath, allocPath, basePath string
	cpu                          *os.File
}

func startProfiler(dir, workload string) (*profiler, error) {
	p := &profiler{
		cpuPath:   filepath.Join(dir, workload+".cpu.pprof"),
		allocPath: filepath.Join(dir, workload+".alloc.pprof"),
		basePath:  filepath.Join(dir, workload+".alloc-base.pprof"),
	}
	if err := writeAllocProfile(p.basePath); err != nil {
		return nil, err
	}
	f, err := os.Create(p.cpuPath)
	if err != nil {
		return nil, err
	}
	if err := pprof.StartCPUProfile(f); err != nil {
		f.Close()
		return nil, err
	}
	p.cpu = f
	return p, nil
}

func (p *profiler) stop() error {
	pprof.StopCPUProfile()
	if err := p.cpu.Close(); err != nil {
		return err
	}
	return writeAllocProfile(p.allocPath)
}

// writeAllocProfile writes the cumulative allocation profile. The runtime
// folds allocations into it at the end of a GC cycle, hence the GC first.
func writeAllocProfile(path string) error {
	runtime.GC()
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := pprof.Lookup("allocs").WriteTo(f, 0); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// attribute runs `go tool pprof -traces` over the captured profiles and
// returns the CPU and allocated-bytes attributions.
func (p *profiler) attribute() (cpu, alloc attribution, err error) {
	if cpu, err = pprofTraces(p.cpuPath); err != nil {
		return
	}
	alloc, err = pprofTraces("-sample_index=alloc_space", "-base", p.basePath, p.allocPath)
	return
}

func pprofTraces(args ...string) (attribution, error) {
	cmd := exec.Command("go", append([]string{"tool", "pprof", "-traces"}, args...)...)
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		return attribution{}, fmt.Errorf("go tool pprof %s: %w", strings.Join(args, " "), err)
	}
	return parseTraces(bytes.NewReader(out))
}
