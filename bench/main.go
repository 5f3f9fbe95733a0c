// Command bench is the repository's benchmark. It drives the unmodified
// simulator and daemon through their public API on five workloads and
// prints every end-to-end metric by name with its unit; a traced run prints
// the per-layer metrics instead. See README.md for the metrics, the
// workloads and why each was chosen.
//
//	bash bench/run.sh --workload campaign --seed 1 --seconds 20 --trace 0
//	cd bench && go run . -seed 1                  # all five workloads
//	cd bench && go run . -workload ops -trace-out DIR
//	cd bench && go run . -workload serve -runs 5  # medians and quartiles
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics. The command exits non-zero when
// any output is incorrect.
package main

import (
	_ "embed"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"

	"grid3"
)

// workload is one set of inputs the benchmark runs.
type workload struct {
	name string
	// why is the one-line reason the workload exists.
	why string
	// args are the equivalent grid3sim flags (grid3d flags for serve).
	args string
	// options size the scenario; smoke shrinks it to well under a second.
	options func(smoke bool) []grid3.Option
	serve   bool
}

func sized(smoke bool, full, tiny []grid3.Option) []grid3.Option {
	if smoke {
		return tiny
	}
	return full
}

var workloads = []workload{
	{
		name: "campaign",
		why:  "27 historical sites, 183 days, job scale 0.1: the paper's full service schedule, where RLS republication, Condor-G negotiation and GC dominate",
		args: "-scale 0.1 -days 183",
		options: func(smoke bool) []grid3.Option {
			return sized(smoke,
				[]grid3.Option{grid3.WithJobScale(0.1), grid3.WithHorizon(183 * day)},
				[]grid3.Option{grid3.WithJobScale(0.002), grid3.WithHorizon(3 * day)})
		},
	},
	{
		name: "sites1000",
		why:  "1000-site testbed, 1 day, job scale 1.0: matchmaking over 1000 resources and heap size dominate, and RLS is nearly absent",
		args: "-sites 1000 -scale 1.0 -days 1",
		options: func(smoke bool) []grid3.Option {
			return sized(smoke,
				[]grid3.Option{grid3.WithTestbedScale(1000), grid3.WithJobScale(1.0), grid3.WithHorizon(day)},
				[]grid3.Option{grid3.WithTestbedScale(60), grid3.WithJobScale(0.005), grid3.WithHorizon(day)})
		},
	},
	{
		name: "dataplane",
		why:  "27 sites, 183 days, job scale 0.02 with SRM, 4 transfer doors, cleanup and replica ranking: GridFTP rebalance and admission lead, RLS drops out",
		args: "-scale 0.02 -days 183 -srm -doors 4 -cleanup -replica-rank",
		options: func(smoke bool) []grid3.Option {
			plane := []grid3.Option{grid3.WithSRM(), grid3.WithTransferDoors(4),
				grid3.WithStorageCleanup(0), grid3.WithReplicaRanking()}
			return append(plane, sized(smoke,
				[]grid3.Option{grid3.WithJobScale(0.02), grid3.WithHorizon(183 * day)},
				[]grid3.Option{grid3.WithJobScale(0.002), grid3.WithHorizon(3 * day)})...)
		},
	},
	{
		name: "ops",
		why:  "1000 sites, 7 days, job scale 0.01 with health probes, recovery, observability and ingest batch 64: monitoring and ingestion dominate, matchmaking is light",
		args: "-sites 1000 -scale 0.01 -days 7 -health -recovery -metrics-out FILE -ingest-batch 64",
		options: func(smoke bool) []grid3.Option {
			loop := []grid3.Option{grid3.WithHealthProbes(), grid3.WithRecovery(),
				grid3.WithObservability(), grid3.WithIngestBatching(64, 0)}
			return append(loop, sized(smoke,
				[]grid3.Option{grid3.WithTestbedScale(1000), grid3.WithJobScale(0.01), grid3.WithHorizon(7 * day)},
				[]grid3.Option{grid3.WithTestbedScale(60), grid3.WithJobScale(0.002), grid3.WithHorizon(day)})...)
		},
	},
	{
		name:  "serve",
		why:   "grid3d defaults warmed to sim hour 24, then grid3load's portal mix over nproc loopback connections: the only workload through HTTP and the ingress mailbox",
		args:  "grid3d -pace 3600 (27 sites, scale 1.0), warmed to hour 24",
		serve: true,
		options: func(bool) []grid3.Option {
			return []grid3.Option{grid3.WithRealTime(3600)}
		},
	},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// options are the settings one measurement runs under.
type options struct {
	seed     int64
	seconds  time.Duration
	traceDir string // traced when not empty
	smoke    bool
	log      io.Writer
}

func (o options) logf(format string, args ...any) { fmt.Fprintf(o.log, format+"\n", args...) }

func (o options) tracePath(name string) string { return filepath.Join(o.traceDir, name) }

// outcome is one measurement of one workload.
type outcome struct {
	attempted, failed int
	values            map[string]float64
}

func measure(w workload, o options) (outcome, error) {
	if w.serve {
		return runServe(w, o)
	}
	return runBatch(w, o)
}

//go:embed digests.json
var digestsJSON []byte

// storedDigests are the seed-1 outcomes of the full-size batch workloads; a
// run that lands anywhere else counts as failed.
var storedDigests map[string]digest

// report is the final line of standard output.
type report struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	name := flag.String("workload", "", "workload to run: "+workloadNames()+" (default all)")
	seed := flag.Int64("seed", 1, "workload seed: the same seed gives the same inputs")
	seconds := flag.Float64("seconds", 20, "how long one measurement of one workload runs")
	trace := flag.Int("trace", 0, "1 runs traced and prints the per-layer metrics")
	traceOut := flag.String("trace-out", "", "directory for spans and profiles; implies -trace 1 (default .bench_build/trace)")
	runs := flag.Int("runs", 1, "measure each workload this many times and print medians and quartiles")
	smoke := flag.Bool("smoke", false, "tiny sizes, for checking the benchmark itself")
	flag.Parse()

	o := options{seed: *seed, seconds: time.Duration(*seconds * float64(time.Second)),
		traceDir: *traceOut, smoke: *smoke, log: os.Stdout}
	if *trace == 1 && o.traceDir == "" {
		o.traceDir = filepath.Join(".bench_build", "trace")
	}
	code, err := run(*name, *runs, o, os.Stdout)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(2)
	}
	os.Exit(code)
}

func workloadNames() string {
	var names []string
	for _, w := range workloads {
		names = append(names, w.name)
	}
	return strings.Join(names, ", ")
}

// run measures the named workload (all when name is empty) runs times and
// prints the report; it returns the exit code.
func run(name string, runs int, o options, out io.Writer) (int, error) {
	if err := json.Unmarshal(digestsJSON, &storedDigests); err != nil {
		return 0, fmt.Errorf("digests.json: %w", err)
	}
	if o.seconds <= 0 || runs < 1 {
		return 0, fmt.Errorf("-seconds and -runs must be positive")
	}
	selected := workloads
	if name != "" {
		w, ok := findWorkload(name)
		if !ok {
			return 0, fmt.Errorf("unknown workload %q (have %s)", name, workloadNames())
		}
		selected = []workload{w}
	}
	if o.traceDir != "" {
		if err := os.MkdirAll(o.traceDir, 0o755); err != nil {
			return 0, err
		}
	}
	specs := endToEnd
	if o.traceDir != "" {
		specs = perLayer
	}
	gogc := os.Getenv("GOGC")
	if gogc == "" {
		gogc = "100 (unset)"
	}
	fmt.Fprintf(out, "bench: seed %d, %v per measurement, traced %v, smoke %v; nproc %d, GOMAXPROCS %d, %s, GOGC %s\n",
		o.seed, o.seconds, o.traceDir != "", o.smoke, runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), gogc)

	final := report{Correct: true, Metrics: map[string]metric{}}
	for _, w := range selected {
		fmt.Fprintf(out, "== %s (%s): %s\n", w.name, w.args, w.why)
		perRun := map[string][]float64{}
		for i := range runs {
			if runs > 1 {
				fmt.Fprintf(out, "-- run %d of %d\n", i+1, runs)
			}
			res, err := measure(w, o)
			if err != nil {
				return 0, err
			}
			m, err := complete(res.values, specs)
			if err != nil {
				return 0, fmt.Errorf("%s: %w", w.name, err)
			}
			final.Attempted += res.attempted
			final.Failed += res.failed
			fmt.Fprintf(out, "  %d attempted, %d failed\n", res.attempted, res.failed)
			for _, s := range specs {
				perRun[s.Name] = append(perRun[s.Name], m[s.Name].Value)
			}
		}
		for _, s := range specs {
			v := perRun[s.Name]
			q1, q2, q3 := quartiles(v)
			if runs > 1 {
				fmt.Fprintf(out, "  %-36s %14.6g %-12s [q1 %.6g, q3 %.6g]\n", s.Name, q2, s.Unit, q1, q3)
			} else {
				fmt.Fprintf(out, "  %-36s %14.6g %s\n", s.Name, q2, s.Unit)
			}
			key := s.Name
			if len(selected) > 1 {
				key = w.name + "." + s.Name
			}
			final.Metrics[key] = metric{Value: median(v), Unit: s.Unit}
		}
	}
	final.Correct = final.Failed == 0
	line, err := json.Marshal(final)
	if err != nil {
		return 0, err
	}
	fmt.Fprintf(out, "%s\n", line)
	if !final.Correct {
		return 1, nil
	}
	return 0, nil
}
