package main

import (
	"fmt"
	"sort"
)

// metric is one reported number.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// metricSpec names a metric, its unit, and which direction is better.
type metricSpec struct {
	Name, Unit, Better string
}

// endToEnd are the metrics an untraced run reports for every workload. For
// batch workloads p50_ms and p99_ms time one simulated hour's RunUntil, the
// stall a paced daemon would pass on to requests; for serve they time
// requests from their due time.
var endToEnd = []metricSpec{
	{"setup_s", "s", "lower"},
	{"run_s", "s", "lower"},
	{"heap_mb", "MB", "lower"},
	{"p50_ms", "ms", "lower"},
	{"p99_ms", "ms", "lower"},
}

// endpointKinds are the seven request classes of the portal mix.
var endpointKinds = []string{"submit", "status", "monitor", "rls", "sites", "tickets", "enroll"}

// countSpecs are the deterministic counts read from public accessors after
// a run; for a batch workload they repeat exactly from run to run.
var countSpecs = []metricSpec{
	{"sim.events", "count", "lower"},
	{"sim.discarded", "count", "lower"},
	{"condorg.submitted", "count", "higher"},
	{"condorg.completed", "count", "higher"},
	{"condorg.held", "count", "lower"},
	{"condorg.match_failures", "count", "lower"},
	{"condorg.completed_per_submitted", "ratio", "higher"},
	{"batch.started", "count", "higher"},
	{"batch.failed", "count", "lower"},
	{"gridftp.completed", "count", "higher"},
	{"gridftp.failures", "count", "lower"},
	{"gridftp.peak_queue", "count", "lower"},
	{"gridftp.mean_queue_wait_s", "s", "lower"},
	{"rls.index_size", "count", "lower"},
	{"rls.known_lfns", "count", "higher"},
	{"monalisa.series", "count", "higher"},
	{"ingest.windows", "count", "higher"},
	{"goc.tickets", "count", "lower"},
}

// perLayer are the metrics a traced run reports for every workload; those
// that do not apply to a workload (serve.* on a batch workload) read 0.
var perLayer = func() []metricSpec {
	var out []metricSpec
	for _, l := range layers {
		out = append(out, metricSpec{"cpu." + l, "ratio", "lower"})
	}
	for _, l := range inclLayers {
		out = append(out, metricSpec{"cpu_incl." + l, "ratio", "lower"})
	}
	for _, l := range layers {
		out = append(out, metricSpec{"alloc." + l, "B/event", "lower"})
	}
	out = append(out,
		metricSpec{"allocs_per_event", "allocs/event", "lower"},
		metricSpec{"bytes_per_event", "B/event", "lower"},
		metricSpec{"gc.cycles", "count", "lower"},
		metricSpec{"gc.pause_ms", "ms", "lower"},
		metricSpec{"heap.peak_mb", "MB", "lower"},
		metricSpec{"engine.hour_p50_ms", "ms", "lower"},
		metricSpec{"engine.hour_p99_ms", "ms", "lower"},
		metricSpec{"engine.hour_samples", "count", "higher"},
		metricSpec{"engine.finish_ms", "ms", "lower"},
		metricSpec{"report_ms", "ms", "lower"},
	)
	out = append(out, countSpecs...)
	out = append(out,
		metricSpec{"serve.requests", "count", "higher"},
		metricSpec{"serve.goodput", "ratio", "higher"},
		metricSpec{"serve.fixed_p50_ms", "ms", "lower"},
		metricSpec{"serve.fixed_p99_ms", "ms", "lower"},
		metricSpec{"serve.max_rps", "req/s", "higher"},
		metricSpec{"serve.mailbox_wait_p50_ms", "ms", "lower"},
		metricSpec{"serve.mailbox_wait_p99_ms", "ms", "lower"},
		metricSpec{"serve.handler_p50_ms", "ms", "lower"},
		metricSpec{"serve.handler_p99_ms", "ms", "lower"},
		metricSpec{"serve.gen_late_p99_ms", "ms", "lower"},
		metricSpec{"serve.shed", "count", "lower"},
		metricSpec{"serve.lag_s", "s", "lower"},
	)
	for _, k := range endpointKinds {
		out = append(out,
			metricSpec{"serve.endpoint." + k + ".rps", "req/s", "higher"},
			metricSpec{"serve.endpoint." + k + ".p99_ms", "ms", "lower"})
	}
	return append(out, metricSpec{"trace_overhead", "ratio", "lower"})
}()

// complete gives every metric in specs its unit, reads a missing one as 0,
// and rejects a value no spec names: the printed set is exactly the
// declared one.
func complete(values map[string]float64, specs []metricSpec) (map[string]metric, error) {
	out := make(map[string]metric, len(specs))
	for _, s := range specs {
		out[s.Name] = metric{Value: values[s.Name], Unit: s.Unit}
	}
	var extra []string
	for name := range values {
		if _, ok := out[name]; !ok {
			extra = append(extra, name)
		}
	}
	if len(extra) > 0 {
		sort.Strings(extra)
		return nil, fmt.Errorf("undeclared metrics %v", extra)
	}
	return out, nil
}
