// Versioned JSON renderings for every sweep report. Each report kind owns a
// wire schema identified by a "schema" field ("grid3.<kind>/<version>");
// adding fields is compatible within a version, renaming or removing one
// bumps it. The "kind" values predate the schema field (they were minted by
// the grid3sim CLI writers) and are frozen: downstream tooling greps for
// them.

package campaign

import (
	"encoding/json"
	"runtime"
	"strconv"
	"time"
)

// Wire schema identifiers.
const (
	SweepSchema  = "grid3.sweep/1"
	ChaosSchema  = "grid3.chaos-sweep/1"
	ScaleSchema  = "grid3.scale-sweep/1"
	DataSchema   = "grid3.data-sweep/1"
	IngestSchema = "grid3.ingest-sweep/2"
)

func marshalReport(v any) ([]byte, error) {
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(data, '\n'), nil
}

// --- Report (multi-seed production sweep) ----------------------------------

type sweepRunJSON struct {
	Seed        int64   `json:"seed"`
	Scale       float64 `json:"scale"`
	ElapsedSecs float64 `json:"elapsed_seconds"`
	Jobs        int     `json:"jobs"`
	Records     int     `json:"records"`
	Events      uint64  `json:"events"`
	// Waves appears only when a wave family was armed, so wave-free sweep
	// reports stay byte-identical to the pre-wave schema (additive within
	// grid3.sweep/1).
	Waves *waveStatsJSON `json:"waves,omitempty"`
}

type waveStatsJSON struct {
	UpgradedSites   int `json:"upgraded_sites"`
	UpgradeKills    int `json:"upgrade_kills"`
	SkewKills       int `json:"skew_kills"`
	CertExpiries    int `json:"cert_expiries"`
	CertRenewals    int `json:"cert_renewals"`
	CertRevocations int `json:"cert_revocations"`
}

type statJSON struct {
	Min  float64 `json:"min"`
	Mean float64 `json:"mean"`
	Max  float64 `json:"max"`
}

type stageQuantilesJSON struct {
	Count uint64  `json:"count"`
	P50   float64 `json:"p50_seconds"`
	P90   float64 `json:"p90_seconds"`
	P99   float64 `json:"p99_seconds"`
}

type sweepAggJSON struct {
	JobsCompleted  statJSON                      `json:"jobs_completed"`
	PeakJobs       statJSON                      `json:"peak_jobs"`
	Utilization    statJSON                      `json:"utilization"`
	DataTBPerDay   statJSON                      `json:"data_tb_per_day"`
	SupportFTEs    statJSON                      `json:"support_ftes"`
	ConcurrentVO   statJSON                      `json:"concurrent_vo_sites"`
	EfficiencyByVO map[string]statJSON           `json:"efficiency_by_vo"`
	StageLatency   map[string]stageQuantilesJSON `json:"stage_latency,omitempty"`
}

type sweepRecordJSON struct {
	Schema     string         `json:"schema"`
	Kind       string         `json:"kind"`
	GoMaxProcs int            `json:"gomaxprocs"`
	Workers    int            `json:"workers"`
	WallSecs   float64        `json:"wall_seconds"`
	Events     uint64         `json:"events_total"`
	Runs       []sweepRunJSON `json:"runs"`
	Aggregate  sweepAggJSON   `json:"aggregate"`
}

func statView(s Stat) statJSON { return statJSON{Min: s.Min, Mean: s.Mean, Max: s.Max} }

// JSON renders the sweep under the grid3.sweep/1 schema.
func (rep *Report) JSON() ([]byte, error) {
	rec := sweepRecordJSON{
		Schema:     SweepSchema,
		Kind:       "grid3-sweep",
		GoMaxProcs: runtime.GOMAXPROCS(0),
		Workers:    rep.Workers,
		WallSecs:   rep.Elapsed.Seconds(),
		Aggregate: sweepAggJSON{
			JobsCompleted:  statView(rep.Agg.JobsCompleted),
			PeakJobs:       statView(rep.Agg.PeakJobs),
			Utilization:    statView(rep.Agg.Utilization),
			DataTBPerDay:   statView(rep.Agg.DataTBPerDay),
			SupportFTEs:    statView(rep.Agg.SupportFTEs),
			ConcurrentVO:   statView(rep.Agg.ConcurrentVO),
			EfficiencyByVO: map[string]statJSON{},
		},
	}
	for v, s := range rep.Agg.EfficiencyByVO {
		rec.Aggregate.EfficiencyByVO[v] = statView(s)
	}
	for stage, q := range rep.Agg.StageLatency {
		if rec.Aggregate.StageLatency == nil {
			rec.Aggregate.StageLatency = map[string]stageQuantilesJSON{}
		}
		rec.Aggregate.StageLatency[stage] = stageQuantilesJSON{
			Count: q.Count, P50: q.P50, P90: q.P90, P99: q.P99,
		}
	}
	for _, r := range rep.Runs {
		rec.Events += r.Events
		run := sweepRunJSON{
			Seed: r.Seed, Scale: r.Scale, ElapsedSecs: r.Elapsed.Seconds(),
			Jobs: r.Submitted, Records: r.Records, Events: r.Events,
		}
		if !r.Waves.Zero() {
			run.Waves = &waveStatsJSON{
				UpgradedSites:   r.Waves.UpgradedSites,
				UpgradeKills:    r.Waves.UpgradeKills,
				SkewKills:       r.Waves.SkewKills,
				CertExpiries:    r.Waves.CertExpiries,
				CertRenewals:    r.Waves.CertRenewals,
				CertRevocations: r.Waves.CertRevocations,
			}
		}
		rec.Runs = append(rec.Runs, run)
	}
	return marshalReport(rec)
}

// --- ChaosReport -----------------------------------------------------------

type chaosOutcomeJSON struct {
	Submitted        int                   `json:"submitted"`
	Completed        int                   `json:"completed"`
	JobsLost         int                   `json:"jobs_lost"`
	CompletionRate   float64               `json:"completion_rate"`
	GoodputRetention float64               `json:"goodput_retention"`
	Incidents        int                   `json:"incidents"`
	ReplicaFailovers uint64                `json:"replica_failovers"`
	StageRetries     uint64                `json:"stage_retries"`
	BreakersOpened   uint64                `json:"breakers_opened"`
	TicketsOpened    int                   `json:"tickets_opened"`
	Outages          map[string]outageJSON `json:"outages,omitempty"`
}

type outageJSON struct {
	Injected int     `json:"injected"`
	Detected int     `json:"detected"`
	MTTDSecs float64 `json:"mttd_seconds"`
	MTTRSecs float64 `json:"mttr_seconds"`
}

type chaosPointJSON struct {
	Seed      int64            `json:"seed"`
	Intensity float64          `json:"intensity"`
	Baseline  chaosOutcomeJSON `json:"baseline"`
	Recovery  chaosOutcomeJSON `json:"recovery"`
}

type chaosRecordJSON struct {
	Schema   string           `json:"schema"`
	Kind     string           `json:"kind"`
	Scale    float64          `json:"scale"`
	Days     int              `json:"days"`
	WallSecs float64          `json:"wall_seconds"`
	Clean    map[string]int   `json:"clean_completed_by_seed"`
	Points   []chaosPointJSON `json:"points"`
}

func chaosOutcomeView(o ChaosOutcome) chaosOutcomeJSON {
	out := chaosOutcomeJSON{
		Submitted:        o.Submitted,
		Completed:        o.Completed,
		JobsLost:         o.JobsLost,
		CompletionRate:   o.CompletionRate,
		GoodputRetention: o.GoodputRetention,
		Incidents:        o.Incidents,
		ReplicaFailovers: o.ReplicaFailovers,
		StageRetries:     o.StageRetries,
		BreakersOpened:   o.BreakersOpened,
		TicketsOpened:    o.TicketsOpened,
	}
	for kind, st := range o.Outages {
		if out.Outages == nil {
			out.Outages = map[string]outageJSON{}
		}
		out.Outages[kind] = outageJSON{
			Injected: st.Injected, Detected: st.Detected,
			MTTDSecs: st.MTTD.Seconds(), MTTRSecs: st.MTTR.Seconds(),
		}
	}
	return out
}

// JSON renders the sweep under the grid3.chaos-sweep/1 schema (kind
// "grid3sim-chaos", frozen from the original CLI writer).
func (rep *ChaosReport) JSON() ([]byte, error) {
	rec := chaosRecordJSON{
		Schema:   ChaosSchema,
		Kind:     "grid3sim-chaos",
		Scale:    rep.Scale,
		Days:     int(rep.Horizon / (24 * time.Hour)),
		WallSecs: rep.Elapsed.Seconds(),
		Clean:    map[string]int{},
	}
	for seed, n := range rep.CleanCompleted {
		rec.Clean[strconv.FormatInt(seed, 10)] = n
	}
	for _, pt := range rep.Points {
		rec.Points = append(rec.Points, chaosPointJSON{
			Seed: pt.Seed, Intensity: pt.Intensity,
			Baseline: chaosOutcomeView(pt.Baseline), Recovery: chaosOutcomeView(pt.Recovery),
		})
	}
	return marshalReport(rec)
}

// --- ScaleReport -----------------------------------------------------------

type scaleRecordJSON struct {
	Schema     string       `json:"schema"`
	Kind       string       `json:"kind"`
	GoMaxProcs int          `json:"gomaxprocs"`
	Days       int          `json:"days"`
	JobScale   float64      `json:"job_scale"`
	WallSecs   float64      `json:"wall_seconds"`
	Points     []ScalePoint `json:"points"`
}

// JSON renders the sweep under the grid3.scale-sweep/1 schema (kind
// "grid3sim-scale", frozen from the original CLI writer).
func (rep *ScaleReport) JSON() ([]byte, error) {
	return marshalReport(scaleRecordJSON{
		Schema:     ScaleSchema,
		Kind:       "grid3sim-scale",
		GoMaxProcs: runtime.GOMAXPROCS(0),
		Days:       rep.Days,
		JobScale:   rep.JobScale,
		WallSecs:   rep.Elapsed.Seconds(),
		Points:     rep.Points,
	})
}

// --- IngestReport ----------------------------------------------------------

type ingestRecordJSON struct {
	Schema        string  `json:"schema"`
	Kind          string  `json:"kind"`
	GoMaxProcs    int     `json:"gomaxprocs"`
	Events        int     `json:"events"`
	Series        int     `json:"series"`
	WallSecs      float64 `json:"wall_seconds"`
	EventsPerS    float64 `json:"events_per_second"`
	Mallocs       uint64  `json:"mallocs"`
	AllocBytes    uint64  `json:"alloc_bytes"`
	BytesPerEvent float64 `json:"bytes_per_event"`
	AuditWindows  int     `json:"audit_windows"`
	AuditVerified bool    `json:"audit_verified"`
}

// JSON renders the sweep under the grid3.ingest-sweep/2 schema (kind
// "grid3sim-ingest"; the bench-check tooling reads events_per_second
// and audit_verified).
func (rep *IngestReport) JSON() ([]byte, error) {
	return marshalReport(ingestRecordJSON{
		Schema:        IngestSchema,
		Kind:          "grid3sim-ingest",
		GoMaxProcs:    runtime.GOMAXPROCS(0),
		Events:        rep.Events,
		Series:        rep.Farms * rep.Params,
		WallSecs:      rep.Elapsed.Seconds(),
		EventsPerS:    rep.EventsPerS,
		Mallocs:       rep.Mallocs,
		AllocBytes:    rep.AllocBytes,
		BytesPerEvent: rep.BytesPerEvent,
		AuditWindows:  rep.AuditWindows,
		AuditVerified: rep.AuditVerified,
	})
}

// --- DataReport ------------------------------------------------------------

type dataRecordJSON struct {
	Schema       string      `json:"schema"`
	Kind         string      `json:"kind"`
	GoMaxProcs   int         `json:"gomaxprocs"`
	Days         int         `json:"days"`
	JobScale     float64     `json:"job_scale"`
	Doors        int         `json:"doors"`
	WallSecs     float64     `json:"wall_seconds"`
	MinTBPerDay  float64     `json:"managed_tb_per_day_min"`
	MeanTBPerDay float64     `json:"managed_tb_per_day_mean"`
	MaxTBPerDay  float64     `json:"managed_tb_per_day_max"`
	Points       []DataPoint `json:"points"`
}

// JSON renders the sweep under the grid3.data-sweep/1 schema (kind
// "grid3sim-data" and the managed_tb_per_day_* keys are frozen: the
// bench-check tooling greps them).
func (rep *DataReport) JSON() ([]byte, error) {
	return marshalReport(dataRecordJSON{
		Schema:       DataSchema,
		Kind:         "grid3sim-data",
		GoMaxProcs:   runtime.GOMAXPROCS(0),
		Days:         rep.Days,
		JobScale:     rep.JobScale,
		Doors:        rep.Doors,
		WallSecs:     rep.Elapsed.Seconds(),
		MinTBPerDay:  rep.MinTBPerDay,
		MeanTBPerDay: rep.MeanTBPerDay,
		MaxTBPerDay:  rep.MaxTBPerDay,
		Points:       rep.Points,
	})
}
