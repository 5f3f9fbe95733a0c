// Command grid3d runs the Grid3 scenario as a long-running service: the
// simulation advances continuously in scaled real time (default: one
// simulated hour per wall second) and the paper's user-facing surfaces are
// exposed as HTTP/JSON APIs on -addr.
//
//	grid3d [-addr :8080] [-pace 3600] [-seed N] [-sites N] [-scale F] [-days D]
//	       [-srm] [-health] [-recovery] [-doors N] [-cleanup] [-replica-rank]
//	       [-config grid3d.json] [-json-out status.json]
//	       [-checkpoint-dir DIR] [-checkpoint-every 6h] [-checkpoint-keep 3]
//
// Endpoints (all JSON; see the README endpoint table):
//
//	GET  /healthz                      liveness (never waits for the engine)
//	GET  /api/v1/status                clocks, pace, lag, counters
//	GET  /api/v1/vo                    VOs and member counts
//	GET  /api/v1/vo/{vo}/members       VOMS membership list
//	POST /api/v1/vo/{vo}/members       enroll a member (VOMS)
//	POST /api/v1/jobs                  submit a job (Condor-G)
//	GET  /api/v1/jobs[/{id}]           job counters / one job's state
//	GET  /api/v1/rls/{lfn}             replica lookup (RLS)
//	GET  /api/v1/monitor/metrics       engine + observability counters
//	GET  /api/v1/monitor/monalisa      MonALISA series and last samples
//	GET  /api/v1/monitor/acdc          ACDC job-archive summaries
//	GET  /api/v1/sites                 site catalog with live status
//	GET  /api/v1/goc/tickets[/{id}]    iGOC trouble tickets
//	POST /api/v1/config/reload         re-read -config, apply dynamic fields
//
// The -config file is JSON, layered over the flags at startup, and read
// strictly: an unknown field or data after the object stops the boot (exit
// 1) or fails the reload, leaving the pace as it was. At runtime only
// "pace" applies — POST /api/v1/config/reload or SIGHUP re-reads it,
// applies the pace, and reports every other field it had to skip as
// needing a restart. -days 0 keeps the default 183-day paper window; after
// the horizon the daemon stops generating load but keeps answering
// queries. -json-out writes a final status record ("grid3.serve-status/1")
// on clean shutdown, under the versioned-schema convention of the
// grid3exp reports; a record that cannot be written makes the exit status
// 1.
//
// SIGINT/SIGTERM shut down gracefully: in-flight requests finish, and the
// scenario runs its end-of-run bookkeeping.
//
// -checkpoint-dir makes the daemon crash-recoverable: on boot it restores
// the newest decodable snapshot in the directory (logging the snapshot ID
// and sim time, or the rejection reason followed by a cold start), every
// -checkpoint-every of simulated time it captures a fresh snapshot
// (atomically committed, pruned to -checkpoint-keep), and on SIGINT/SIGTERM
// it writes a final snapshot before stopping. A snapshot records the
// resolved configuration plus the journal of API mutations; restore replays
// it deterministically and verifies a state digest, so a restored daemon
// continues byte-identically — and a kill -9 loses at most one
// -checkpoint-every window.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/signal"
	"sync"
	"syscall"
	"time"

	"grid3/internal/checkpoint"
	"grid3/internal/core"
	"grid3/internal/serve"
)

func main() {
	addr := flag.String("addr", ":8080", "HTTP listen address")
	pace := flag.Float64("pace", 0, "virtual seconds per wall second (0 = the serve default, 3600)")
	seed := flag.Int64("seed", 1, "simulation seed (same seed, same run)")
	sites := flag.Int("sites", 0, "testbed size: 0 = the historical 27-site catalog, larger adds synthetic sites")
	scale := flag.Float64("scale", 1.0, "workload scale factor (1.0 = paper's ~290k jobs)")
	days := flag.Int("days", 0, "simulated horizon in days (0 = the 183-day paper window)")
	useSRM := flag.Bool("srm", false, "enable SRM space reservation (the §8 lesson)")
	healthOn := flag.Bool("health", false, "arm site health probing with circuit breakers (read-only)")
	recoveryOn := flag.Bool("recovery", false, "close the fault-management loop (implies -health)")
	doors := flag.Int("doors", 0, "bound concurrent GridFTP flows per endpoint (0 = historical unbounded WAN)")
	cleanupOn := flag.Bool("cleanup", false, "arm the SRM lifecycle loop (expiry, pins, watermark eviction)")
	replicaRank := flag.Bool("replica-rank", false, "rank Pegasus stage-in replicas by live WAN load")
	ingestBatch := flag.Int("ingest-batch", 0, "N > 0 arms the per-VO Merkle usage ledger served at /api/v1/audit/* (not a batch size: every N > 0 is the same)")
	ingestWindow := flag.Duration("ingest-window", 0, "usage-ledger window (0 = the monitor interval; needs -ingest-batch)")
	maxPending := flag.Int("max-pending", 0, "requests that may wait for the engine before shedding (0 = the serve default, 4096)")
	configPath := flag.String("config", "", "JSON config file; SIGHUP or POST /api/v1/config/reload re-applies the dynamic fields")
	jsonOut := flag.String("json-out", "", "write the final status record JSON to this file on shutdown")
	ckptDir := flag.String("checkpoint-dir", "", "durable snapshot directory: restore the newest snapshot on boot, auto-snapshot while running, final snapshot on shutdown")
	ckptEvery := flag.Duration("checkpoint-every", 6*time.Hour, "simulated time between automatic snapshots (with -checkpoint-dir)")
	ckptKeep := flag.Int("checkpoint-keep", 3, "snapshots retained in -checkpoint-dir; older ones are pruned")
	flag.Parse()
	if *ingestWindow != 0 && *ingestBatch <= 0 {
		fmt.Fprintln(os.Stderr, "grid3d: -ingest-window needs -ingest-batch")
		os.Exit(2)
	}

	cfg := serve.Config{
		Scenario: core.ScenarioConfig{
			Config: core.Config{
				Seed:                 *seed,
				TestbedSites:         *sites,
				UseSRM:               *useSRM,
				EnableHealth:         *healthOn,
				EnableRecovery:       *recoveryOn,
				TransferDoors:        *doors,
				EnableStorageCleanup: *cleanupOn,
				EnableReplicaRanking: *replicaRank,
				IngestBatch:          *ingestBatch,
				IngestWindow:         *ingestWindow,
			},
			JobScale: *scale,
		},
		Pace:       *pace,
		MaxPending: *maxPending,
	}
	if *days > 0 {
		cfg.Scenario.Horizon = time.Duration(*days) * 24 * time.Hour
	}

	// The config file is optional and layered over the flags: the startup
	// read applies everything, later reloads apply only the dynamic subset.
	if *configPath != "" {
		fc, err := readConfig(*configPath)
		if err != nil {
			fatal(err)
		}
		if fc.Pace != nil {
			cfg.Pace = *fc.Pace
		}
		if fc.MaxPending != nil {
			cfg.MaxPending = *fc.MaxPending
		}
		if fc.Seed != nil {
			cfg.Scenario.Seed = *fc.Seed
		}
		if fc.Sites != nil {
			cfg.Scenario.TestbedSites = *fc.Sites
		}
		if fc.Scale != nil {
			cfg.Scenario.JobScale = *fc.Scale
		}
		if fc.Days != nil && *fc.Days > 0 {
			cfg.Scenario.Horizon = time.Duration(*fc.Days) * 24 * time.Hour
		}
	}

	// Durable checkpointing: restore the newest snapshot if one exists. A
	// snapshot that fails to restore (digest mismatch, schema skew) is
	// reported and skipped — the daemon cold-starts rather than dying or
	// loading partial state.
	var store checkpoint.StateStore
	if *ckptDir != "" {
		ds, err := checkpoint.NewDirStore(*ckptDir)
		if err != nil {
			fatal(err)
		}
		store = ds
		snap, id, err := checkpoint.Latest(ds)
		switch {
		case errors.Is(err, checkpoint.ErrNotFound):
			fmt.Printf("grid3d: %v; cold start\n", err)
		case err != nil:
			fatal(err)
		default:
			cfg.Restore = snap
			cfg.RestoreOverrides = core.RestoreOverrides{
				Horizon: cfg.Scenario.Horizon,
			}
			fmt.Printf("grid3d: restoring snapshot %s (sim %v, %d journal ops)\n",
				id, snap.SimTime, len(snap.Journal))
		}
	}

	svc, err := serve.New(cfg)
	if err != nil && cfg.Restore != nil {
		fmt.Fprintf(os.Stderr, "grid3d: restore rejected: %v; cold start\n", err)
		cfg.Restore = nil
		svc, err = serve.New(cfg)
	}
	if err != nil {
		fatal(err)
	}
	if cfg.Restore != nil {
		fmt.Printf("grid3d: restored at sim %v\n", svc.Scenario().Grid.Eng.Now())
	}

	// saveSnapshot captures and durably commits one snapshot; periodic and
	// shutdown captures share it. The mutex keeps a shutdown snapshot from
	// interleaving with a periodic one.
	var snapMu sync.Mutex
	saveSnapshot := func(reason string) {
		snapMu.Lock()
		defer snapMu.Unlock()
		snap, err := svc.Snapshot()
		if err != nil {
			fmt.Fprintf(os.Stderr, "grid3d: %s snapshot skipped: %v\n", reason, err)
			return
		}
		id, err := checkpoint.Save(store, snap)
		if err != nil {
			fmt.Fprintf(os.Stderr, "grid3d: %s snapshot: %v\n", reason, err)
			return
		}
		if err := checkpoint.Prune(store, *ckptKeep); err != nil {
			fmt.Fprintf(os.Stderr, "grid3d: pruning snapshots: %v\n", err)
		}
		fmt.Printf("grid3d: %s snapshot %s at sim %v\n", reason, id, snap.SimTime)
	}

	var reload func() (map[string]any, error)
	if *configPath != "" {
		reload = reloader(svc, *configPath)
	}
	handler := serve.NewHandler(svc, serve.HandlerConfig{Reload: reload})

	svc.Start()

	// Periodic auto-snapshot: poll the sim clock at wall cadence and capture
	// once -checkpoint-every of simulated time has elapsed since the last
	// one. Capture runs under the engine lock as a pure read, so the run
	// stays byte-identical to one that never checkpoints.
	ckptStop := make(chan struct{})
	if store != nil && *ckptEvery > 0 {
		lastSnap := svc.Scenario().Grid.Eng.Now()
		go func() {
			ticker := time.NewTicker(time.Second)
			defer ticker.Stop()
			for {
				select {
				case <-ckptStop:
					return
				case <-ticker.C:
					st, err := svc.StatusNow()
					if err != nil || st.Finished {
						continue
					}
					if st.SimNow-lastSnap >= *ckptEvery {
						saveSnapshot("periodic")
						lastSnap = st.SimNow
					}
				}
			}
		}()
	}

	// Signals are caught before the daemon says it is serving, so a
	// SIGTERM sent on that line always gets the graceful shutdown.
	hup := make(chan os.Signal, 1)
	signal.Notify(hup, syscall.SIGHUP)
	stop := make(chan os.Signal, 1)
	signal.Notify(stop, syscall.SIGINT, syscall.SIGTERM)

	server := &http.Server{Addr: *addr, Handler: handler}
	httpErr := make(chan error, 1)
	go func() { httpErr <- server.ListenAndServe() }()
	fmt.Printf("grid3d: serving on %s (seed %d, %d-site testbed flag, pace %.0fx)\n",
		*addr, cfg.Scenario.Seed, cfg.Scenario.TestbedSites, svc.Pace())

	for {
		select {
		case <-hup:
			if reload == nil {
				fmt.Fprintln(os.Stderr, "grid3d: SIGHUP ignored (no -config file)")
				continue
			}
			applied, err := reload()
			if err != nil {
				fmt.Fprintln(os.Stderr, "grid3d: reload:", err)
				continue
			}
			fmt.Printf("grid3d: config reloaded: %v\n", applied)
		case err := <-httpErr:
			svc.Stop()
			fatal(err)
		case sig := <-stop:
			fmt.Printf("grid3d: %v, shutting down\n", sig)
			ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
			if err := server.Shutdown(ctx); err != nil {
				fmt.Fprintln(os.Stderr, "grid3d: http shutdown:", err)
			}
			cancel()
			close(ckptStop)
			if store != nil {
				// Final snapshot before the sim loop finishes: a restarted
				// daemon resumes from the instant of shutdown, not the last
				// periodic capture.
				saveSnapshot("final")
			}
			st, stErr := svc.StatusNow()
			svc.Stop()
			if stErr != nil {
				// The snapshot raced shutdown; report what the atomics know.
				fmt.Printf("grid3d: stopped\n")
				return
			}
			fmt.Printf("grid3d: stopped at sim %v — %d events, %d requests accepted, %d shed\n",
				st.SimNow.Round(time.Second), st.Events, st.Accepted, st.Shed)
			if *jsonOut != "" {
				if err := writeStatusJSON(*jsonOut, st); err != nil {
					fatal(fmt.Errorf("writing status JSON: %w", err))
				}
			}
			return
		}
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "grid3d:", err)
	os.Exit(1)
}

// fileConfig is the -config schema. Pointer fields distinguish "absent"
// from zero values; only Pace is dynamic — MaxPending sizes the ingress
// and the rest shape the scenario at construction, so they need a restart
// to change.
type fileConfig struct {
	Pace       *float64 `json:"pace,omitempty"`
	MaxPending *int     `json:"max_pending,omitempty"`
	Seed       *int64   `json:"seed,omitempty"`
	Sites      *int     `json:"sites,omitempty"`
	Scale      *float64 `json:"scale,omitempty"`
	Days       *int     `json:"days,omitempty"`
}

// readConfig reads the -config file strictly: an unknown field (a misspelt
// "pace" would otherwise be dropped without a word) or data after the
// object is an error.
func readConfig(path string) (fileConfig, error) {
	f, err := os.Open(path)
	if err != nil {
		return fileConfig{}, err
	}
	defer f.Close()
	dec := json.NewDecoder(f)
	dec.DisallowUnknownFields()
	var fc fileConfig
	if err := dec.Decode(&fc); err != nil {
		return fileConfig{}, fmt.Errorf("parsing %s: %w", path, err)
	}
	if _, err := dec.Token(); err != io.EOF {
		return fileConfig{}, fmt.Errorf("parsing %s: data after the config object", path)
	}
	return fc, nil
}

// reloader builds the hot-reload hook shared by SIGHUP and the HTTP
// endpoint: re-read the file, apply the dynamic subset, report every static
// field that was present but needs a restart. Serialized so a SIGHUP racing
// a POST cannot interleave half-applied configs.
func reloader(svc *serve.Service, path string) func() (map[string]any, error) {
	var mu sync.Mutex
	return func() (map[string]any, error) {
		mu.Lock()
		defer mu.Unlock()
		fc, err := readConfig(path)
		if err != nil {
			return nil, err
		}
		applied := map[string]any{}
		var skipped []string
		if fc.Pace != nil {
			if err := svc.SetPace(*fc.Pace); err != nil {
				return nil, err
			}
			applied["pace"] = *fc.Pace
		}
		for _, f := range []struct {
			key string
			set bool
		}{
			{"max_pending", fc.MaxPending != nil},
			{"seed", fc.Seed != nil},
			{"sites", fc.Sites != nil},
			{"scale", fc.Scale != nil},
			{"days", fc.Days != nil},
		} {
			if f.set {
				skipped = append(skipped, f.key)
			}
		}
		if len(skipped) > 0 {
			applied["skipped_restart_required"] = skipped
		}
		return applied, nil
	}
}

// writeStatusJSON writes the serve layer's versioned status record
// (serve.StatusSchema).
func writeStatusJSON(path string, st serve.Status) error {
	data, err := serve.StatusJSON(st)
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
