package exp

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"time"

	"grid3/internal/campaign"
	"grid3/internal/core"
)

// RunOptions shape one runner pass.
type RunOptions struct {
	// OutDir receives every output path in the spec ("" = the current
	// directory). Created if missing.
	OutDir string
	// Only restricts the pass to the named experiments; empty runs all.
	// A name not in the spec is an error, not a silent skip.
	Only []string
	// Log receives the campaign reports' human renderings and per-file
	// progress lines (nil = discard).
	Log io.Writer
}

// Outcome is one executed experiment: the report file written and its
// exact bytes, for the analyzer pass.
type Outcome struct {
	Name string
	Mode string
	Path string // full path written (OutDir joined with the spec's out)
	Raw  []byte // the report JSON as written
}

// report is the shared surface of every campaign report.
type report interface {
	Write(io.Writer)
	JSON() ([]byte, error)
}

// Run executes the grid: every selected experiment in spec order, each
// through its campaign runner, each writing its own report file.
// Experiments run serially — scale mode's allocation accounting demands
// it, and the campaigns parallelize internally where it is safe.
func Run(spec *Spec, opts RunOptions) ([]Outcome, error) {
	logw := opts.Log
	if logw == nil {
		logw = io.Discard
	}
	selected := spec.Experiments
	if len(opts.Only) > 0 {
		selected = nil
		for _, name := range opts.Only {
			e := spec.Experiment(name)
			if e == nil {
				return nil, fmt.Errorf("exp: -only names unknown experiment %q", name)
			}
			selected = append(selected, *e)
		}
	}
	if opts.OutDir != "" {
		if err := os.MkdirAll(opts.OutDir, 0o755); err != nil {
			return nil, fmt.Errorf("exp: %w", err)
		}
	}
	var outcomes []Outcome
	for i := range selected {
		e := &selected[i]
		fmt.Fprintf(logw, "== experiment %s (%s)\n", e.Name, e.Mode)
		rep, err := runExperiment(e)
		if err != nil {
			return nil, fmt.Errorf("exp: experiment %q: %w", e.Name, err)
		}
		rep.Write(logw)
		raw, err := rep.JSON()
		if err != nil {
			return nil, fmt.Errorf("exp: experiment %q: render report: %w", e.Name, err)
		}
		path := filepath.Join(opts.OutDir, e.Out)
		if dir := filepath.Dir(path); dir != "." {
			if err := os.MkdirAll(dir, 0o755); err != nil {
				return nil, fmt.Errorf("exp: %w", err)
			}
		}
		if err := os.WriteFile(path, raw, 0o644); err != nil {
			return nil, fmt.Errorf("exp: experiment %q: %w", e.Name, err)
		}
		fmt.Fprintf(logw, "wrote %s\n", path)
		outcomes = append(outcomes, Outcome{Name: e.Name, Mode: e.Mode, Path: path, Raw: raw})
	}
	return outcomes, nil
}

// base builds the scenario configuration the knobs describe, one field
// per knob, mirroring the grid3sim flag-to-config wiring so a spec knob
// and the CLI flag of the same name produce byte-identical runs. A zero
// knob leaves its field zero, which each mode reads as its own default.
func (k Knobs) base() core.ScenarioConfig {
	return core.ScenarioConfig{
		Config: core.Config{
			TestbedSites:     k.TestbedSites,
			TransferDoors:    k.Doors,
			CleanupWatermark: k.Watermark,
			EnableHealth:     k.Health,
			EnableRecovery:   k.Recovery,
		},
		Horizon:  time.Duration(k.Days) * 24 * time.Hour,
		JobScale: k.Scale,
		UpgradeWave: core.UpgradeWaveConfig{
			Start:   k.UpgradeAt.Std(),
			Stagger: k.UpgradeStagger.Std(),
		},
		CertWave: core.CertWaveConfig{
			Lifetime:       k.CertLifetime.Std(),
			RenewalDelay:   k.CertRenewal.Std(),
			RevokeFraction: k.RevokeFraction,
		},
	}
}

// runExperiment dispatches one experiment to its campaign runner.
func runExperiment(e *Experiment) (report, error) {
	base := e.Knobs.base()
	switch e.Mode {
	case ModeChaos:
		return campaign.ChaosSweep(campaign.ChaosSweepConfig{
			Seeds:       e.Axes.Seeds,
			Intensities: e.Axes.Intensities,
			Base:        base,
			Workers:     e.Knobs.Workers,
		})
	case ModeScale:
		return campaign.ScaleSweep(campaign.ScaleSweepConfig{
			SiteCounts: e.Axes.Sites,
			Seeds:      e.Axes.Seeds,
			Base:       base,
		})
	case ModeData:
		return campaign.DataSweep(campaign.DataSweepConfig{
			Seeds:   e.Axes.Seeds,
			Base:    base,
			Workers: e.Knobs.Workers,
		})
	case ModeSweep:
		seeds := e.Axes.Seeds
		if len(seeds) == 0 {
			seeds = []int64{1}
		}
		return campaign.Sweep(seeds, base, e.Knobs.Workers)
	}
	return nil, fmt.Errorf("unknown mode %q", e.Mode)
}
