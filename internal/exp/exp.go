// Package exp is the declarative experiment grid: a versioned JSON spec
// (grid3.exp/1) naming experiments over the existing campaign modes —
// chaos, scale, data, and the plain multi-seed sweep — with axis
// lists and scenario knobs, executed deterministically through the
// campaign layer by one runner (cmd/grid3exp). Each experiment owns one
// BENCH_*.json output; the analyzer pass flattens every report into a
// grouped CSV and regenerates the EXPERIMENTS.md summary table, so the
// full evidence set the repo tracks across PRs comes from one command
// over one checked-in file instead of a drawer of ad-hoc demo scripts.
//
// The spec decoder is strict: unknown fields, a wrong schema string,
// duplicate experiment names, axes that don't belong to the experiment's
// mode, out-of-range knobs and repeated axis values are rejected with
// errors naming the offender. Same
// spec, same seed, same bytes — wall-clock fields aside, which
// Normalize zeroes for diffing.
package exp

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"time"
)

// Schema is the spec wire identifier. Adding optional fields is
// compatible within the version; renaming or removing one bumps it.
const Schema = "grid3.exp/1"

// Experiment modes, one per campaign runner.
const (
	ModeChaos = "chaos" // campaign.ChaosSweep: seeds x intensities, baseline vs recovery
	ModeScale = "scale" // campaign.ScaleSweep: growing site populations, serial points
	ModeData  = "data"  // campaign.DataSweep: raw GridFTP baseline vs managed plane
	ModeSweep = "sweep" // campaign.Sweep: one full scenario per seed
)

// Duration is a time.Duration that rides JSON as a Go duration string
// ("48h", "90m"). The zero value marshals "0s" but is normally omitted.
type Duration time.Duration

// Std converts back to the standard library type.
func (d Duration) Std() time.Duration { return time.Duration(d) }

func (d Duration) MarshalJSON() ([]byte, error) {
	return json.Marshal(time.Duration(d).String())
}

func (d *Duration) UnmarshalJSON(b []byte) error {
	var s string
	if err := json.Unmarshal(b, &s); err != nil {
		return fmt.Errorf("durations are strings like \"48h\": %w", err)
	}
	v, err := time.ParseDuration(s)
	if err != nil {
		return fmt.Errorf("bad duration %q (want Go syntax like \"48h\")", s)
	}
	*d = Duration(v)
	return nil
}

// Spec is one experiment grid: a named set of experiments plus the
// analyzer outputs the runner regenerates after a full pass.
type Spec struct {
	Schema string `json:"schema"`
	// Name labels the grid in logs and the markdown block.
	Name string `json:"name"`
	// CSV, when set, receives the grouped long-format table of every
	// deterministic metric across all experiments (one row per scalar).
	CSV string `json:"csv,omitempty"`
	// Markdown, when set, is the file whose grid3exp marker block is
	// rewritten with the summary table (created whole if missing).
	Markdown    string       `json:"markdown,omitempty"`
	Experiments []Experiment `json:"experiments"`
}

// Experiment is one named point grid: a campaign mode, the axes swept,
// the scenario knobs held constant, and the report file it owns.
type Experiment struct {
	Name string `json:"name"`
	Mode string `json:"mode"`
	// Out is the report path (relative to the runner's -out-dir), e.g.
	// "BENCH_chaos.json". The written bytes are the campaign report's
	// versioned JSON rendering.
	Out   string `json:"out"`
	Axes  Axes   `json:"axes,omitempty"`
	Knobs Knobs  `json:"knobs,omitempty"`
}

// Axes are the swept dimensions. Which fields are legal depends on the
// mode — seeds everywhere, intensities only for chaos, sites only for
// scale — and validation rejects a spec that crosses them. Empty axes
// fall back to the campaign's own defaults.
type Axes struct {
	Seeds       []int64   `json:"seeds,omitempty"`
	Intensities []float64 `json:"intensities,omitempty"`
	Sites       []int     `json:"sites,omitempty"`
}

// Knobs are the scenario settings held constant across the experiment's
// points. Zero values keep the same defaults the grid3sim flags have, so
// a spec line and a CLI invocation with the same words mean the same run.
// Like axes, a knob its mode never reads is rejected.
type Knobs struct {
	// Scale is the workload scale factor (0 = 1.0, the paper's ~290k jobs).
	Scale float64 `json:"scale,omitempty"`
	// Days is the simulated horizon; 0 keeps each mode's own default
	// (chaos/sweep: the 183-day campaign; data: 30; scale: 1).
	Days int `json:"days,omitempty"`
	// TestbedSites grows the synthetic testbed (0 = the 27-site catalog).
	TestbedSites int `json:"testbed_sites,omitempty"`
	// Doors bounds concurrent GridFTP flows per endpoint (0 = the
	// historical unbounded WAN; data mode gives its managed runs 4).
	Doors int `json:"doors,omitempty"`
	// Watermark is the managed data plane's cleanup threshold (0 = 0.15).
	Watermark float64 `json:"watermark,omitempty"`
	// Workers caps campaign parallelism (0 = GOMAXPROCS). Point results
	// never depend on it; only wall time does.
	Workers int `json:"workers,omitempty"`
	// Health arms site health probing; Recovery closes the loop.
	Health   bool `json:"health,omitempty"`
	Recovery bool `json:"recovery,omitempty"`
	// UpgradeAt arms the rolling VDT/Pacman upgrade wave; UpgradeStagger
	// is the tier-to-tier delay (0 = the 48h default).
	UpgradeAt      Duration `json:"upgrade_at,omitempty"`
	UpgradeStagger Duration `json:"upgrade_stagger,omitempty"`
	// CertLifetime arms GSI host-credential expiry storms; CertRenewal is
	// the mean renewal outage (0 = the 3h default); RevokeFraction is the
	// per-cycle chance a credential is revoked mid-life instead.
	CertLifetime   Duration `json:"cert_lifetime,omitempty"`
	CertRenewal    Duration `json:"cert_renewal,omitempty"`
	RevokeFraction float64  `json:"revoke_fraction,omitempty"`
}

// Decode reads one strict JSON spec: unknown fields and trailing data are
// errors, and the result is validated before it is returned.
func Decode(r io.Reader) (*Spec, error) {
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	var s Spec
	if err := dec.Decode(&s); err != nil {
		return nil, fmt.Errorf("exp: decode spec: %w", err)
	}
	if dec.More() {
		return nil, fmt.Errorf("exp: trailing data after the spec object")
	}
	if err := s.Validate(); err != nil {
		return nil, err
	}
	return &s, nil
}

// DecodeFile reads and validates a spec file.
func DecodeFile(path string) (*Spec, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("exp: %w", err)
	}
	defer f.Close()
	s, err := Decode(f)
	if err != nil {
		return nil, fmt.Errorf("%w (in %s)", err, path)
	}
	return s, nil
}

// Validate checks the whole grid; the first problem found is returned
// with the offending experiment named.
func (s *Spec) Validate() error {
	if s.Schema != Schema {
		return fmt.Errorf("exp: schema %q is not %q", s.Schema, Schema)
	}
	if len(s.Experiments) == 0 {
		return fmt.Errorf("exp: spec names no experiments")
	}
	names := map[string]bool{}
	outs := map[string]string{}
	for i := range s.Experiments {
		e := &s.Experiments[i]
		if e.Name == "" {
			return fmt.Errorf("exp: experiment %d has no name", i)
		}
		if names[e.Name] {
			return fmt.Errorf("exp: duplicate experiment name %q", e.Name)
		}
		names[e.Name] = true
		if e.Out == "" {
			return fmt.Errorf("exp: experiment %q has no output file", e.Name)
		}
		if prev, dup := outs[e.Out]; dup {
			return fmt.Errorf("exp: experiments %q and %q both write %s", prev, e.Name, e.Out)
		}
		outs[e.Out] = e.Name
		if err := e.validate(); err != nil {
			return fmt.Errorf("exp: experiment %q: %w", e.Name, err)
		}
	}
	return nil
}

// modes is a set of experiment modes.
type modes map[string]bool

// pooledModes fan their runs over workers on one testbed; scale points
// size the testbed from the sites axis and run serially.
var pooledModes = modes{ModeChaos: true, ModeData: true, ModeSweep: true}

func (e *Experiment) validate() error {
	// Axis and knob legality per mode: either on a mode whose runner never
	// reads it is a silent no-op waiting to mislead, so it is rejected
	// outright. Knobs absent here ride along into every mode's scenarios.
	k := e.Knobs
	rules := []struct {
		kind, name string
		present    bool
		modes      modes
	}{
		{"axis", "intensities", len(e.Axes.Intensities) > 0, modes{ModeChaos: true}},
		{"axis", "sites", len(e.Axes.Sites) > 0, modes{ModeScale: true}},
		{"knob", "testbed_sites", k.TestbedSites != 0, pooledModes},
		{"knob", "workers", k.Workers != 0, pooledModes},
		// Chaos runs every point with and without recovery.
		{"knob", "recovery", k.Recovery, modes{ModeScale: true, ModeData: true, ModeSweep: true}},
		{"knob", "watermark", k.Watermark != 0, modes{ModeData: true}},
	}
	switch e.Mode {
	case ModeChaos, ModeScale, ModeData, ModeSweep:
	default:
		return fmt.Errorf("unknown mode %q (want chaos, scale, data, or sweep)", e.Mode)
	}
	for _, r := range rules {
		if r.present && !r.modes[e.Mode] {
			return fmt.Errorf("%s %s does not apply to mode %q", r.kind, r.name, e.Mode)
		}
	}
	for _, v := range e.Axes.Intensities {
		if v <= 0 {
			return fmt.Errorf("intensity %g is not positive", v)
		}
	}
	for _, n := range e.Axes.Sites {
		if n <= 0 {
			return fmt.Errorf("site count %d is not positive", n)
		}
	}
	// A repeated axis value would run a point twice and count it twice in
	// the min/mean/max.
	if v, ok := firstRepeat(e.Axes.Seeds); ok {
		return fmt.Errorf("seed %d is repeated", v)
	}
	if v, ok := firstRepeat(e.Axes.Intensities); ok {
		return fmt.Errorf("intensity %g is repeated", v)
	}
	if v, ok := firstRepeat(e.Axes.Sites); ok {
		return fmt.Errorf("site count %d is repeated", v)
	}
	if k.Scale < 0 {
		return fmt.Errorf("scale %g is negative", k.Scale)
	}
	// Zero keeps a default; a negative value would fall back to it silently.
	for _, n := range []struct {
		name string
		v    int
	}{
		{"days", k.Days},
		{"testbed_sites", k.TestbedSites},
		{"doors", k.Doors},
		{"workers", k.Workers},
	} {
		if n.v < 0 {
			return fmt.Errorf("%s %d is negative", n.name, n.v)
		}
	}
	// The watermark is a free-space fraction: above 1 every cleanup sweep
	// would evict.
	if k.Watermark < 0 || k.Watermark > 1 {
		return fmt.Errorf("watermark %g is outside [0, 1]", k.Watermark)
	}
	if k.RevokeFraction < 0 || k.RevokeFraction > 1 {
		return fmt.Errorf("revoke_fraction %g is outside [0, 1]", k.RevokeFraction)
	}
	for _, d := range []struct {
		name string
		v    Duration
	}{
		{"upgrade_at", k.UpgradeAt},
		{"upgrade_stagger", k.UpgradeStagger},
		{"cert_lifetime", k.CertLifetime},
		{"cert_renewal", k.CertRenewal},
	} {
		if d.v < 0 {
			return fmt.Errorf("%s %v is negative", d.name, d.v.Std())
		}
	}
	// The tuning knob without its arming knob is the same configuration
	// mistake the grid3sim flag pairs refuse.
	if k.UpgradeStagger != 0 && k.UpgradeAt == 0 {
		return fmt.Errorf("upgrade_stagger needs upgrade_at")
	}
	if k.CertRenewal != 0 && k.CertLifetime == 0 {
		return fmt.Errorf("cert_renewal needs cert_lifetime")
	}
	if k.RevokeFraction != 0 && k.CertLifetime == 0 {
		return fmt.Errorf("revoke_fraction needs cert_lifetime")
	}
	return nil
}

// firstRepeat returns the first value that occurs twice in vals.
func firstRepeat[T comparable](vals []T) (T, bool) {
	seen := make(map[T]bool, len(vals))
	for _, v := range vals {
		if seen[v] {
			return v, true
		}
		seen[v] = true
	}
	var zero T
	return zero, false
}

// Experiment returns the named experiment, or nil.
func (s *Spec) Experiment(name string) *Experiment {
	for i := range s.Experiments {
		if s.Experiments[i].Name == name {
			return &s.Experiments[i]
		}
	}
	return nil
}
