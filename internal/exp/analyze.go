package exp

import (
	"bytes"
	"encoding/csv"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// wallClockKeys are the report fields that depend on the machine and the
// moment, not the seed: wall times, derived throughputs, allocation
// counters, and scheduler facts. Normalize zeroes them so two runs of the
// same spec diff clean everywhere else.
var wallClockKeys = map[string]bool{
	"wall_seconds":      true,
	"elapsed_seconds":   true,
	"events_per_second": true,
	"ns_per_sim_day":    true,
	"mallocs":           true,
	"alloc_bytes":       true,
	"gomaxprocs":        true,
	"workers":           true,
}

// Normalize rewrites a report JSON with every wall-clock field zeroed and
// keys in sorted order (encoding/json's map ordering), two-space
// indented, newline terminated. Deterministic fields pass through with
// their exact numeric literals. The output is the diffable form: two
// same-seed runs normalize to identical bytes.
func Normalize(raw []byte) ([]byte, error) {
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.UseNumber()
	var v any
	if err := dec.Decode(&v); err != nil {
		return nil, fmt.Errorf("exp: normalize: %w", err)
	}
	scrub(v)
	out, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return nil, fmt.Errorf("exp: normalize: %w", err)
	}
	return append(out, '\n'), nil
}

func scrub(v any) {
	switch t := v.(type) {
	case map[string]any:
		for k, val := range t {
			if wallClockKeys[k] {
				t[k] = json.Number("0")
				continue
			}
			scrub(val)
		}
	case []any:
		for _, e := range t {
			scrub(e)
		}
	}
}

// Row is one scalar from one experiment's normalized report, keyed by its
// dotted JSON path ("points.3.recovery.goodput_retention").
type Row struct {
	Experiment, Mode, Key, Value string
}

// Rows flattens an outcome's report into its deterministic scalars:
// wall-clock fields are dropped (not zero-padded), paths are sorted.
func Rows(o Outcome) ([]Row, error) {
	dec := json.NewDecoder(bytes.NewReader(o.Raw))
	dec.UseNumber()
	var v any
	if err := dec.Decode(&v); err != nil {
		return nil, fmt.Errorf("exp: flatten %s: %w", o.Name, err)
	}
	var rows []Row
	flatten(v, "", func(key, value string) {
		rows = append(rows, Row{Experiment: o.Name, Mode: o.Mode, Key: key, Value: value})
	})
	sort.Slice(rows, func(i, j int) bool { return rows[i].Key < rows[j].Key })
	return rows, nil
}

func flatten(v any, path string, emit func(key, value string)) {
	join := func(seg string) string {
		if path == "" {
			return seg
		}
		return path + "." + seg
	}
	switch t := v.(type) {
	case map[string]any:
		keys := make([]string, 0, len(t))
		for k := range t {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			if wallClockKeys[k] {
				continue
			}
			flatten(t[k], join(k), emit)
		}
	case []any:
		for i, e := range t {
			flatten(e, join(fmt.Sprint(i)), emit)
		}
	case json.Number:
		emit(path, t.String())
	case string:
		emit(path, t)
	case bool:
		emit(path, fmt.Sprint(t))
	case nil:
		emit(path, "null")
	}
}

// WriteCSV renders the grouped long-format table: one row per scalar,
// experiments in run order, paths sorted within each.
func WriteCSV(path string, outcomes []Outcome) error {
	var buf bytes.Buffer
	w := csv.NewWriter(&buf)
	if err := w.Write([]string{"experiment", "mode", "key", "value"}); err != nil {
		return err
	}
	for _, o := range outcomes {
		rows, err := Rows(o)
		if err != nil {
			return err
		}
		for _, r := range rows {
			if err := w.Write([]string{r.Experiment, r.Mode, r.Key, r.Value}); err != nil {
				return err
			}
		}
	}
	w.Flush()
	if err := w.Error(); err != nil {
		return err
	}
	if dir := filepath.Dir(path); dir != "." {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return fmt.Errorf("exp: %w", err)
		}
	}
	return os.WriteFile(path, buf.Bytes(), 0o644)
}

// Markdown markers: the block between them is machine-owned and
// rewritten on every full runner pass.
const (
	markerBegin = "<!-- grid3exp:begin -->"
	markerEnd   = "<!-- grid3exp:end -->"
)

// SummaryMarkdown renders the machine-owned block: the per-experiment
// table with one deterministic headline each.
func SummaryMarkdown(spec *Spec, outcomes []Outcome) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s\n", markerBegin)
	fmt.Fprintf(&b, "## Experiment grid `%s` (generated)\n\n", spec.Name)
	b.WriteString("Generated by `go run ./cmd/grid3exp run` from the checked-in spec;\n")
	b.WriteString("edit the spec, not this table. Headlines are deterministic fields\n")
	b.WriteString("only — same seed, same numbers.\n\n")
	b.WriteString("| experiment | mode | output | headline |\n")
	b.WriteString("|---|---|---|---|\n")
	for _, o := range outcomes {
		fmt.Fprintf(&b, "| %s | %s | `%s` | %s |\n", o.Name, o.Mode, filepath.Base(o.Path), headline(o))
	}
	fmt.Fprintf(&b, "%s", markerEnd)
	return b.String()
}

// headline computes one mode-appropriate summary sentence from the
// report, using only deterministic fields.
func headline(o Outcome) string {
	var v map[string]any
	dec := json.NewDecoder(bytes.NewReader(o.Raw))
	dec.UseNumber()
	if err := dec.Decode(&v); err != nil {
		return "unreadable report"
	}
	num := func(x any) float64 {
		n, _ := x.(json.Number)
		f, _ := n.Float64()
		return f
	}
	switch o.Mode {
	case ModeChaos:
		points, _ := v["points"].([]any)
		worst := 1.0
		for _, p := range points {
			pt, _ := p.(map[string]any)
			rec, _ := pt["recovery"].(map[string]any)
			if r := num(rec["goodput_retention"]); r < worst {
				worst = r
			}
		}
		return fmt.Sprintf("%d points; worst recovery goodput retention %.0f%%", len(points), 100*worst)
	case ModeScale:
		points, _ := v["points"].([]any)
		maxSites, goodput := 0.0, 0.0
		for _, p := range points {
			pt, _ := p.(map[string]any)
			if s := num(pt["sites"]); s >= maxSites {
				maxSites = s
				goodput = num(pt["goodput"])
			}
		}
		return fmt.Sprintf("%d points up to %.0f sites; goodput there %.1f%%", len(points), maxSites, 100*goodput)
	case ModeData:
		return fmt.Sprintf("managed TB/day min %.2f mean %.2f max %.2f",
			num(v["managed_tb_per_day_min"]), num(v["managed_tb_per_day_mean"]), num(v["managed_tb_per_day_max"]))
	case ModeSweep:
		runs, _ := v["runs"].([]any)
		jobs := 0.0
		var up, kills, skew, exp, ren, rev float64
		for _, r := range runs {
			run, _ := r.(map[string]any)
			jobs += num(run["jobs"])
			if w, ok := run["waves"].(map[string]any); ok {
				up += num(w["upgraded_sites"])
				kills += num(w["upgrade_kills"])
				skew += num(w["skew_kills"])
				exp += num(w["cert_expiries"])
				ren += num(w["cert_renewals"])
				rev += num(w["cert_revocations"])
			}
		}
		h := fmt.Sprintf("%d seeds, %.0f jobs", len(runs), jobs)
		if up > 0 {
			h += fmt.Sprintf("; %.0f site upgrades (%.0f restart + %.0f skew kills)", up, kills, skew)
		}
		if exp+rev > 0 {
			h += fmt.Sprintf("; %.0f cert expiries, %.0f renewals, %.0f revocations", exp, ren, rev)
		}
		return h
	}
	return ""
}

// RewriteMarkdown replaces the grid3exp marker block in path with block,
// creating the file (with a short preamble) when it does not exist and
// appending the block when the file exists without markers.
func RewriteMarkdown(path, block string) error {
	existing, err := os.ReadFile(path)
	switch {
	case os.IsNotExist(err):
		content := "# Experiments\n\n" + block + "\n"
		return os.WriteFile(path, []byte(content), 0o644)
	case err != nil:
		return fmt.Errorf("exp: %w", err)
	}
	text := string(existing)
	begin := strings.Index(text, markerBegin)
	end := strings.Index(text, markerEnd)
	if begin >= 0 && end > begin {
		text = text[:begin] + block + text[end+len(markerEnd):]
	} else {
		if !strings.HasSuffix(text, "\n") {
			text += "\n"
		}
		text += "\n" + block + "\n"
	}
	return os.WriteFile(path, []byte(text), 0o644)
}

// Analyze runs the post-pass: the grouped CSV and the markdown summary
// block, each only when the spec configures a target. Paths are joined
// with outDir like every experiment output.
func Analyze(spec *Spec, outcomes []Outcome, outDir string) error {
	if spec.CSV != "" {
		if err := WriteCSV(filepath.Join(outDir, spec.CSV), outcomes); err != nil {
			return err
		}
	}
	if spec.Markdown != "" {
		if err := RewriteMarkdown(filepath.Join(outDir, spec.Markdown), SummaryMarkdown(spec, outcomes)); err != nil {
			return err
		}
	}
	return nil
}
