package campaign

import (
	"bytes"
	"strings"
	"testing"
	"time"

	"grid3/internal/core"
)

func TestIngestSweepMeasuresStream(t *testing.T) {
	rep, err := IngestSweep(IngestSweepConfig{
		Events:    100_000,
		AuditDays: 1,
		Base: core.ScenarioConfig{
			DisableFailures:     true,
			DisableTransferDemo: true,
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Events != 100_000 || rep.EventsPerS <= 0 || rep.AllocBytes == 0 {
		t.Errorf("stream measurement incomplete: %+v", rep)
	}
	// The repository allocates per series, not per event: 256 series
	// over 100k events must stay far below one malloc per event.
	if rep.Mallocs >= uint64(rep.Events)/10 {
		t.Errorf("%d mallocs for %d events: the ingest path allocates per event", rep.Mallocs, rep.Events)
	}
	if rep.AuditWindows == 0 || !rep.AuditVerified {
		t.Fatalf("audit leg failed: windows=%d verified=%v", rep.AuditWindows, rep.AuditVerified)
	}
	var buf bytes.Buffer
	rep.Write(&buf)
	out := buf.String()
	if !strings.Contains(out, "Monitoring-ingestion sweep") || !strings.Contains(out, "verified") {
		t.Errorf("report rendering incomplete:\n%s", out)
	}
}

func TestIngestSweepSkipsAudit(t *testing.T) {
	rep, err := IngestSweep(IngestSweepConfig{
		Events:    10_000,
		AuditDays: -1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.AuditWindows != 0 || rep.AuditVerified {
		t.Fatalf("audit leg should be skipped: %+v", rep)
	}
}

func TestIngestReportJSONRoundTrip(t *testing.T) {
	rep := &IngestReport{
		Events: 1000, Farms: 4, Params: 2,
		EventsPerS: 1.5e6, Mallocs: 50, AllocBytes: 6000, BytesPerEvent: 6,
		Elapsed:      time.Second,
		AuditWindows: 9, AuditVerified: true,
	}
	data, err := rep.JSON()
	m := decode(t, data, err)
	keys := []string{"gomaxprocs", "events", "series", "wall_seconds", "events_per_second",
		"mallocs", "alloc_bytes", "bytes_per_event", "audit_windows", "audit_verified"}
	wantKeys(t, m, IngestSchema, "grid3sim-ingest", keys...)
	if len(m) != len(keys)+2 {
		t.Errorf("report has %d keys, want schema, kind and %v", len(m), keys)
	}
	if got := m["events_per_second"]; got != 1.5e6 {
		t.Errorf("events_per_second = %v", got)
	}
	if got := m["series"]; got != 8.0 {
		t.Errorf("series = %v, want 8", got)
	}
}
