package serve

import (
	"encoding/base64"
	"encoding/hex"
	"net/http"
	"net/http/httptest"
	"strconv"
	"testing"
	"time"

	"grid3/internal/ingest"
)

// newAuditServer runs a fast-paced service with the usage ledger armed, so
// usage windows seal while the test watches.
func newAuditServer(t *testing.T) (*Service, *httptest.Server) {
	t.Helper()
	cfg := testConfig()
	cfg.Pace = 3600 // one sim hour per wall second: windows seal quickly
	cfg.Scenario.Config.IngestBatch = 64
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	s.Start()
	ts := httptest.NewServer(NewHandler(s, HandlerConfig{}))
	t.Cleanup(func() { ts.Close(); s.Stop() })
	return s, ts
}

func TestAuditDisabledWithoutLedger(t *testing.T) {
	_, ts := newTestServer(t, HandlerConfig{})
	getJSON(t, ts.URL+"/api/v1/audit/roots", http.StatusNotFound)
	getJSON(t, ts.URL+"/api/v1/audit/proof?window=0&vo=ivdgl", http.StatusNotFound)
}

func TestAuditRootsAndProof(t *testing.T) {
	_, ts := newAuditServer(t)

	// Wait for the fast-paced sim to seal at least one window.
	var roots []any
	deadline := time.Now().Add(15 * time.Second)
	for time.Now().Before(deadline) {
		out := getJSON(t, ts.URL+"/api/v1/audit/roots", http.StatusOK)
		roots, _ = out["roots"].([]any)
		if len(roots) > 0 {
			break
		}
		time.Sleep(100 * time.Millisecond)
	}
	if len(roots) == 0 {
		t.Fatal("no usage windows sealed within the deadline")
	}
	first := roots[0].(map[string]any)
	winIdx := int(first["window"].(float64))
	if first["records"].(float64) == 0 {
		t.Fatalf("window %d sealed empty", winIdx)
	}
	wantRoot, err := hex.DecodeString(first["root"].(string))
	if err != nil || len(wantRoot) != 32 {
		t.Fatalf("bad root %q: %v", first["root"], err)
	}

	// Fetch a proof for one VO in that window and verify it offline
	// against the published root — the end-to-end audit claim.
	rec := getJSON(t, ts.URL+"/api/v1/audit/proof?window="+
		itoa(winIdx)+"&vo=ivdgl", http.StatusOK)
	if rec["vo"] != "ivdgl" || rec["root"] != first["root"] {
		t.Fatalf("proof response mismatch: %v", rec)
	}
	wire, err := base64.StdEncoding.DecodeString(rec["proof"].(string))
	if err != nil {
		t.Fatalf("bad proof encoding: %v", err)
	}
	p, err := ingest.DecodeProof(wire)
	if err != nil {
		t.Fatalf("decode proof: %v", err)
	}
	if p.Record.VO != "ivdgl" {
		t.Fatalf("proof carries VO %q", p.Record.VO)
	}
	var root [32]byte
	copy(root[:], wantRoot)
	if !ingest.Verify(root, p) {
		t.Fatal("served proof does not verify against served root")
	}
	// Tampering with the claim breaks it.
	p.Record.CPUSeconds++
	if ingest.Verify(root, p) {
		t.Fatal("tampered claim still verifies")
	}

	// Error surface: bad parameters and unknown coordinates.
	getJSON(t, ts.URL+"/api/v1/audit/proof", http.StatusBadRequest)
	getJSON(t, ts.URL+"/api/v1/audit/proof?window=abc&vo=ivdgl", http.StatusBadRequest)
	getJSON(t, ts.URL+"/api/v1/audit/proof?window=9999999&vo=ivdgl", http.StatusNotFound)
	getJSON(t, ts.URL+"/api/v1/audit/proof?window="+itoa(winIdx)+"&vo=nosuchvo", http.StatusNotFound)
}

func itoa(n int) string { return strconv.Itoa(n) }
