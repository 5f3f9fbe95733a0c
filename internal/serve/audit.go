package serve

import (
	"encoding/base64"
	"encoding/hex"
	"net/http"
	"strconv"

	"grid3/internal/ingest"
)

// --- usage-ledger audit -----------------------------------------------------
//
// The audit surface publishes the per-window Merkle roots sealed over
// per-VO usage records (completed jobs, CPU seconds, bytes moved) and
// inclusion proofs for individual (window, VO) claims. It exists only
// when the daemon runs with the ledger armed (-ingest-batch N > 0);
// without a ledger both routes answer 404.

type auditRootJSON struct {
	Window  uint64 `json:"window"`
	Start   string `json:"start_sim_time"`
	End     string `json:"end_sim_time"`
	Root    string `json:"root"`
	Records int    `json:"records"`
}

func (s *Service) handleAuditRoots(w http.ResponseWriter, r *http.Request) {
	var roots []auditRootJSON
	hasLedger := false
	err := s.Do(func() {
		led := s.scen.Grid.Ledger
		if led == nil {
			return
		}
		hasLedger = true
		for _, win := range led.Windows() {
			roots = append(roots, auditRootJSON{
				Window:  win.Index,
				Start:   win.Start.String(),
				End:     win.End.String(),
				Root:    hex.EncodeToString(win.Root[:]),
				Records: len(win.Records),
			})
		}
	})
	if err != nil {
		writeErr(w, err)
		return
	}
	if !hasLedger {
		writeJSON(w, http.StatusNotFound, errDTO("usage ledger disabled; run with -ingest-batch N > 0"))
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{"windows": len(roots), "roots": roots})
}

type auditProofJSON struct {
	Window uint64             `json:"window"`
	VO     string             `json:"vo"`
	Root   string             `json:"root"`
	Record ingest.UsageRecord `json:"record"`
	// Proof is the canonical wire encoding (base64) — feed it back to
	// ingest.DecodeProof + Verify against Root to check the claim
	// offline.
	Proof string `json:"proof"`
}

// handleAuditProof serves one inclusion proof: ?window=N&vo=NAME.
func (s *Service) handleAuditProof(w http.ResponseWriter, r *http.Request) {
	q := r.URL.Query()
	voName := q.Get("vo")
	winStr := q.Get("window")
	if voName == "" || winStr == "" {
		writeJSON(w, http.StatusBadRequest, errDTO("window and vo are required"))
		return
	}
	winIdx, perr := strconv.ParseUint(winStr, 10, 64)
	if perr != nil {
		writeJSON(w, http.StatusBadRequest, errDTO("bad window index: "+perr.Error()))
		return
	}
	var out auditProofJSON
	var proveErr error
	hasLedger := false
	err := s.Do(func() {
		led := s.scen.Grid.Ledger
		if led == nil {
			return
		}
		hasLedger = true
		win, ok := led.Window(winIdx)
		if !ok {
			return
		}
		p, err := led.Prove(winIdx, voName)
		if err != nil {
			proveErr = err
			return
		}
		out = auditProofJSON{
			Window: winIdx,
			VO:     voName,
			Root:   hex.EncodeToString(win.Root[:]),
			Record: p.Record,
			Proof:  base64.StdEncoding.EncodeToString(ingest.EncodeProof(p)),
		}
	})
	if err != nil {
		writeErr(w, err)
		return
	}
	if !hasLedger {
		writeJSON(w, http.StatusNotFound, errDTO("usage ledger disabled; run with -ingest-batch N > 0"))
		return
	}
	if proveErr != nil || out.Proof == "" {
		msg := "no sealed window " + winStr
		if proveErr != nil {
			msg = proveErr.Error()
		}
		writeJSON(w, http.StatusNotFound, errDTO(msg))
		return
	}
	writeJSON(w, http.StatusOK, out)
}
