package core

// The per-VO usage ledger (Config.IngestBatch > 0). Station metrics, the
// iGOC obs bridge included, commit to the central repository one by
// one; on their way in they pass a window clock. When a metric arrives
// in a later IngestWindow than the previous metric did, the previous
// metric's window is over and the grid seals it: one UsageRecord per VO
// (completed jobs from VOStats, CPU seconds from ACDC, bytes moved from
// the GridFTP per-VO accounting — all as window deltas of cumulative
// totals sampled at that deterministic sim instant) hashed into a Merkle
// root. The clock moves only on metric arrivals, which are engine
// events, so reading the repository or the ledger cannot move a seal.
// The serve layer publishes roots and inclusion proofs at
// /api/v1/audit/* so a VO's usage claim is checkable without rescanning
// raw events.

import (
	"time"

	"grid3/internal/ingest"
	"grid3/internal/monalisa"
	"grid3/internal/vo"
)

// usageTotals is one VO's cumulative accounting sample; ledger records
// are deltas between consecutive samples.
type usageTotals struct {
	jobs  uint64
	cpu   uint64
	bytes uint64
}

// setupIngest arms the usage ledger. Called from New before sites are
// added (stations wire their forward sinks at addSite time).
func (g *Grid) setupIngest() {
	g.Ledger = ingest.NewLedger()
	g.usagePrev = make(map[string]usageTotals)
	g.lastSealed = -1
	g.metricWindow = -1
}

// metricSink returns the station forward target: the central
// repository's Ingest, behind the ledger's window clock when the ledger
// is armed.
func (g *Grid) metricSink() func(monalisa.Metric) {
	if g.Ledger == nil {
		return g.Repo.Ingest
	}
	return g.clockMetric
}

// clockMetric is the ledger's window clock. A metric arriving in a
// later window than the previous metric seals the previous metric's
// window, then commits. A window no metric falls in is never sealed;
// its usage is carried by the next seal. Trailing silence folds into
// the final seal at FinishIngest.
func (g *Grid) clockMetric(m monalisa.Metric) {
	w := g.Cfg.IngestWindow
	if idx := int64(g.Eng.Now() / w); idx != g.metricWindow {
		closed := g.metricWindow
		g.metricWindow = idx
		if closed > g.lastSealed {
			g.lastSealed = closed
			g.sealUsage(uint64(closed), time.Duration(closed)*w, time.Duration(closed+1)*w)
		}
	}
	g.Repo.Ingest(m)
}

// sealUsage samples cumulative accounting, converts to window deltas,
// and seals the ledger window. Every Grid3 VO gets a record each window
// (zero deltas included) so the leaf set — and therefore proof shapes —
// stays stable.
func (g *Grid) sealUsage(idx uint64, start, end time.Duration) {
	cpu := g.ACDC.CPUSecondsByVO()
	moved := g.Network.BytesByLabel()
	recs := make([]ingest.UsageRecord, 0, len(vo.Grid3VOs))
	for _, voName := range vo.Grid3VOs {
		cur := usageTotals{cpu: cpu[voName]}
		// Read g.stats directly: Stats() would insert an empty entry for
		// VOs that never ran, perturbing checkpoint digests.
		if st, ok := g.stats[voName]; ok {
			cur.jobs = uint64(st.Completed)
		}
		if b := moved[voName]; b > 0 {
			cur.bytes = uint64(b)
		}
		prev := g.usagePrev[voName]
		recs = append(recs, ingest.UsageRecord{
			VO:         voName,
			Window:     idx,
			Start:      start,
			End:        end,
			Jobs:       cur.jobs - prev.jobs,
			CPUSeconds: cur.cpu - prev.cpu,
			Bytes:      cur.bytes - prev.bytes,
		})
		g.usagePrev[voName] = cur
	}
	g.Ledger.Seal(idx, start, end, recs)
}

// FinishIngest seals the final (partial) usage window. Scenario.Finish
// calls it; it is a no-op without a ledger and idempotent otherwise.
func (g *Grid) FinishIngest() {
	if g.Ledger == nil {
		return
	}
	w := g.Cfg.IngestWindow
	now := g.Eng.Now()
	if idx := int64(now / w); idx > g.lastSealed {
		g.lastSealed = idx
		g.sealUsage(uint64(idx), time.Duration(idx)*w, now)
	}
}
