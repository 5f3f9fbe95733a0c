package core

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"reflect"
	"testing"
	"time"

	"grid3/internal/ingest"
	"grid3/internal/monalisa"
	"grid3/internal/obs"
	"grid3/internal/vo"
)

// ingestScenario runs one short scenario, with the usage ledger armed
// when batch is positive, and returns it finished.
func ingestScenario(t *testing.T, batch int) *Scenario {
	t.Helper()
	s, err := NewScenario(ScenarioConfig{
		Config:   Config{Seed: 5, IngestBatch: batch},
		Horizon:  15 * 24 * time.Hour,
		JobScale: 0.01,
	})
	if err != nil {
		t.Fatal(err)
	}
	s.Run()
	return s
}

// TestIngestBatchingEquivalence checks that arming the usage ledger does
// not perturb the run: job accounting, figures, and the full monitoring
// repository contents match the run without it.
func TestIngestBatchingEquivalence(t *testing.T) {
	if testing.Short() {
		t.Skip("scenario run in -short mode")
	}
	ref := ingestScenario(t, 0)
	bat := ingestScenario(t, 64)

	if a, b := ref.SubmittedTotal(), bat.SubmittedTotal(); a != b {
		t.Fatalf("submitted %d != %d", b, a)
	}
	if a, b := ref.Grid.ACDC.Len(), bat.Grid.ACDC.Len(); a != b {
		t.Fatalf("ACDC records %d != %d", b, a)
	}
	f1, f2 := ref.Figure2(), bat.Figure2()
	for k, v := range f1 {
		if math.Abs(f2[k]-v) > 1e-9 {
			t.Fatalf("figure2[%s] differs: %v vs %v", k, f2[k], v)
		}
	}
	// The repository must hold exactly the same series.
	sr, sb := ref.Grid.Repo.Series(), bat.Grid.Repo.Series()
	if len(sr) != len(sb) {
		t.Fatalf("series count %d != %d", len(sb), len(sr))
	}
	for i, key := range sr {
		if sb[i] != key {
			t.Fatalf("series[%d] %q != %q", i, sb[i], key)
		}
	}
	for _, voName := range vo.Grid3VOs {
		a := ref.Grid.Stats(voName)
		b := bat.Grid.Stats(voName)
		if a.Completed != b.Completed || a.AttemptFailures != b.AttemptFailures {
			t.Fatalf("%s stats differ: %+v vs %+v", voName, b, a)
		}
	}
	if bat.Grid.Ledger == nil || bat.Grid.Ledger.Len() == 0 {
		t.Fatal("armed run sealed no ledger windows")
	}
	if ref.Grid.Ledger != nil {
		t.Fatal("per-event run grew a ledger")
	}
}

// TestUsageLedgerAccounting checks the ledger side: window deltas sum
// back to the run's cumulative per-VO totals, and every record proves
// against its window root.
func TestUsageLedgerAccounting(t *testing.T) {
	if testing.Short() {
		t.Skip("scenario run in -short mode")
	}
	s := ingestScenario(t, 128)
	g := s.Grid
	led := g.Ledger
	if led == nil || led.Len() == 0 {
		t.Fatal("no sealed ledger windows")
	}

	sums := map[string]*ingest.UsageRecord{}
	for _, w := range led.Windows() {
		if len(w.Records) != len(vo.Grid3VOs) {
			t.Fatalf("window %d has %d records, want one per VO", w.Index, len(w.Records))
		}
		if w.Root != ingest.Root(w.Records) {
			t.Fatalf("window %d root mismatch", w.Index)
		}
		for _, r := range w.Records {
			agg := sums[r.VO]
			if agg == nil {
				agg = &ingest.UsageRecord{VO: r.VO}
				sums[r.VO] = agg
			}
			agg.Jobs += r.Jobs
			agg.CPUSeconds += r.CPUSeconds
			agg.Bytes += r.Bytes
		}
	}
	cpu := g.ACDC.CPUSecondsByVO()
	moved := g.Network.BytesByLabel()
	for _, voName := range vo.Grid3VOs {
		agg := sums[voName]
		if agg == nil {
			t.Fatalf("no records for %s", voName)
		}
		if want := uint64(g.Stats(voName).Completed); agg.Jobs != want {
			t.Fatalf("%s: ledger jobs %d != stats %d", voName, agg.Jobs, want)
		}
		if agg.CPUSeconds != cpu[voName] {
			t.Fatalf("%s: ledger cpu %d != acdc %d", voName, agg.CPUSeconds, cpu[voName])
		}
		if want := uint64(moved[voName]); agg.Bytes != want {
			t.Fatalf("%s: ledger bytes %d != gridftp %d", voName, agg.Bytes, want)
		}
	}

	// Every (window, VO) pair yields a verifiable inclusion proof, and
	// the proof survives its wire round trip.
	for _, w := range led.Windows() {
		for _, voName := range vo.Grid3VOs {
			p, err := led.Prove(w.Index, voName)
			if err != nil {
				t.Fatalf("prove %d/%s: %v", w.Index, voName, err)
			}
			if !ingest.Verify(w.Root, p) {
				t.Fatalf("proof %d/%s does not verify", w.Index, voName)
			}
			dec, err := ingest.DecodeProof(ingest.EncodeProof(p))
			if err != nil {
				t.Fatalf("decode %d/%s: %v", w.Index, voName, err)
			}
			if !ingest.Verify(w.Root, dec) {
				t.Fatalf("decoded proof %d/%s does not verify", w.Index, voName)
			}
		}
	}

	// FinishIngest is idempotent: calling it again must not grow the
	// ledger or change counters.
	n := led.Len()
	g.FinishIngest()
	if led.Len() != n {
		t.Fatalf("second FinishIngest grew ledger %d -> %d", n, led.Len())
	}
}

// ledgerDigest hashes every sealed window's (index, start, end, root)
// in seal order.
func ledgerDigest(led *ingest.Ledger) string {
	h := sha256.New()
	var buf [24]byte
	for _, w := range led.Windows() {
		binary.BigEndian.PutUint64(buf[0:], w.Index)
		binary.BigEndian.PutUint64(buf[8:], uint64(w.Start))
		binary.BigEndian.PutUint64(buf[16:], uint64(w.End))
		h.Write(buf[:])
		h.Write(w.Root[:])
	}
	return hex.EncodeToString(h.Sum(nil))
}

// TestUsageLedgerGolden pins the sealed ledger — window indices, spans
// and Merkle roots — for three window lengths against digests recorded
// when every monitoring path still ran through batching rings. The
// default window is the 30-minute monitor interval; 10 minutes is
// shorter, so indices skip the windows no poll lands in; 2 hours is
// longer, so several polls (and the obs bridge) land in each window.
func TestUsageLedgerGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("scenario runs in -short mode")
	}
	cases := []struct {
		name        string
		cfg         Config
		windows     int
		first, last uint64
		digest      string
	}{
		{"default window", Config{Seed: 3, IngestBatch: 64},
			204, 1, 204, "c85560942f7948d60b617e97f86abd81a0e18a2d4b66bf29b214ce888714b7bb"},
		{"10m window", Config{Seed: 3, IngestBatch: 64, IngestWindow: 10 * time.Minute},
			204, 3, 612, "79b0a0746956d56477ce698e15ce7b6caf0b137816fa19cc28bc985ff30fa384"},
		{"2h window", Config{Seed: 3, IngestBatch: 64, IngestWindow: 2 * time.Hour,
			EnableHealth: true, EnableRecovery: true, EnableObservability: true},
			52, 0, 51, "daca55b5436af815ad0ee9634fc3d7562a5670f2a8b91a06078a7d323b60f940"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			s, err := NewScenario(ScenarioConfig{Config: c.cfg, Horizon: 4 * 24 * time.Hour, JobScale: 0.01})
			if err != nil {
				t.Fatal(err)
			}
			s.Run()
			ws := s.Grid.Ledger.Windows()
			if len(ws) != c.windows || ws[0].Index != c.first || ws[len(ws)-1].Index != c.last {
				t.Fatalf("sealed %d windows [%d..%d], want %d [%d..%d]",
					len(ws), ws[0].Index, ws[len(ws)-1].Index, c.windows, c.first, c.last)
			}
			if got := ledgerDigest(s.Grid.Ledger); got != c.digest {
				t.Fatalf("ledger digest %s, want %s", got, c.digest)
			}
		})
	}
}

// TestMonitoringReadsKeepLedger reads the repository in the middle of
// every 30-minute window, as grid3d's monitor endpoint does, and
// requires the same ledger as an unread run. Reads must not hide a
// window rollover from the clock.
func TestMonitoringReadsKeepLedger(t *testing.T) {
	if testing.Short() {
		t.Skip("scenario runs in -short mode")
	}
	run := func(read bool) []ingest.Window {
		s, err := NewScenario(ScenarioConfig{
			Config:   Config{Seed: 5, IngestBatch: 64},
			Horizon:  2 * 24 * time.Hour,
			JobScale: 0.01,
		})
		if err != nil {
			t.Fatal(err)
		}
		if read {
			for at := 15 * time.Minute; at < s.Cfg.Horizon; at += 30 * time.Minute {
				s.RunUntil(at)
				s.Grid.Repo.Series()
			}
		}
		s.Run()
		return s.Grid.Ledger.Windows()
	}
	want, got := run(false), run(true)
	if len(want) != 108 {
		t.Fatalf("unread run sealed %d windows, want 108", len(want))
	}
	if len(got) != len(want) {
		t.Fatalf("read run sealed %d windows, unread run %d", len(got), len(want))
	}
	for i := range want {
		if got[i].Index != want[i].Index || got[i].Root != want[i].Root {
			t.Fatalf("window %d: read run has index %d root %x, unread run index %d root %x",
				i, got[i].Index, got[i].Root, want[i].Index, want[i].Root)
		}
	}
}

// TestObsBridgeMatchesSnapshot: the igoc-obs bridge publishes what an
// agent built on Registry.Snapshot publishes, a counter registered after
// a poll included, and once every name is built a poll allocates
// nothing.
func TestObsBridgeMatchesSnapshot(t *testing.T) {
	reg := obs.NewRegistry()
	reg.Counter("condorg.matches").Add(3)
	reg.Gauge("condorg.idle", func() float64 { return 7 })
	reg.Histogram("span.run.seconds", obs.DurationBounds).Observe(60)
	reg.Counter("gram.submits")
	snapshotAgent := func() []monalisa.Metric {
		var out []monalisa.Metric
		for _, c := range reg.Snapshot().Counters {
			out = append(out, monalisa.Metric{Param: "obs." + c.Name, Value: float64(c.Value)})
		}
		return out
	}
	b := &obsBridge{reg: reg}
	poll := func(when string) {
		t.Helper()
		if got, want := b.Collect(), snapshotAgent(); !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: bridge collected %+v, want %+v", when, got, want)
		}
	}
	poll("first poll")
	reg.Counter("condorg.matches").Inc()
	reg.Counter("gridftp.retries").Add(2)
	poll("after a new counter")
	if allocs := testing.AllocsPerRun(100, func() { b.Collect() }); allocs != 0 {
		t.Fatalf("a bridge poll allocated %v times, want 0", allocs)
	}
}
