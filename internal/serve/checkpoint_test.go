package serve

import (
	"bytes"
	"errors"
	"testing"
	"time"

	"grid3/internal/checkpoint"
	"grid3/internal/core"
)

// ckptCfg is the small fast scenario the checkpoint tests run. The tests
// drive the engine directly (RunUntil + the shared appliers) instead of
// through wall-clock Steps, so the op injection times are exact sim instants
// and the straight/restored trajectories are comparable byte for byte.
func ckptCfg() Config {
	return Config{
		Scenario: core.ScenarioConfig{
			Config:   core.Config{Seed: 7, TestbedSites: 5},
			Horizon:  48 * time.Hour,
			JobScale: 0.001,
		},
	}
}

// inject applies the test's canonical op sequence on a fresh service: an
// enrollment at 6h, then at 12h one valid submission and one synchronous
// rejection (unknown VO) — the rejection still consumes a job ID, so it must
// be journaled and replayed like any other executed submission.
func inject(t *testing.T, s *Service) *JobRecord {
	t.Helper()
	s.scen.RunUntil(6 * time.Hour)
	roles, err := parseRoles([]string{"production"})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := applyEnroll(s.scen, "ligo", "/CN=warm", "Warm User", roles); err != nil {
		t.Fatalf("enroll: %v", err)
	}
	s.journalOp(opEnroll, enrollOp{VO: "ligo", DN: "/CN=warm", Name: "Warm User", Roles: []string{"production"}})

	s.scen.RunUntil(12 * time.Hour)
	good := submitRequest{VO: "ligo", User: "/CN=warm", RuntimeSeconds: 3600}
	rec := applySubmit(s.scen, s.jobs, good)
	s.journalOp(opSubmit, good)
	bad := submitRequest{VO: "nosuch", User: "bob", RuntimeSeconds: 60}
	badRec := applySubmit(s.scen, s.jobs, bad)
	s.journalOp(opSubmit, bad)
	if badRec.State != JobFailed {
		t.Fatalf("unknown-VO submit state = %s, want synchronous failure", badRec.State)
	}
	return rec
}

// The serve-layer tentpole guarantee: snapshot mid-service, restore, and the
// restored service continues byte-identically — grid state, job table, and
// journal all intact.
func TestServeCheckpointRestoreContinues(t *testing.T) {
	s1, err := New(ckptCfg())
	if err != nil {
		t.Fatal(err)
	}
	rec := inject(t, s1)
	s1.scen.RunUntil(24 * time.Hour)
	snap, err := s1.snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if snap.Scope != checkpoint.ScopeServe || len(snap.Journal) != 3 {
		t.Fatalf("snapshot scope %v journal %d, want serve/3", snap.Scope, len(snap.Journal))
	}

	// The original continues to the horizon.
	s1.scen.RunUntil(48 * time.Hour)
	wantDigest := s1.scen.StateDigest(s1.jobs.hashState)
	wantCounts := s1.jobs.counts

	// Restore and continue the same distance.
	s2, err := New(Config{Restore: snap})
	if err != nil {
		t.Fatalf("restore: %v", err)
	}
	if got := s2.scen.Grid.Eng.Now(); got != 24*time.Hour {
		t.Fatalf("restored clock %v, want 24h", got)
	}
	if len(s2.journal) != 3 {
		t.Fatalf("restored journal %d ops, want 3", len(s2.journal))
	}
	live, ok := s2.jobs.get(rec.ID)
	if !ok {
		t.Fatalf("restored table lost job %s", rec.ID)
	}
	s2.scen.RunUntil(48 * time.Hour)
	if got := s2.scen.StateDigest(s2.jobs.hashState); got != wantDigest {
		t.Fatalf("restored service diverged: digest %016x, want %016x", got, wantDigest)
	}
	if s2.jobs.counts != wantCounts {
		t.Fatalf("job counts %+v, want %+v", s2.jobs.counts, wantCounts)
	}
	if live.State != JobCompleted {
		t.Fatalf("restored job %s state %s, want completed by horizon", live.ID, live.State)
	}
}

// Journal replay re-grants every enrollment into the grid-mapfiles. The
// state digest does not cover grid-mapfiles, so a replay that granted the
// wrong entries would still verify; the restored maps are compared with the
// original's directly, and both with a full rebuild.
func TestServeRestoreReplaysGridmapGrants(t *testing.T) {
	s1, err := New(ckptCfg())
	if err != nil {
		t.Fatal(err)
	}
	dns := []string{
		"/CN=restore user 0",
		"/DC=org/DC=doegrids/OU=People/CN=usatlas user 00", // already in usatlas
		"/CN=restore user 0/CN=proxy",                      // proxy of an enrolled DN
		"/CN=restore user 3",
		"/CN=restore user 4",
		"/CN=restore user 5",
	}
	vos := s1.scen.Grid.Registry.VOs()
	for i, dn := range dns {
		s1.scen.RunUntil(time.Duration(2+3*i) * time.Hour) // crosses 6-hour ticks
		voName := vos[i%len(vos)]
		if _, err := applyEnroll(s1.scen, voName, dn, "Restore User", nil); err != nil {
			t.Fatalf("enroll %s into %s: %v", dn, voName, err)
		}
		s1.journalOp(opEnroll, enrollOp{VO: voName, DN: dn, Name: "Restore User"})
	}
	// Snapshot before the next 6-hour tick, which would rebuild any map
	// the last grant missed.
	s1.scen.RunUntil(17*time.Hour + 30*time.Minute)
	snap, err := s1.snapshot()
	if err != nil {
		t.Fatal(err)
	}
	s2, err := New(Config{Restore: snap})
	if err != nil {
		t.Fatalf("restore: %v", err)
	}

	render := func(write func(*bytes.Buffer)) string {
		var buf bytes.Buffer
		write(&buf)
		return buf.String()
	}
	g1, g2 := s1.scen.Grid, s2.scen.Grid
	for _, name := range g1.Order {
		n1, n2 := g1.Nodes[name], g2.Nodes[name]
		want := render(func(b *bytes.Buffer) { n1.Gridmap.WriteTo(b) })
		if got := render(func(b *bytes.Buffer) { n2.Gridmap.WriteTo(b) }); got != want {
			t.Fatalf("site %s: restored grid-mapfile differs:\n got:\n%s\nwant:\n%s", name, got, want)
		}
		fresh := render(func(b *bytes.Buffer) { g1.Registry.GenerateGridmap(n1.Spec.Accounts).WriteTo(b) })
		if want != fresh {
			t.Fatalf("site %s: grid-mapfile differs from a full rebuild:\n got:\n%s\nwant:\n%s", name, want, fresh)
		}
	}
}

// A batch-scope snapshot (e.g. captured by grid3sim) warm-starts the
// service: engine at the recorded time, empty job table, and the API
// machinery fully live on top of it.
func TestServeRestoreFromBatchSnapshot(t *testing.T) {
	cfg := ckptCfg()
	scen, err := core.NewScenario(cfg.Scenario)
	if err != nil {
		t.Fatal(err)
	}
	scen.RunUntil(12 * time.Hour)
	snap, err := scen.Checkpoint()
	if err != nil {
		t.Fatal(err)
	}

	s, err := New(Config{Restore: snap})
	if err != nil {
		t.Fatalf("warm start: %v", err)
	}
	if got := s.scen.Grid.Eng.Now(); got != 12*time.Hour {
		t.Fatalf("warm-start clock %v, want 12h", got)
	}
	if len(s.jobs.byID) != 0 || len(s.journal) != 0 {
		t.Fatalf("batch warm start carried service state: %d jobs, %d ops",
			len(s.jobs.byID), len(s.journal))
	}
	// The API machinery works on the warm-started grid: enroll a DN, then
	// submit as it.
	roles, err := parseRoles([]string{"production"})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := applyEnroll(s.scen, "ligo", "/CN=warm", "Warm User", roles); err != nil {
		t.Fatalf("warm-start enroll: %v", err)
	}
	s.journalOp(opEnroll, enrollOp{VO: "ligo", DN: "/CN=warm", Name: "Warm User", Roles: []string{"production"}})
	req := submitRequest{VO: "ligo", User: "/CN=warm", RuntimeSeconds: 60}
	rec := applySubmit(s.scen, s.jobs, req)
	s.journalOp(opSubmit, req)
	s.scen.RunUntil(24 * time.Hour)
	if rec.State != JobCompleted {
		t.Fatalf("warm-start submit state %s (%s), want completed", rec.State, rec.Error)
	}
	// And the next snapshot is serve-scope with the new journal.
	snap2, err := s.snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if snap2.Scope != checkpoint.ScopeServe || len(snap2.Journal) != 2 {
		t.Fatalf("snapshot scope %v journal %d, want serve/2", snap2.Scope, len(snap2.Journal))
	}
}

// Journal tampering is caught: an unknown op kind is corrupt, and an edited
// payload replays to a different state, which the digest rejects.
func TestServeRestoreRejectsTamperedJournal(t *testing.T) {
	s, err := New(ckptCfg())
	if err != nil {
		t.Fatal(err)
	}
	inject(t, s)
	s.scen.RunUntil(24 * time.Hour)
	snap, err := s.snapshot()
	if err != nil {
		t.Fatal(err)
	}

	bogus := *snap
	bogus.Journal = append([]checkpoint.Op(nil), snap.Journal...)
	bogus.Journal[0].Kind = "bogus"
	if _, err := New(Config{Restore: &bogus}); !errors.Is(err, checkpoint.ErrCorrupt) {
		t.Fatalf("unknown op kind: %v, want ErrCorrupt", err)
	}

	edited := *snap
	edited.Journal = append([]checkpoint.Op(nil), snap.Journal...)
	edited.Journal[1].Data = []byte(`{"vo":"usatlas","user":"mallory","runtime_seconds":3600}`)
	if _, err := New(Config{Restore: &edited}); !errors.Is(err, checkpoint.ErrDigest) {
		t.Fatalf("edited op payload: %v, want ErrDigest", err)
	}
}

// A finished run is not a restartable midpoint; snapshotting it is refused.
func TestServeSnapshotAfterFinishRefused(t *testing.T) {
	cfg := ckptCfg()
	cfg.Scenario.Horizon = 2 * time.Hour
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	s.scen.RunUntil(2 * time.Hour)
	s.finish()
	if _, err := s.snapshot(); !errors.Is(err, checkpoint.ErrUnfinalized) {
		t.Fatalf("snapshot after finish: %v, want ErrUnfinalized", err)
	}
}

// The serve-scope snapshot round-trips the journal through the binary codec.
func TestServeSnapshotEncodesJournal(t *testing.T) {
	s, err := New(ckptCfg())
	if err != nil {
		t.Fatal(err)
	}
	inject(t, s)
	s.scen.RunUntil(24 * time.Hour)
	snap, err := s.snapshot()
	if err != nil {
		t.Fatal(err)
	}

	decoded, err := checkpoint.Decode(checkpoint.Encode(snap))
	if err != nil {
		t.Fatal(err)
	}
	if len(decoded.Journal) != len(snap.Journal) {
		t.Fatalf("journal %d ops after round-trip, want %d", len(decoded.Journal), len(snap.Journal))
	}
	for i := range snap.Journal {
		a, b := snap.Journal[i], decoded.Journal[i]
		if a.T != b.T || a.Kind != b.Kind || string(a.Data) != string(b.Data) {
			t.Fatalf("journal op %d changed: %+v vs %+v", i, a, b)
		}
	}
	if _, err := New(Config{Restore: decoded}); err != nil {
		t.Fatalf("restore from decoded snapshot: %v", err)
	}
}
