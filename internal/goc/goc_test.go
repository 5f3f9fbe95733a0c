package goc

import (
	"errors"
	"math"
	"testing"
	"time"

	"grid3/internal/sim"
)

func TestTicketLifecycle(t *testing.T) {
	eng := sim.NewEngine(sim.Grid3Epoch)
	desk := NewDesk(eng)
	tk := desk.Open("UC_ATLAS_Tier2", "usatlas", "gatekeeper load >400, submissions failing", High)
	if tk.ID != 1 || tk.State != Open {
		t.Fatalf("ticket = %+v", tk)
	}
	if err := desk.Assign(tk.ID, "uc-site-admin"); err != nil {
		t.Fatal(err)
	}
	eng.RunUntil(6 * time.Hour)
	if err := desk.Resolve(tk.ID, 3.5); err != nil {
		t.Fatal(err)
	}
	got, err := desk.Ticket(tk.ID)
	if err != nil || got.State != Resolved || got.EffortHours != 3.5 {
		t.Fatalf("resolved ticket = %+v, %v", got, err)
	}
	if err := desk.Resolve(tk.ID, 1); !errors.Is(err, ErrAlreadyClosed) {
		t.Fatalf("double resolve err = %v", err)
	}
	if err := desk.Assign(tk.ID, "x"); !errors.Is(err, ErrAlreadyClosed) {
		t.Fatalf("assign closed err = %v", err)
	}
	if _, err := desk.Ticket(99); !errors.Is(err, ErrNoTicket) {
		t.Fatalf("missing ticket err = %v", err)
	}
	if desk.MeanTimeToResolve() != 6*time.Hour {
		t.Fatalf("MTTR = %v", desk.MeanTimeToResolve())
	}
}

func TestOpenTicketsOrdering(t *testing.T) {
	eng := sim.NewEngine(sim.Grid3Epoch)
	desk := NewDesk(eng)
	desk.Open("a", "ivdgl", "slow gridftp", Low)
	hi := desk.Open("b", "uscms", "all jobs dying", High)
	desk.Open("c", "ligo", "stale MDS data", Medium)
	resolved := desk.Open("d", "sdss", "fixed already", High)
	desk.Resolve(resolved.ID, 0.5)
	open := desk.OpenTickets()
	if len(open) != 3 {
		t.Fatalf("open = %d", len(open))
	}
	if open[0].ID != hi.ID {
		t.Fatalf("first open ticket = %+v, want the high-severity one", open[0])
	}
	if open[1].Severity != Medium || open[2].Severity != Low {
		t.Fatal("severity ordering wrong")
	}
}

func TestSupportFTEs(t *testing.T) {
	eng := sim.NewEngine(sim.Grid3Epoch)
	desk := NewDesk(eng)
	// 80 hours of effort over 4 weeks = 0.5 FTE.
	for i := 0; i < 8; i++ {
		tk := desk.Open("site", "vo", "issue", Medium)
		desk.Resolve(tk.ID, 10)
	}
	got := desk.SupportFTEs(4 * 7 * 24 * time.Hour)
	if math.Abs(got-0.5) > 1e-9 {
		t.Fatalf("FTEs = %v, want 0.5", got)
	}
	if desk.SupportFTEs(0) != 0 {
		t.Fatal("zero window should be 0")
	}
}

// SupportFTEs must not depend on map iteration order: with efforts whose
// float sum is order-sensitive, every call returns the same bits — those
// of the ascending-ID sum.
func TestSupportFTEsOrderIndependent(t *testing.T) {
	eng := sim.NewEngine(sim.Grid3Epoch)
	desk := NewDesk(eng)
	var want float64
	for i := 0; i < 200; i++ {
		tk := desk.Open("site", "vo", "gatekeeper down", Medium)
		effort := 0.1 * float64(i%7+1)
		if i%5 == 0 {
			effort = 1e16 / float64(i+1)
		}
		if i%11 == 3 {
			continue // left open: not counted
		}
		desk.Resolve(tk.ID, effort)
		want += effort
	}
	window := 4 * 7 * 24 * time.Hour
	want /= 40 * window.Hours() / (7 * 24)
	for call := 0; call < 50; call++ {
		if got := desk.SupportFTEs(window); math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("call %d: FTEs = %v (%#x), want %v (%#x)",
				call, got, math.Float64bits(got), want, math.Float64bits(want))
		}
	}
}

func TestAUP(t *testing.T) {
	p := NewAUP("usatlas", "uscms")
	if err := p.Check("/CN=alice", "usatlas"); err != nil {
		t.Fatal(err)
	}
	if err := p.Check("/CN=alice", "freeloaders"); !errors.Is(err, ErrPolicyViolated) {
		t.Fatalf("unregistered VO err = %v", err)
	}
	p.BannedSubjects["/CN=mallory"] = true
	if err := p.Check("/CN=mallory", "usatlas"); !errors.Is(err, ErrPolicyViolated) {
		t.Fatalf("banned subject err = %v", err)
	}
}

func TestStringers(t *testing.T) {
	if Low.String() != "low" || Medium.String() != "medium" || High.String() != "high" {
		t.Fatal("severity strings")
	}
	if Open.String() != "open" || Assigned.String() != "assigned" || Resolved.String() != "resolved" {
		t.Fatal("state strings")
	}
	if Severity(99).String() == "" || TicketState(99).String() == "" {
		t.Fatal("unknown values must still render")
	}
}

func TestAssignUnknownTicket(t *testing.T) {
	eng := sim.NewEngine(sim.Grid3Epoch)
	desk := NewDesk(eng)
	if err := desk.Assign(42, "x"); !errors.Is(err, ErrNoTicket) {
		t.Fatalf("err = %v", err)
	}
	if err := desk.Resolve(42, 1); !errors.Is(err, ErrNoTicket) {
		t.Fatalf("err = %v", err)
	}
	if desk.MeanTimeToResolve() != 0 {
		t.Fatal("MTTR with no resolved tickets should be 0")
	}
}

func TestReopenSemantics(t *testing.T) {
	eng := sim.NewEngine(sim.Grid3Epoch)
	desk := NewDesk(eng)
	tk := desk.Open("BNL_ATLAS_Tier1", "usatlas", "gridftp door down", Medium)

	// Reopening a still-open ticket is rejected.
	if err := desk.Reopen(tk.ID, "again", High); !errors.Is(err, ErrNotResolved) {
		t.Fatalf("reopen open ticket err = %v", err)
	}
	if err := desk.Reopen(99, "x", Low); !errors.Is(err, ErrNoTicket) {
		t.Fatalf("reopen missing ticket err = %v", err)
	}

	eng.RunUntil(2 * time.Hour)
	if err := desk.Resolve(tk.ID, 1.5); err != nil {
		t.Fatal(err)
	}

	// Same problem recurs: the ticket comes back with the new symptom,
	// severity escalates but never de-escalates.
	eng.RunUntil(10 * time.Hour)
	if err := desk.Reopen(tk.ID, "gridftp door down again, gatekeeper too", High); err != nil {
		t.Fatal(err)
	}
	got, _ := desk.Ticket(tk.ID)
	if got.State != Open || got.Reopens != 1 || got.Severity != High {
		t.Fatalf("reopened ticket = %+v", got)
	}
	if got.Opened != 0 {
		t.Fatalf("reopen must keep the original filing time, got %v", got.Opened)
	}
	if err := desk.Reopen(tk.ID, "x", Low); !errors.Is(err, ErrNotResolved) {
		t.Fatalf("double reopen err = %v", err)
	}

	// Effort accumulates across the saga; double-resolve still rejected.
	eng.RunUntil(14 * time.Hour)
	if err := desk.Resolve(tk.ID, 2.5); err != nil {
		t.Fatal(err)
	}
	got, _ = desk.Ticket(tk.ID)
	if got.EffortHours != 4.0 {
		t.Fatalf("EffortHours = %v, want accumulated 4.0", got.EffortHours)
	}
	if got.Severity != High {
		t.Fatalf("severity after de-escalating reopen attempt = %v", got.Severity)
	}
	if err := desk.Resolve(tk.ID, 1); !errors.Is(err, ErrAlreadyClosed) {
		t.Fatalf("double resolve err = %v", err)
	}
	// The whole saga counts toward MTTR: 14h open-to-final-resolve.
	if desk.MeanTimeToResolve() != 14*time.Hour {
		t.Fatalf("MTTR = %v", desk.MeanTimeToResolve())
	}
}

func TestOpenTicketsSiteFilter(t *testing.T) {
	eng := sim.NewEngine(sim.Grid3Epoch)
	desk := NewDesk(eng)
	desk.Open("BNL", "usatlas", "a", Low)
	desk.Open("FNAL", "uscms", "b", High)
	bnl2 := desk.Open("BNL", "ivdgl", "c", Medium)
	desk.Resolve(bnl2.ID, 0.1)

	if got := desk.OpenTickets("BNL"); len(got) != 1 || got[0].Site != "BNL" {
		t.Fatalf("OpenTickets(BNL) = %+v", got)
	}
	if got := desk.OpenTickets("BNL", "FNAL"); len(got) != 2 {
		t.Fatalf("OpenTickets(BNL, FNAL) = %d tickets", len(got))
	}
	if got := desk.OpenTickets("IU"); len(got) != 0 {
		t.Fatalf("OpenTickets(IU) = %+v", got)
	}
	if got := desk.OpenTickets(); len(got) != 2 {
		t.Fatalf("OpenTickets() = %d tickets", len(got))
	}
}
