// Package goc implements the iVDGL Grid Operations Center (iGOC) support
// machinery of §5.4: a trouble-ticket system, the acceptable-use policy
// check, and operations support-load accounting (the §7 "operations
// support load" metric, target <2 FTEs).
package goc

import (
	"errors"
	"fmt"
	"sort"
	"time"

	"grid3/internal/sim"
)

// Severity classifies tickets.
type Severity int

// Ticket severities.
const (
	Low Severity = iota
	Medium
	High // site-wide outage, blocks a VO's production
)

func (s Severity) String() string {
	switch s {
	case Low:
		return "low"
	case Medium:
		return "medium"
	case High:
		return "high"
	}
	return fmt.Sprintf("Severity(%d)", int(s))
}

// TicketState tracks a ticket's lifecycle.
type TicketState int

// Ticket states.
const (
	Open TicketState = iota
	Assigned
	Resolved
)

func (s TicketState) String() string {
	switch s {
	case Open:
		return "open"
	case Assigned:
		return "assigned"
	case Resolved:
		return "resolved"
	}
	return fmt.Sprintf("TicketState(%d)", int(s))
}

// Errors.
var (
	ErrNoTicket       = errors.New("goc: no such ticket")
	ErrAlreadyClosed  = errors.New("goc: ticket already resolved")
	ErrNotResolved    = errors.New("goc: ticket not resolved")
	ErrPolicyViolated = errors.New("goc: acceptable use policy violation")
)

// Ticket is one trouble report.
type Ticket struct {
	ID       int
	Site     string
	VO       string
	Severity Severity
	Summary  string
	State    TicketState
	Assignee string
	Opened   time.Duration
	Resolved time.Duration
	// EffortHours is support effort logged against the ticket, summed
	// across every resolution when the ticket has been reopened.
	EffortHours float64
	// Reopens counts how many times the ticket came back after being
	// resolved — the §6 "site fixed, then broke again" pattern.
	Reopens int
}

// Desk is the iGOC trouble-ticket system.
type Desk struct {
	clock   sim.Clock
	tickets map[int]*Ticket
	nextID  int
}

// NewDesk creates an empty ticket system.
func NewDesk(clock sim.Clock) *Desk {
	return &Desk{clock: clock, tickets: make(map[int]*Ticket)}
}

// Open files a ticket and returns it.
func (d *Desk) Open(siteName, vo, summary string, sev Severity) *Ticket {
	d.nextID++
	t := &Ticket{
		ID: d.nextID, Site: siteName, VO: vo, Severity: sev,
		Summary: summary, State: Open, Opened: d.clock.Now(),
	}
	d.tickets[t.ID] = t
	return t
}

// Assign routes a ticket per the §5.4 responsibility split: site problems
// to the site administrator, application problems to the VO's support
// organization.
func (d *Desk) Assign(id int, assignee string) error {
	t, ok := d.tickets[id]
	if !ok {
		return fmt.Errorf("%w: %d", ErrNoTicket, id)
	}
	if t.State == Resolved {
		return fmt.Errorf("%w: %d", ErrAlreadyClosed, id)
	}
	t.Assignee = assignee
	t.State = Assigned
	return nil
}

// Resolve closes a ticket, logging the effort spent. Resolving an
// already-resolved ticket is rejected with ErrAlreadyClosed; effort
// accumulates across reopen/resolve cycles.
func (d *Desk) Resolve(id int, effortHours float64) error {
	t, ok := d.tickets[id]
	if !ok {
		return fmt.Errorf("%w: %d", ErrNoTicket, id)
	}
	if t.State == Resolved {
		return fmt.Errorf("%w: %d", ErrAlreadyClosed, id)
	}
	t.State = Resolved
	t.Resolved = d.clock.Now()
	t.EffortHours += effortHours
	return nil
}

// Reopen puts a resolved ticket back in the queue when the same problem
// recurs, recording the new symptom and escalating severity if the repeat
// failure is worse. Reopening a ticket that is still open is rejected with
// ErrNotResolved. Opened keeps the original filing time, so
// MeanTimeToResolve charges the full saga to the ticket.
func (d *Desk) Reopen(id int, summary string, sev Severity) error {
	t, ok := d.tickets[id]
	if !ok {
		return fmt.Errorf("%w: %d", ErrNoTicket, id)
	}
	if t.State != Resolved {
		return fmt.Errorf("%w: %d", ErrNotResolved, id)
	}
	t.State = Open
	t.Resolved = 0
	t.Reopens++
	if summary != "" {
		t.Summary = summary
	}
	if sev > t.Severity {
		t.Severity = sev
	}
	return nil
}

// Escalate raises an open ticket's severity when the blast radius grows
// (severity never decreases). Escalating a resolved ticket is rejected with
// ErrAlreadyClosed.
func (d *Desk) Escalate(id int, sev Severity) error {
	t, ok := d.tickets[id]
	if !ok {
		return fmt.Errorf("%w: %d", ErrNoTicket, id)
	}
	if t.State == Resolved {
		return fmt.Errorf("%w: %d", ErrAlreadyClosed, id)
	}
	if sev > t.Severity {
		t.Severity = sev
	}
	return nil
}

// TicketCount returns the total number of tickets ever filed.
func (d *Desk) TicketCount() int { return len(d.tickets) }

// Ticket returns a ticket by ID.
func (d *Desk) Ticket(id int) (*Ticket, error) {
	t, ok := d.tickets[id]
	if !ok {
		return nil, fmt.Errorf("%w: %d", ErrNoTicket, id)
	}
	return t, nil
}

// OpenTickets returns unresolved tickets sorted by (severity desc, ID).
// With site arguments it returns only tickets filed against those sites.
func (d *Desk) OpenTickets(sites ...string) []*Ticket {
	match := func(t *Ticket) bool {
		if len(sites) == 0 {
			return true
		}
		for _, s := range sites {
			if t.Site == s {
				return true
			}
		}
		return false
	}
	var out []*Ticket
	for _, t := range d.tickets {
		if t.State != Resolved && match(t) {
			out = append(out, t)
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Severity != out[j].Severity {
			return out[i].Severity > out[j].Severity
		}
		return out[i].ID < out[j].ID
	})
	return out
}

// MeanTimeToResolve averages resolution latency over closed tickets.
func (d *Desk) MeanTimeToResolve() time.Duration {
	var total time.Duration
	n := 0
	for _, t := range d.tickets {
		if t.State == Resolved {
			total += t.Resolved - t.Opened
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return total / time.Duration(n)
}

// SupportFTEs converts logged effort over a window into full-time
// equivalents (2080 work-hours/year ≈ 40 h/week) — the §7 operations
// support-load metric.
func (d *Desk) SupportFTEs(window time.Duration) float64 {
	if window <= 0 {
		return 0
	}
	// Sum in ascending ticket ID (IDs are dense from 1): float addition is
	// not associative, so map order would change the last bit run to run.
	var hours float64
	for id := 1; id <= d.nextID; id++ {
		if t := d.tickets[id]; t != nil && t.State == Resolved {
			hours += t.EffortHours
		}
	}
	workWeeks := window.Hours() / (7 * 24)
	if workWeeks == 0 {
		return 0
	}
	return hours / (40 * workWeeks)
}

// AUP is the acceptable-use policy adopted from the LCG (§5.4): jobs must
// belong to a registered VO and declare a scientific purpose.
type AUP struct {
	// RegisteredVOs lists VOs that have signed the policy.
	RegisteredVOs map[string]bool
	// BannedSubjects lists DNs with revoked access.
	BannedSubjects map[string]bool
}

// NewAUP builds a policy over the registered VOs.
func NewAUP(vos ...string) *AUP {
	p := &AUP{RegisteredVOs: map[string]bool{}, BannedSubjects: map[string]bool{}}
	for _, vo := range vos {
		p.RegisteredVOs[vo] = true
	}
	return p
}

// Check validates a (subject, vo) pair against the policy.
func (p *AUP) Check(subject, vo string) error {
	if p.BannedSubjects[subject] {
		return fmt.Errorf("%w: %s is banned", ErrPolicyViolated, subject)
	}
	if !p.RegisteredVOs[vo] {
		return fmt.Errorf("%w: VO %s has not accepted the AUP", ErrPolicyViolated, vo)
	}
	return nil
}
