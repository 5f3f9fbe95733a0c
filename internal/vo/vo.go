// Package vo implements virtual organizations and the EDG-style Virtual
// Organization Management System (VOMS) used by Grid3 (§5.3).
//
// Six VOs were configured on Grid3 — US-ATLAS, US-CMS, SDSS, LIGO, BTeV and
// iVDGL — each running a VOMS server that is the authority on its
// membership. Sites periodically regenerate their grid-mapfiles by querying
// every VO's VOMS server (the edg-mkgridmap path), mapping each member DN to
// the site's per-VO Unix group account.
package vo

import (
	"crypto/ed25519"
	"errors"
	"fmt"
	"sort"
	"strings"
	"time"

	"grid3/internal/gsi"
)

// The six Grid3 virtual organizations plus the Exerciser pseudo-class used
// by the Condor backfill demonstrator in Table 1.
const (
	USATLAS   = "usatlas"
	USCMS     = "uscms"
	SDSS      = "sdss"
	LIGO      = "ligo"
	BTeV      = "btev"
	IVDGL     = "ivdgl"
	Exerciser = "exerciser"
)

// Grid3VOs lists the VOs configured on Grid3 in Table 1 column order.
var Grid3VOs = []string{BTeV, IVDGL, LIGO, SDSS, USATLAS, USCMS, Exerciser}

// Errors returned by membership operations.
var (
	ErrNotMember     = errors.New("vo: DN is not a member")
	ErrDuplicate     = errors.New("vo: DN already a member")
	ErrBadAssertion  = errors.New("vo: attribute assertion invalid")
	ErrUnknownServer = errors.New("vo: unknown VOMS server")
)

// Role is a VOMS role within a VO group, e.g. production manager.
type Role string

// Roles used across the Grid3 application frameworks.
const (
	RoleMember     Role = "member"
	RoleProduction Role = "production" // application administrators (~10% of users ran most jobs)
	RoleSoftware   Role = "software"   // may install application packages
	RoleAdmin      Role = "admin"
)

// Member is one VO member record.
type Member struct {
	DN    string
	Name  string
	Roles []Role
}

// HasRole reports whether the member holds the role. Every member implicitly
// holds RoleMember.
func (m *Member) HasRole(r Role) bool {
	if r == RoleMember {
		return true
	}
	for _, have := range m.Roles {
		if have == r {
			return true
		}
	}
	return false
}

// VOMS is a VO's membership server. It signs attribute assertions with its
// own service credential so relying parties can verify membership claims
// offline.
type VOMS struct {
	vo      string
	cred    *gsi.Credential
	members map[string]*Member
	// version counts successful membership changes; Registry.Generation
	// sums it so sites can tell whether their grid-mapfile is current.
	version int64
}

// NewVOMS creates the membership server for a VO with the given service
// credential (issued by the grid CA).
func NewVOMS(voName string, cred *gsi.Credential) *VOMS {
	return &VOMS{vo: voName, cred: cred, members: make(map[string]*Member)}
}

// VO returns the VO name this server is authoritative for.
func (v *VOMS) VO() string { return v.vo }

// Certificate returns the VOMS service certificate, distributed to relying
// parties for assertion verification.
func (v *VOMS) Certificate() *gsi.Certificate { return v.cred.Cert }

// Add registers a member. The DN is normalized (proxies stripped).
func (v *VOMS) Add(dn, name string, roles ...Role) error {
	dn = gsi.StripProxy(dn)
	if _, ok := v.members[dn]; ok {
		return fmt.Errorf("%w: %s in %s", ErrDuplicate, dn, v.vo)
	}
	v.members[dn] = &Member{DN: dn, Name: name, Roles: roles}
	v.version++
	return nil
}

// Remove deletes a member.
func (v *VOMS) Remove(dn string) error {
	dn = gsi.StripProxy(dn)
	if _, ok := v.members[dn]; !ok {
		return fmt.Errorf("%w: %s in %s", ErrNotMember, dn, v.vo)
	}
	delete(v.members, dn)
	v.version++
	return nil
}

// Lookup returns the member record for a DN.
func (v *VOMS) Lookup(dn string) (*Member, error) {
	m, ok := v.members[gsi.StripProxy(dn)]
	if !ok {
		return nil, fmt.Errorf("%w: %s in %s", ErrNotMember, dn, v.vo)
	}
	return m, nil
}

// Members returns all member DNs, sorted — the edg-mkgridmap query.
func (v *VOMS) Members() []string {
	out := make([]string, 0, len(v.members))
	for dn := range v.members {
		out = append(out, dn)
	}
	sort.Strings(out)
	return out
}

// Len returns the membership count (the paper's "number of users" metric
// counts DNs authorized through VOMS; Grid3 reached 102 against a target
// of 10).
func (v *VOMS) Len() int { return len(v.members) }

// Assertion is a signed VOMS attribute certificate binding a member DN to
// its VO and roles for a bounded validity window.
type Assertion struct {
	VO        string
	DN        string
	Roles     []Role
	NotBefore time.Time
	NotAfter  time.Time
	Signature []byte
}

func (a *Assertion) payload() []byte {
	parts := make([]string, 0, len(a.Roles))
	for _, r := range a.Roles {
		parts = append(parts, string(r))
	}
	return []byte(strings.Join([]string{
		a.VO, a.DN, strings.Join(parts, ","),
		a.NotBefore.UTC().Format(time.RFC3339Nano),
		a.NotAfter.UTC().Format(time.RFC3339Nano),
	}, "|"))
}

// Assert issues a signed membership assertion for dn, valid for lifetime.
func (v *VOMS) Assert(dn string, now time.Time, lifetime time.Duration) (*Assertion, error) {
	m, err := v.Lookup(dn)
	if err != nil {
		return nil, err
	}
	a := &Assertion{
		VO:        v.vo,
		DN:        m.DN,
		Roles:     append([]Role{RoleMember}, m.Roles...),
		NotBefore: now,
		NotAfter:  now.Add(lifetime),
	}
	a.Signature = ed25519.Sign(v.cred.Key, a.payload())
	return a, nil
}

// VerifyAssertion checks an assertion against the issuing server's
// certificate and the current time.
func VerifyAssertion(a *Assertion, serverCert *gsi.Certificate, now time.Time) error {
	if now.Before(a.NotBefore) || now.After(a.NotAfter) {
		return fmt.Errorf("%w: outside validity", ErrBadAssertion)
	}
	if !ed25519.Verify(serverCert.PublicKey, a.payload(), a.Signature) {
		return fmt.Errorf("%w: bad signature", ErrBadAssertion)
	}
	return nil
}

// Registry is the set of VOMS servers a site knows about, used both for
// gridmap generation and for job authorization.
type Registry struct {
	servers map[string]*VOMS
}

// NewRegistry builds a registry over the given servers.
func NewRegistry(servers ...*VOMS) *Registry {
	r := &Registry{servers: make(map[string]*VOMS, len(servers))}
	for _, s := range servers {
		r.servers[s.VO()] = s
	}
	return r
}

// Add registers another VOMS server. Generation tracks membership changes,
// not registrations, so servers are registered before any grid-mapfile is
// built from the registry.
func (r *Registry) Add(s *VOMS) { r.servers[s.VO()] = s }

// Generation returns the sum of every server's membership version. Each
// successful Add or Remove on any server raises it by exactly one, so a
// grid-mapfile built at generation g-1 is one membership change behind g.
func (r *Registry) Generation() int64 {
	var gen int64
	for _, s := range r.servers {
		gen += s.version
	}
	return gen
}

// Server returns the VOMS server for a VO.
func (r *Registry) Server(vo string) (*VOMS, error) {
	s, ok := r.servers[vo]
	if !ok {
		return nil, fmt.Errorf("%w: %s", ErrUnknownServer, vo)
	}
	return s, nil
}

// VOs returns the registered VO names, sorted.
func (r *Registry) VOs() []string {
	out := make([]string, 0, len(r.servers))
	for vo := range r.servers {
		out = append(out, vo)
	}
	sort.Strings(out)
	return out
}

// VOOf returns the VO a DN belongs to. If the DN is a member of several VOs
// the lexically first VO wins, matching the deterministic order in which
// edg-mkgridmap processed its configuration blocks.
func (r *Registry) VOOf(dn string) (string, error) {
	for _, vo := range r.VOs() {
		if _, err := r.servers[vo].Lookup(dn); err == nil {
			return vo, nil
		}
	}
	return "", fmt.Errorf("%w: %s in any VO", ErrNotMember, dn)
}

// AccountFor returns the account dn maps to under a site's per-VO accounts:
// that of the first VO, in sorted order, the site has an account for and dn
// is a member of — the same first-VO-wins rule as GenerateGridmap. ok is
// false when no such VO exists, i.e. dn has no entry in the site's map.
func (r *Registry) AccountFor(dn string, accounts map[string]string) (account string, ok bool) {
	dn = gsi.StripProxy(dn)
	for _, vo := range r.VOs() {
		acct, has := accounts[vo]
		if !has {
			continue
		}
		if _, member := r.servers[vo].members[dn]; member {
			return acct, true
		}
	}
	return "", false
}

// TotalUsers counts distinct member DNs across all VOs — the §7 "number of
// users" milestone.
func (r *Registry) TotalUsers() int {
	seen := make(map[string]bool)
	for _, s := range r.servers {
		for _, dn := range s.Members() {
			seen[dn] = true
		}
	}
	return len(seen)
}

// GenerateGridmap builds a site grid-mapfile by querying every VOMS server,
// mapping each member to the site's group account for that VO (§5.3). VOs
// missing from accounts are skipped: a site only supports the VOs it has
// created group accounts for.
func (r *Registry) GenerateGridmap(accounts map[string]string) *gsi.Gridmap {
	m := gsi.NewGridmap()
	for _, vo := range r.VOs() {
		acct, ok := accounts[vo]
		if !ok {
			continue
		}
		// Member order is irrelevant within one VO (its DNs are distinct),
		// so the roster is walked unsorted.
		for dn := range r.servers[vo].members {
			if !m.Has(dn) { // first VO wins, matching VOOf
				m.Map(dn, acct)
			}
		}
	}
	return m
}
