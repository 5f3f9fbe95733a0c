package gsi

import (
	"bufio"
	"fmt"
	"io"
	"sort"
	"strings"
)

// Gridmap maps certificate identity DNs to local Unix accounts, as the
// grid-mapfile does on every Grid3 gatekeeper. §5.3: "We generated the local
// grid-map files that map user identities presented in X509 certificates to
// local accounts by calling an EDG script to contact each VO's VOMS server."
type Gridmap struct {
	entries map[string]string
}

// NewGridmap returns an empty map.
func NewGridmap() *Gridmap {
	return &Gridmap{entries: make(map[string]string)}
}

// Map adds or replaces the account for a DN. Proxy components are stripped
// so proxies map the same as their end-entity identities.
func (m *Gridmap) Map(dn, account string) {
	m.entries[StripProxy(dn)] = account
}

// Unmap removes a DN.
func (m *Gridmap) Unmap(dn string) {
	delete(m.entries, StripProxy(dn))
}

// Lookup returns the local account for a DN.
func (m *Gridmap) Lookup(dn string) (string, error) {
	acct, ok := m.entries[StripProxy(dn)]
	if !ok {
		return "", fmt.Errorf("%w: %s", ErrNotAuthorized, dn)
	}
	return acct, nil
}

// Has reports whether the DN is mapped. Unlike Lookup it builds no error on
// a miss, so map-building loops can test membership without allocating.
func (m *Gridmap) Has(dn string) bool {
	_, ok := m.entries[StripProxy(dn)]
	return ok
}

// Len returns the number of authorized DNs.
func (m *Gridmap) Len() int { return len(m.entries) }

// ReplaceAll atomically swaps the map's contents for other's — how
// edg-mkgridmap rewrote the grid-mapfile in place on its cron cycle,
// so services holding the map see the refresh without re-opening it.
func (m *Gridmap) ReplaceAll(other *Gridmap) {
	fresh := make(map[string]string, len(other.entries))
	for dn, acct := range other.entries {
		fresh[dn] = acct
	}
	m.entries = fresh
}

// DNs returns all mapped DNs, sorted.
func (m *Gridmap) DNs() []string {
	out := make([]string, 0, len(m.entries))
	for dn := range m.entries {
		out = append(out, dn)
	}
	sort.Strings(out)
	return out
}

// WriteTo serializes the map in grid-mapfile format:
//
//	"/DC=org/DC=doegrids/OU=People/CN=Jane Doe" usatlas
func (m *Gridmap) WriteTo(w io.Writer) (int64, error) {
	var total int64
	for _, dn := range m.DNs() {
		n, err := fmt.Fprintf(w, "\"%s\" %s\n", dn, m.entries[dn])
		total += int64(n)
		if err != nil {
			return total, err
		}
	}
	return total, nil
}

// ParseGridmap reads grid-mapfile format. Blank lines and '#' comments are
// ignored. DNs must be double-quoted and must not be empty once proxy
// components are stripped; the account is the remainder of the line.
func ParseGridmap(r io.Reader) (*Gridmap, error) {
	m := NewGridmap()
	sc := bufio.NewScanner(r)
	lineno := 0
	for sc.Scan() {
		lineno++
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		if !strings.HasPrefix(line, `"`) {
			return nil, fmt.Errorf("%w: line %d: DN not quoted", ErrMalformedGridmap, lineno)
		}
		end := strings.Index(line[1:], `"`)
		if end < 0 {
			return nil, fmt.Errorf("%w: line %d: unterminated DN", ErrMalformedGridmap, lineno)
		}
		dn := line[1 : 1+end]
		acct := strings.TrimSpace(line[2+end:])
		if dn == "" || acct == "" {
			return nil, fmt.Errorf("%w: line %d: empty DN or account", ErrMalformedGridmap, lineno)
		}
		// Map strips proxy components; a DN made only of them would be
		// stored, and written back, as the empty DN this parser refuses.
		if StripProxy(dn) == "" {
			return nil, fmt.Errorf("%w: line %d: DN %q is empty without its proxy components", ErrMalformedGridmap, lineno, dn)
		}
		m.Map(dn, acct)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return m, nil
}
