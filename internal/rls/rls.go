// Package rls implements the Replica Location Service (Giggle framework):
// per-site Local Replica Catalogs mapping logical file names to physical
// locations, and a Replica Location Index aggregating LFN→site mappings
// with soft-state updates.
//
// Grid3's data management model "is based on GridFTP and RLS" (§8). ATLAS
// registered every produced dataset in RLS (§4.1); LIGO published staged
// input data locations in RLS "so that its location is available to the
// job" (§4.4). Pegasus queries RLS to reuse existing replicas when planning.
package rls

import (
	"errors"
	"fmt"
	"sort"
	"time"

	"grid3/internal/sim"
)

// Errors.
var (
	ErrNotFound  = errors.New("rls: logical file not found")
	ErrNoMapping = errors.New("rls: mapping does not exist")
	ErrDuplicate = errors.New("rls: mapping already exists")
)

// PFN is a physical file name: a site plus a path on its storage element.
type PFN struct {
	Site string
	Path string
}

func (p PFN) String() string {
	return "gsiftp://" + p.Site + p.Path
}

// LRC is a site's Local Replica Catalog.
type LRC struct {
	site     string
	mappings map[string]map[string]bool // LFN → set of paths
	size     map[string]int64           // LFN → size attribute
	// changed holds every LFN whose presence may have changed since the
	// last publication, so a republish can send only those. Once it
	// outgrows the catalog it is dropped and overflow set: the next
	// publication sends everything, and an LRC that is never published
	// cannot leak.
	changed  map[string]struct{}
	overflow bool
}

// NewLRC creates a catalog for the named site.
func NewLRC(site string) *LRC {
	return &LRC{
		site:     site,
		mappings: make(map[string]map[string]bool),
		size:     make(map[string]int64),
	}
}

// Site returns the LRC's site name.
func (l *LRC) Site() string { return l.site }

// Add registers LFN→path. Sizes are attributes; a second Add of the same
// pair fails.
func (l *LRC) Add(lfn, path string, size int64) error {
	if lfn == "" || path == "" {
		return errors.New("rls: empty LFN or path")
	}
	set := l.mappings[lfn]
	if set == nil {
		set = make(map[string]bool)
		l.mappings[lfn] = set
		l.touch(lfn)
	}
	if set[path] {
		return fmt.Errorf("%w: %s -> %s", ErrDuplicate, lfn, path)
	}
	set[path] = true
	l.size[lfn] = size
	return nil
}

// Remove deletes one mapping.
func (l *LRC) Remove(lfn, path string) error {
	set := l.mappings[lfn]
	if set == nil || !set[path] {
		return fmt.Errorf("%w: %s -> %s at %s", ErrNoMapping, lfn, path, l.site)
	}
	delete(set, path)
	if len(set) == 0 {
		delete(l.mappings, lfn)
		delete(l.size, lfn)
		l.touch(lfn)
	}
	return nil
}

// Drop removes every mapping of an LFN, no error if absent — how a storage
// eviction retracts a file from the site catalog in one call.
func (l *LRC) Drop(lfn string) {
	if _, ok := l.mappings[lfn]; !ok {
		return
	}
	delete(l.mappings, lfn)
	delete(l.size, lfn)
	l.touch(lfn)
}

// touch records that lfn's presence may have changed since the last
// publication.
func (l *LRC) touch(lfn string) {
	if l.overflow {
		return
	}
	if l.changed == nil {
		l.changed = make(map[string]struct{})
	}
	l.changed[lfn] = struct{}{}
	if len(l.changed) > len(l.mappings) {
		l.changed, l.overflow = nil, true
	}
}

// Lookup returns the physical paths of an LFN at this site, sorted.
func (l *LRC) Lookup(lfn string) ([]string, error) {
	set := l.mappings[lfn]
	if len(set) == 0 {
		return nil, fmt.Errorf("%w: %s at %s", ErrNotFound, lfn, l.site)
	}
	out := make([]string, 0, len(set))
	for p := range set {
		out = append(out, p)
	}
	sort.Strings(out)
	return out, nil
}

// Size returns the size attribute of an LFN.
func (l *LRC) Size(lfn string) (int64, error) {
	if _, ok := l.mappings[lfn]; !ok {
		return 0, fmt.Errorf("%w: %s", ErrNotFound, lfn)
	}
	return l.size[lfn], nil
}

// LFNs returns all logical names known to this LRC, sorted.
func (l *LRC) LFNs() []string {
	out := make([]string, 0, len(l.mappings))
	for lfn := range l.mappings {
		out = append(out, lfn)
	}
	sort.Strings(out)
	return out
}

// Len returns the number of logical names.
func (l *LRC) Len() int { return len(l.mappings) }

// RLI is the global replica location index. LRCs publish their LFN lists
// with a TTL; stale publications expire, so a dead site's replicas vanish
// from the index (Giggle's soft-state consistency).
//
// Each publication replaces the site's previous one and gives every entry
// the same expiry, so expiry is kept per site: every index entry of a site
// carries its latest expiry, and entries can be missing only once that
// expiry has passed. A republish before then sends only the LFNs the LRC
// recorded as changed (the "immediate mode" updates of later RLS
// releases); otherwise it sends the whole catalog.
//
// Expired entries are garbage-collected lazily: Sites prunes the queried
// LFN in place, and Publish piggybacks a full sweep at most once per
// sweepInterval, so a site that stops republishing (or LFN churn over a
// 183-day run) cannot grow the index without bound.
type RLI struct {
	clock sim.Clock
	// entries: LFN → set of publishing sites.
	entries map[string]map[string]struct{}
	// expiry: site → expiry of its latest publication.
	expiry map[string]time.Duration
	lrcs   map[string]*LRC
	// published: site → the LFNs of its current publication, so
	// republication can retract the previous one without scanning the
	// whole index.
	published map[string]map[string]struct{}
	// nextSweep is the earliest virtual time the next piggybacked full
	// sweep may run.
	nextSweep time.Duration
}

// sweepInterval bounds how often Publish runs a full expired-entry sweep.
const sweepInterval = time.Hour

// NewRLI creates an index on the given clock.
func NewRLI(clock sim.Clock) *RLI {
	return &RLI{
		clock:     clock,
		entries:   make(map[string]map[string]struct{}),
		expiry:    make(map[string]time.Duration),
		lrcs:      make(map[string]*LRC),
		published: make(map[string]map[string]struct{}),
	}
}

// Publish records all of an LRC's LFNs with the given TTL, replacing the
// site's previous publication. Grid3 LRCs republished periodically.
//
// When the same LRC republishes before its previous publication expired,
// none of its entries can have been pruned, so applying the LFNs it
// recorded as changed yields the full replacement at O(changes) cost.
// Publishing consumes the LRC's change set, so an LRC publishes into one
// RLI only.
func (r *RLI) Publish(lrc *LRC, ttl time.Duration) {
	site := lrc.Site()
	now := r.clock.Now()
	pub, ok := r.published[site]
	if ok && r.expiry[site] >= now && r.lrcs[site] == lrc && !lrc.overflow {
		for lfn := range lrc.changed {
			if _, present := lrc.mappings[lfn]; present {
				r.index(site, pub, lfn)
			} else {
				r.retract(site, pub, lfn)
			}
		}
	} else {
		if pub == nil {
			pub = make(map[string]struct{})
			r.published[site] = pub
		}
		for lfn := range pub {
			if _, present := lrc.mappings[lfn]; !present {
				r.retract(site, pub, lfn)
			}
		}
		for lfn := range lrc.mappings {
			r.index(site, pub, lfn)
		}
	}
	lrc.changed, lrc.overflow = nil, false
	r.lrcs[site] = lrc
	r.expiry[site] = now + ttl
	r.maybeSweep()
}

// index adds lfn to the site's publication and the index.
func (r *RLI) index(site string, pub map[string]struct{}, lfn string) {
	pub[lfn] = struct{}{}
	sites := r.entries[lfn]
	if sites == nil {
		sites = make(map[string]struct{})
		r.entries[lfn] = sites
	}
	sites[site] = struct{}{}
}

// retract removes lfn from the site's publication and the index.
func (r *RLI) retract(site string, pub map[string]struct{}, lfn string) {
	delete(pub, lfn)
	if sites, ok := r.entries[lfn]; ok {
		delete(sites, site)
		if len(sites) == 0 {
			delete(r.entries, lfn)
		}
	}
}

// pruneLFN drops an LFN's expired publications, and the LFN itself once no
// site publishes it. Expired entries were already invisible to queries, so
// pruning never changes results — it only returns memory.
func (r *RLI) pruneLFN(lfn string, now time.Duration) {
	sites := r.entries[lfn]
	for site := range sites {
		if r.expiry[site] < now {
			delete(sites, site)
		}
	}
	if len(sites) == 0 {
		delete(r.entries, lfn)
	}
}

// pruneAll prunes every entry, unless no site's publication has expired:
// then the walk could prune nothing and is skipped.
func (r *RLI) pruneAll(now time.Duration) {
	for _, expiry := range r.expiry {
		if expiry < now {
			for lfn := range r.entries {
				r.pruneLFN(lfn, now)
			}
			return
		}
	}
}

// maybeSweep runs a full expired-entry sweep at most once per sweepInterval.
func (r *RLI) maybeSweep() {
	now := r.clock.Now()
	if now < r.nextSweep {
		return
	}
	r.nextSweep = now + sweepInterval
	r.pruneAll(now)
}

// Sites returns the sites currently publishing an LFN, sorted. Expired
// publications are pruned on the way through.
func (r *RLI) Sites(lfn string) []string {
	now := r.clock.Now()
	r.pruneLFN(lfn, now)
	var out []string
	for site := range r.entries[lfn] {
		out = append(out, site)
	}
	sort.Strings(out)
	return out
}

// AlternateSites returns the sites currently publishing an LFN other than
// the excluded ones, sorted — the failover candidates a transfer retries
// against when its planned source fails mid-flight.
func (r *RLI) AlternateSites(lfn string, exclude ...string) []string {
	var out []string
	for _, site := range r.Sites(lfn) {
		skip := false
		for _, x := range exclude {
			if site == x {
				skip = true
				break
			}
		}
		if !skip {
			out = append(out, site)
		}
	}
	return out
}

// Locate resolves an LFN to physical locations by consulting the index and
// then each publishing site's LRC.
func (r *RLI) Locate(lfn string) ([]PFN, error) {
	var out []PFN
	for _, site := range r.Sites(lfn) {
		lrc := r.lrcs[site]
		if lrc == nil {
			continue
		}
		paths, err := lrc.Lookup(lfn)
		if err != nil {
			continue // index was stale; skip
		}
		for _, p := range paths {
			out = append(out, PFN{Site: site, Path: p})
		}
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("%w: %s", ErrNotFound, lfn)
	}
	return out, nil
}

// KnownLFNs returns the number of logical names with live publications.
// It prunes expired entries first, so the count never includes lapsed
// publications awaiting the sweep.
func (r *RLI) KnownLFNs() int {
	r.pruneAll(r.clock.Now())
	return len(r.entries)
}

// IndexSize returns the number of logical names currently held in the
// index, live or awaiting the lazy sweep — the footprint the soft-state GC
// bounds.
func (r *RLI) IndexSize() int { return len(r.entries) }
