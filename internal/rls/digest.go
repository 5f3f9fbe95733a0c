package rls

import (
	"sort"

	"grid3/internal/checkpoint"
)

// HashState folds the catalog into h: every LFN in sorted order with its
// sorted physical paths and size attribute.
func (l *LRC) HashState(h *checkpoint.Hasher) {
	h.String(l.site)
	h.Int(int64(len(l.mappings)))
	for _, lfn := range l.LFNs() {
		h.String(lfn)
		h.Int(l.size[lfn])
		paths, _ := l.Lookup(lfn)
		h.Int(int64(len(paths)))
		for _, p := range paths {
			h.String(p)
		}
	}
}

// HashState folds the index soft state into h. It reads the entries map
// directly — never through Sites/KnownLFNs, whose lazy pruning would make
// the walk a mutation — so expired-but-unswept publications are part of the
// state, exactly as they are part of what a replayed run rebuilds.
func (r *RLI) HashState(h *checkpoint.Hasher) {
	h.Dur(r.nextSweep)
	lfns := sortedKeys(r.entries)
	h.Int(int64(len(lfns)))
	for _, lfn := range lfns {
		h.String(lfn)
		names := sortedKeys(r.entries[lfn])
		h.Int(int64(len(names)))
		for _, s := range names {
			h.String(s)
			h.Dur(r.expiry[s])
		}
	}
	pubs := sortedKeys(r.published)
	h.Int(int64(len(pubs)))
	for _, s := range pubs {
		h.String(s)
		pub := sortedKeys(r.published[s])
		h.Int(int64(len(pub)))
		for _, lfn := range pub {
			h.String(lfn)
		}
	}
}

// sortedKeys returns a map's keys in sorted order.
func sortedKeys[V any](m map[string]V) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
