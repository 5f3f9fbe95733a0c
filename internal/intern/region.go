package intern

import "fmt"

// RegionIndex partitions a dense ID space [0, Sites) into Shards contiguous
// regions of near-equal size. It is a pure function of (sites, shards): two
// processes that intern the same site catalog (FromSorted assigns dense IDs
// in sorted-name order) and ask for the same shard count derive the same
// region for every site, with no communication — so parallel matchmaking's
// per-region chunks, and the chunk-order reduction over them, are the same
// on every run.
//
// Because dense IDs follow sorted-name order, a region is an alphabetical
// band of the testbed, mirroring how Grid3 itself was operated as regional
// site groups coordinated through a thin central tier.
type RegionIndex struct {
	sites  int
	shards int
	// The first rem regions hold base+1 IDs, the rest base.
	base int
	rem  int
}

// Regions builds the index. shards is clamped to [1, sites] (a testbed
// smaller than the shard count cannot populate every region); sites must be
// non-negative.
func Regions(sites, shards int) RegionIndex {
	if sites < 0 {
		panic(fmt.Sprintf("intern: negative site count %d", sites))
	}
	if shards < 1 {
		shards = 1
	}
	if sites > 0 && shards > sites {
		shards = sites
	}
	ri := RegionIndex{sites: sites, shards: shards}
	if shards > 0 {
		ri.base = sites / shards
		ri.rem = sites % shards
	}
	return ri
}

// Sites returns the size of the partitioned ID space.
func (ri RegionIndex) Sites() int { return ri.sites }

// Shards returns the effective region count (after clamping).
func (ri RegionIndex) Shards() int { return ri.shards }

// Of returns the region owning dense ID id.
func (ri RegionIndex) Of(id ID) int {
	i := int(id)
	if i < 0 || i >= ri.sites {
		panic(fmt.Sprintf("intern: ID %d outside [0,%d)", i, ri.sites))
	}
	// The first rem regions are one wider than base.
	wide := ri.rem * (ri.base + 1)
	if i < wide {
		return i / (ri.base + 1)
	}
	return ri.rem + (i-wide)/ri.base
}

// Span returns the half-open dense ID range [lo, hi) of region r.
func (ri RegionIndex) Span(r int) (lo, hi ID) {
	if r < 0 || r >= ri.shards {
		panic(fmt.Sprintf("intern: region %d outside [0,%d)", r, ri.shards))
	}
	l := r*ri.base + min(r, ri.rem)
	h := l + ri.base
	if r < ri.rem {
		h++
	}
	return ID(l), ID(h)
}

// Size returns the number of dense IDs in region r.
func (ri RegionIndex) Size(r int) int {
	lo, hi := ri.Span(r)
	return int(hi - lo)
}
