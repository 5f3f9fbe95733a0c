package rls

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"
	"time"

	"grid3/internal/checkpoint"
	"grid3/internal/sim"
)

// refRLI is the reference model of the index's semantics: an expiry per
// (LFN, site) entry, and every publication retracts the site's previous
// one and re-inserts the whole catalog. HashState writes the same stream
// as RLI.HashState, so equal hashes mean equal soft state.
type refRLI struct {
	clock     sim.Clock
	entries   map[string]map[string]time.Duration
	published map[string][]string
	nextSweep time.Duration
}

func newRefRLI(clock sim.Clock) *refRLI {
	return &refRLI{
		clock:     clock,
		entries:   make(map[string]map[string]time.Duration),
		published: make(map[string][]string),
	}
}

func (r *refRLI) Publish(lrc *LRC, ttl time.Duration) {
	site := lrc.Site()
	expiry := r.clock.Now() + ttl
	for _, lfn := range r.published[site] {
		if sites, ok := r.entries[lfn]; ok {
			delete(sites, site)
			if len(sites) == 0 {
				delete(r.entries, lfn)
			}
		}
	}
	lfns := lrc.LFNs()
	for _, lfn := range lfns {
		sites := r.entries[lfn]
		if sites == nil {
			sites = make(map[string]time.Duration)
			r.entries[lfn] = sites
		}
		sites[site] = expiry
	}
	r.published[site] = lfns
	if now := r.clock.Now(); now >= r.nextSweep {
		r.nextSweep = now + sweepInterval
		r.pruneAll(now)
	}
}

func (r *refRLI) prune(lfn string, now time.Duration) {
	sites := r.entries[lfn]
	for site, expiry := range sites {
		if expiry < now {
			delete(sites, site)
		}
	}
	if len(sites) == 0 {
		delete(r.entries, lfn)
	}
}

func (r *refRLI) pruneAll(now time.Duration) {
	for lfn := range r.entries {
		r.prune(lfn, now)
	}
}

func (r *refRLI) Sites(lfn string) []string {
	r.prune(lfn, r.clock.Now())
	return sortedKeys(r.entries[lfn])
}

func (r *refRLI) KnownLFNs() int {
	r.pruneAll(r.clock.Now())
	return len(r.entries)
}

func (r *refRLI) HashState(h *checkpoint.Hasher) {
	h.Dur(r.nextSweep)
	lfns := sortedKeys(r.entries)
	h.Int(int64(len(lfns)))
	for _, lfn := range lfns {
		h.String(lfn)
		sites := r.entries[lfn]
		names := sortedKeys(sites)
		h.Int(int64(len(names)))
		for _, s := range names {
			h.String(s)
			h.Dur(sites[s])
		}
	}
	pubs := sortedKeys(r.published)
	h.Int(int64(len(pubs)))
	for _, s := range pubs {
		h.String(s)
		h.Int(int64(len(r.published[s])))
		for _, lfn := range r.published[s] {
			h.String(lfn)
		}
	}
}

// TestPublishMatchesReferenceModel drives the index and the reference
// model through the same seeded interleavings of catalog edits,
// publications with mixed TTLs, pruning queries, clock advances across
// sweepInterval, LRC replacement and change-set overflow. After every step
// both must hold the same soft state and answer Sites alike. Querying every
// LFN prunes every lapsed entry, which would leave the sweep nothing to do,
// so each seed also runs once querying a single random LFN per step.
func TestPublishMatchesReferenceModel(t *testing.T) {
	var incremental, lapsed, swapped, overflowed int
	for i := 0; i < 60; i++ {
		seed, queryAll := int64(i/2+1), i%2 == 0
		eng := sim.NewEngine(sim.Grid3Epoch)
		rli, ref := NewRLI(eng), newRefRLI(eng)
		rng := rand.New(rand.NewSource(seed))
		sites := []string{"BNL", "UC", "IU"}
		lrcs := map[string]*LRC{}
		for _, s := range sites {
			lrcs[s] = NewLRC(s)
		}
		var universe []string
		for i := 0; i < 10; i++ {
			universe = append(universe, fmt.Sprintf("lfn:f%02d", i))
		}
		for i := 0; i < 12; i++ {
			universe = append(universe, fmt.Sprintf("lfn:churn%02d", i))
		}
		paths := []string{"/data/a", "/tape/b"}
		ttls := []time.Duration{20 * time.Minute, 90 * time.Minute, 6 * time.Hour, 24 * time.Hour}
		pick := func(xs []string) string { return xs[rng.Intn(len(xs))] }

		for step := 0; step < 300; step++ {
			site := pick(sites)
			lrc := lrcs[site]
			var op string
			switch k := rng.Intn(100); {
			case k < 30:
				op = "add"
				lrc.Add(pick(universe[:10]), pick(paths), int64(k))
			case k < 38:
				op = "remove"
				lrc.Remove(pick(universe[:10]), pick(paths))
			case k < 42:
				op = "remove-last"
				if lfns := lrc.LFNs(); len(lfns) > 0 {
					lfn := lfns[rng.Intn(len(lfns))]
					ps, _ := lrc.Lookup(lfn)
					for _, p := range ps {
						lrc.Remove(lfn, p)
					}
				}
			case k < 47:
				op = "drop"
				lrc.Drop(pick(universe[:10]))
			case k < 65:
				op = "publish"
				// Tally which path the republish must take.
				if _, seen := rli.published[site]; seen {
					switch {
					case rli.expiry[site] < eng.Now():
						lapsed++
					case rli.lrcs[site] != lrc:
						swapped++
					case lrc.overflow:
						overflowed++
					default:
						incremental++
					}
				}
				ttl := ttls[rng.Intn(len(ttls))]
				ref.Publish(lrc, ttl)
				rli.Publish(lrc, ttl)
			case k < 70:
				op = "known"
				if got, want := rli.KnownLFNs(), ref.KnownLFNs(); got != want {
					t.Fatalf("seed %d step %d: KnownLFNs = %d, model %d", seed, step, got, want)
				}
			case k < 74:
				op = "alternates"
				lfn := pick(universe[:10])
				got := rli.AlternateSites(lfn, site)
				want := slices.DeleteFunc(ref.Sites(lfn), func(s string) bool { return s == site })
				if !slices.Equal(got, want) {
					t.Fatalf("seed %d step %d: AlternateSites(%s, %s) = %v, model %v", seed, step, lfn, site, got, want)
				}
			case k < 88:
				op = "advance"
				eng.RunUntil(eng.Now() + time.Duration(rng.Intn(150))*time.Minute)
			case k < 94:
				op = "swap"
				fresh := NewLRC(site)
				for _, lfn := range lrc.LFNs() {
					if rng.Intn(2) == 0 {
						ps, _ := lrc.Lookup(lfn)
						fresh.Add(lfn, ps[0], 1)
					}
				}
				lrcs[site] = fresh
			default:
				// Churn through more names than the catalog holds, so the
				// change set overflows and the next publish sends everything.
				op = "overflow"
				for _, lfn := range universe[10:] {
					lrc.Add(lfn, "/scratch", 1)
				}
				for _, lfn := range universe[10:] {
					lrc.Drop(lfn)
				}
				lrc.Add(pick(universe[10:]), "/scratch", 1)
				if !lrc.overflow {
					t.Fatalf("seed %d step %d: churn of %d names over a %d-name catalog did not overflow",
						seed, step, len(universe)-10, lrc.Len())
				}
			}

			gh, wh := checkpoint.NewHasher(), checkpoint.NewHasher()
			rli.HashState(gh)
			ref.HashState(wh)
			if gh.Sum() != wh.Sum() {
				t.Fatalf("seed %d step %d (%s at %s, t=%v): index state diverged from the model", seed, step, op, site, eng.Now())
			}
			queried := universe
			if !queryAll {
				queried = []string{pick(universe)}
			}
			for _, lfn := range queried {
				if got, want := rli.Sites(lfn), ref.Sites(lfn); !slices.Equal(got, want) {
					t.Fatalf("seed %d step %d (%s): Sites(%s) = %v, model %v", seed, step, op, lfn, got, want)
				}
			}
		}
	}
	// Every path a republish can take must actually have been exercised.
	if incremental == 0 || lapsed == 0 || swapped == 0 || overflowed == 0 {
		t.Fatalf("coverage: republishes %d incremental, %d lapsed, %d swapped, %d overflowed",
			incremental, lapsed, swapped, overflowed)
	}
}

// publishAllocs measures the allocations of one republish that follows a
// single catalog change, with n other LFNs in the LRC.
func publishAllocs(n int) float64 {
	eng := sim.NewEngine(sim.Grid3Epoch)
	rli := NewRLI(eng)
	lrc := NewLRC("BNL")
	for i := 0; i < n; i++ {
		lrc.Add(fmt.Sprintf("lfn:f%05d", i), "/data", 1)
	}
	rli.Publish(lrc, 24*time.Hour)
	return testing.AllocsPerRun(100, func() {
		lrc.Add("lfn:hot", "/data", 1)
		rli.Publish(lrc, 24*time.Hour)
		lrc.Drop("lfn:hot")
		rli.Publish(lrc, 24*time.Hour)
	})
}

// sweepAllocs measures the allocations of an unchanged republish that
// crosses sweepInterval while no publication has lapsed, with n LFNs
// indexed.
func sweepAllocs(n int) float64 {
	eng := sim.NewEngine(sim.Grid3Epoch)
	rli := NewRLI(eng)
	lrc := NewLRC("BNL")
	for i := 0; i < n; i++ {
		lrc.Add(fmt.Sprintf("lfn:f%05d", i), "/data", 1)
	}
	rli.Publish(lrc, 24*time.Hour)
	return testing.AllocsPerRun(100, func() {
		eng.RunUntil(eng.Now() + sweepInterval)
		rli.Publish(lrc, 24*time.Hour)
	})
}

// The cost of a republish follows the number of changes, not the size of
// the site's catalog: the same allocations at 100 and 10,000 LFNs.
func TestPublishCostTracksChanges(t *testing.T) {
	if small, large := publishAllocs(100), publishAllocs(10000); small != large {
		t.Fatalf("republish after one change: %v allocs at 100 LFNs, %v at 10000", small, large)
	}
	if small, large := sweepAllocs(100), sweepAllocs(10000); small != large {
		t.Fatalf("republish across the sweep interval: %v allocs at 100 LFNs, %v at 10000", small, large)
	}
}
