package core

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"
	"time"

	"grid3/internal/gsi"
	"grid3/internal/vo"
)

// gridmapBytes renders a map in grid-mapfile format, the byte-level
// identity the incremental maps must keep with a full rebuild.
func gridmapBytes(m *gsi.Gridmap) []byte {
	var buf bytes.Buffer
	m.WriteTo(&buf)
	return buf.Bytes()
}

// checkGridmaps asserts every site's grid-mapfile equals a fresh
// GenerateGridmap, or is one a credential outage emptied and marked stale,
// so the next tick or grant rebuilds it. (Site health is no witness: the
// failure injector can heal a site while its credential is still out.) It
// returns how many sites were in such an outage.
func checkGridmaps(t *testing.T, g *Grid, step string) (emptied int) {
	t.Helper()
	for _, n := range g.nodeList {
		got := gridmapBytes(n.Gridmap)
		want := gridmapBytes(g.Registry.GenerateGridmap(n.Spec.Accounts))
		if bytes.Equal(got, want) {
			continue
		}
		if n.Gridmap.Len() == 0 && n.gridmapGen == staleGridmap {
			emptied++
			continue
		}
		t.Fatalf("%s: site %s grid-mapfile differs from a full rebuild:\n got:\n%s\nwant:\n%s",
			step, n.Spec.Name, got, want)
	}
	return emptied
}

// The incremental grid-mapfiles stay byte-identical to a full rebuild under
// random interleavings of enrollments (fresh DNs, DNs already in a lexically
// earlier or later VO, proxy-suffixed DNs, VOs some sites have no account
// for), removals, credential outages and renewals, and 6-hour ticks.
func TestIncrementalGridmapsMatchFullRebuild(t *testing.T) {
	for _, seed := range []int64{1, 2, 3} {
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			s, err := NewScenario(ScenarioConfig{
				Config:   Config{Seed: seed, TestbedSites: 8},
				Horizon:  60 * 24 * time.Hour,
				JobScale: 0.001,
				CertWave: CertWaveConfig{Lifetime: 24 * time.Hour, RevokeFraction: 0.3},
			})
			if err != nil {
				t.Fatal(err)
			}
			g := s.Grid
			vos := g.Registry.VOs()
			partial := false
			for _, voName := range vos {
				for _, n := range g.nodeList {
					if _, ok := n.Spec.Accounts[voName]; !ok {
						partial = true
					}
				}
			}
			if !partial {
				t.Fatal("every site has an account for every VO; the no-account path is untested")
			}

			rng := rand.New(rand.NewSource(seed))
			server := func() *vo.VOMS {
				srv, err := g.Registry.Server(vos[rng.Intn(len(vos))])
				if err != nil {
					t.Fatal(err)
				}
				return srv
			}
			// existing draws a current member of some VO, so enrolling it
			// elsewhere puts one DN in a lexically earlier or later VO.
			existing := func() string {
				for {
					if members := server().Members(); len(members) > 0 {
						return members[rng.Intn(len(members))]
					}
				}
			}
			fresh := 0
			pick := func() string {
				switch rng.Intn(3) {
				case 0:
					fresh++
					return fmt.Sprintf("/DC=org/DC=doegrids/OU=People/CN=prop user %d", fresh)
				case 1:
					return existing()
				default:
					return existing() + "/CN=proxy"
				}
			}
			enrolls, outageChecks := 0, 0
			for step := 0; step < 400; step++ {
				var what string
				switch r := rng.Intn(20); {
				case r < 9:
					dn, srv := pick(), server()
					what = fmt.Sprintf("enroll %s into %s", dn, srv.VO())
					if srv.Add(dn, "prop") == nil {
						g.GrantGridmaps(dn)
						enrolls++
					}
				case r < 10:
					// A batch enrollment: two membership changes land before
					// the first grant, so every site is two generations
					// behind it and must be rebuilt, not patched.
					dn1, dn2, srv := pick(), pick(), server()
					what = fmt.Sprintf("batch-enroll %s and %s into %s", dn1, dn2, srv.VO())
					var added []string
					for _, dn := range []string{dn1, dn2} {
						if srv.Add(dn, "prop") == nil {
							added = append(added, dn)
						}
					}
					for _, dn := range added {
						g.GrantGridmaps(dn)
					}
				case r < 12:
					srv := server()
					members := srv.Members()
					if len(members) == 0 {
						continue
					}
					dn := members[rng.Intn(len(members))]
					what = fmt.Sprintf("remove %s from %s", dn, srv.VO())
					if err := srv.Remove(dn); err != nil {
						t.Fatal(err)
					}
					g.GrantGridmaps(dn)
				case r < 14:
					what = "refresh tick"
					g.RefreshGridmaps()
				default:
					to := g.Eng.Now() + time.Duration(rng.Int63n(int64(8*time.Hour)))
					what = fmt.Sprintf("advance to %v", to)
					s.RunUntil(to)
				}
				outageChecks += checkGridmaps(t, g, fmt.Sprintf("step %d (%s)", step, what))
			}
			if enrolls == 0 || outageChecks == 0 || s.Certs.Renewals == 0 {
				t.Fatalf("interleaving too thin: %d enrollments, %d outage observations, %d renewals",
					enrolls, outageChecks, s.Certs.Renewals)
			}
		})
	}
}

// One enrollment costs the same number of allocations whether the VOs hold
// about 100 or about 2000 members: the grant is O(sites × VOs), not a
// rebuild over the whole membership. Each measured run enrolls a DN and
// removes it again, so the maps keep their size and map growth does not
// enter the count.
func TestEnrollmentCostIndependentOfMembership(t *testing.T) {
	g, err := New(Config{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	srv, err := g.Registry.Server(vo.USATLAS)
	if err != nil {
		t.Fatal(err)
	}
	const dn = "/DC=org/DC=doegrids/OU=People/CN=cost probe"
	enroll := func() {
		if err := srv.Add(dn, "probe"); err != nil {
			t.Fatal(err)
		}
		g.GrantGridmaps(dn)
		if err := srv.Remove(dn); err != nil {
			t.Fatal(err)
		}
		g.GrantGridmaps(dn)
	}
	grow := func(to int) {
		for i := g.Registry.TotalUsers(); i < to; i++ {
			member := fmt.Sprintf("/DC=org/DC=doegrids/OU=People/CN=filler %d", i)
			if err := srv.Add(member, "filler"); err != nil {
				t.Fatal(err)
			}
			g.GrantGridmaps(member)
		}
	}
	grow(100)
	small := testing.AllocsPerRun(100, enroll)
	grow(2000)
	large := testing.AllocsPerRun(100, enroll)
	if small != large {
		t.Fatalf("enrollment allocates %v at ~100 members, %v at ~2000", small, large)
	}
	checkGridmaps(t, g, "after growth")
}
