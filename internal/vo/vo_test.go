package vo

import (
	"testing"
	"time"

	"grid3/internal/gsi"
)

var t0 = time.Date(2003, time.October, 23, 0, 0, 0, 0, time.UTC)

func newVOMS(t *testing.T, name string) (*VOMS, *gsi.CA) {
	t.Helper()
	ca, err := gsi.NewCA("/CN=Grid3 CA", t0, 10*365*24*time.Hour)
	if err != nil {
		t.Fatal(err)
	}
	cred, err := ca.Issue("/CN=voms/"+name+".grid3.org", t0, 365*24*time.Hour)
	if err != nil {
		t.Fatal(err)
	}
	return NewVOMS(name, cred), ca
}

func TestMembership(t *testing.T) {
	v, _ := newVOMS(t, USATLAS)
	if err := v.Add("/CN=Jane", "Jane", RoleProduction); err != nil {
		t.Fatal(err)
	}
	if err := v.Add("/CN=Jane", "Jane again"); err == nil {
		t.Fatal("duplicate add succeeded")
	}
	m, err := v.Lookup("/CN=Jane/CN=proxy")
	if err != nil {
		t.Fatal(err)
	}
	if !m.HasRole(RoleProduction) || !m.HasRole(RoleMember) {
		t.Fatal("roles not reported")
	}
	if m.HasRole(RoleAdmin) {
		t.Fatal("phantom role")
	}
	if err := v.Remove("/CN=Jane"); err != nil {
		t.Fatal(err)
	}
	if _, err := v.Lookup("/CN=Jane"); err == nil {
		t.Fatal("removed member still found")
	}
	if err := v.Remove("/CN=Jane"); err == nil {
		t.Fatal("double remove succeeded")
	}
}

func TestAssertionVerify(t *testing.T) {
	v, _ := newVOMS(t, USCMS)
	if err := v.Add("/CN=Bob", "Bob", RoleSoftware); err != nil {
		t.Fatal(err)
	}
	a, err := v.Assert("/CN=Bob", t0, 12*time.Hour)
	if err != nil {
		t.Fatal(err)
	}
	if err := VerifyAssertion(a, v.Certificate(), t0.Add(time.Hour)); err != nil {
		t.Fatal(err)
	}
	if err := VerifyAssertion(a, v.Certificate(), t0.Add(13*time.Hour)); err == nil {
		t.Fatal("expired assertion verified")
	}
	a.VO = "forged"
	if err := VerifyAssertion(a, v.Certificate(), t0.Add(time.Hour)); err == nil {
		t.Fatal("tampered assertion verified")
	}
}

func TestAssertNonMember(t *testing.T) {
	v, _ := newVOMS(t, SDSS)
	if _, err := v.Assert("/CN=stranger", t0, time.Hour); err == nil {
		t.Fatal("assertion issued for non-member")
	}
}

func TestRegistryVOOf(t *testing.T) {
	atlas, _ := newVOMS(t, USATLAS)
	cms, _ := newVOMS(t, USCMS)
	atlas.Add("/CN=a1", "a1")
	cms.Add("/CN=c1", "c1")
	// dual membership: lexically first VO wins
	atlas.Add("/CN=dual", "dual")
	cms.Add("/CN=dual", "dual")
	r := NewRegistry(atlas, cms)
	vo, err := r.VOOf("/CN=a1")
	if err != nil || vo != USATLAS {
		t.Fatalf("VOOf a1 = %q, %v", vo, err)
	}
	vo, err = r.VOOf("/CN=dual")
	if err != nil || vo != USATLAS {
		t.Fatalf("VOOf dual = %q, want usatlas (lexically first)", vo)
	}
	if _, err := r.VOOf("/CN=nobody"); err == nil {
		t.Fatal("VOOf of stranger succeeded")
	}
}

func TestRegistryTotalUsers(t *testing.T) {
	atlas, _ := newVOMS(t, USATLAS)
	cms, _ := newVOMS(t, USCMS)
	atlas.Add("/CN=a", "a")
	atlas.Add("/CN=both", "b")
	cms.Add("/CN=both", "b")
	cms.Add("/CN=c", "c")
	r := NewRegistry(atlas, cms)
	if n := r.TotalUsers(); n != 3 {
		t.Fatalf("TotalUsers = %d, want 3 (dedup across VOs)", n)
	}
}

func TestGenerateGridmap(t *testing.T) {
	atlas, _ := newVOMS(t, USATLAS)
	ligo, _ := newVOMS(t, LIGO)
	atlas.Add("/CN=a1", "a1")
	atlas.Add("/CN=a2", "a2")
	ligo.Add("/CN=l1", "l1")
	ligo.Add("/CN=dual", "d")
	atlas.Add("/CN=dual", "d")
	r := NewRegistry(atlas, ligo)

	// Site supports ATLAS only: LIGO members must not appear.
	m := r.GenerateGridmap(map[string]string{USATLAS: "grp_usatlas"})
	if m.Len() != 3 {
		t.Fatalf("gridmap len = %d, want 3", m.Len())
	}
	if _, err := m.Lookup("/CN=l1"); err == nil {
		t.Fatal("LIGO member mapped at ATLAS-only site")
	}

	// Site supports both: dual member maps to the lexically-first VO's
	// account, consistent with Registry.VOOf.
	m = r.GenerateGridmap(map[string]string{USATLAS: "grp_usatlas", LIGO: "grp_ligo"})
	acct, err := m.Lookup("/CN=dual")
	if err != nil {
		t.Fatal(err)
	}
	if want := "grp_ligo"; acct != want {
		// ligo < usatlas lexically, so LIGO processes first and wins.
		t.Fatalf("dual account = %q, want %q", acct, want)
	}
	vo, _ := r.VOOf("/CN=dual")
	if got, _ := m.Lookup("/CN=dual"); got != "grp_"+vo {
		t.Fatalf("gridmap (%s) disagrees with VOOf (%s)", got, vo)
	}
}

// Generation rises by one per successful membership change and not on a
// failed one; AccountFor agrees entry for entry with GenerateGridmap.
func TestGenerationAndAccountFor(t *testing.T) {
	atlas, _ := newVOMS(t, USATLAS)
	ligo, _ := newVOMS(t, LIGO)
	r := NewRegistry(atlas, ligo)
	steps := []struct {
		op      func() error
		wantGen int64
	}{
		{func() error { return atlas.Add("/CN=dual", "d") }, 1},
		{func() error { return atlas.Add("/CN=a1", "a1") }, 2},
		{func() error { return atlas.Add("/CN=a1", "again") }, 2}, // duplicate
		{func() error { return ligo.Add("/CN=dual/CN=proxy", "d") }, 3},
		{func() error { return ligo.Remove("/CN=nobody") }, 3}, // not a member
		{func() error { return atlas.Remove("/CN=a1") }, 4},
	}
	for i, s := range steps {
		s.op()
		if got := r.Generation(); got != s.wantGen {
			t.Fatalf("step %d: generation %d, want %d", i, got, s.wantGen)
		}
	}

	for _, accounts := range []map[string]string{
		{USATLAS: "grp_usatlas"},
		{LIGO: "grp_ligo"},
		{USATLAS: "grp_usatlas", LIGO: "grp_ligo"},
		{},
	} {
		m := r.GenerateGridmap(accounts)
		for _, dn := range []string{"/CN=dual", "/CN=dual/CN=proxy", "/CN=a1", "/CN=nobody"} {
			acct, ok := r.AccountFor(dn, accounts)
			mapped, err := m.Lookup(dn)
			if ok != (err == nil) || acct != mapped || ok != m.Has(dn) {
				t.Fatalf("accounts %v, %s: AccountFor = (%q, %v), gridmap = (%q, %v)",
					accounts, dn, acct, ok, mapped, err)
			}
		}
	}
}

func TestServerLookup(t *testing.T) {
	atlas, _ := newVOMS(t, USATLAS)
	r := NewRegistry(atlas)
	if _, err := r.Server(USATLAS); err != nil {
		t.Fatal(err)
	}
	if _, err := r.Server("nonexistent"); err == nil {
		t.Fatal("unknown server lookup succeeded")
	}
	cms, _ := newVOMS(t, USCMS)
	r.Add(cms)
	if got := r.VOs(); len(got) != 2 || got[0] != USATLAS || got[1] != USCMS {
		t.Fatalf("VOs = %v", got)
	}
}

func TestGrid3VOList(t *testing.T) {
	if len(Grid3VOs) != 7 {
		t.Fatalf("Grid3VOs has %d classes, want the 7 Table 1 columns", len(Grid3VOs))
	}
}
