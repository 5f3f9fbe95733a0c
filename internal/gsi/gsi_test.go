package gsi

import (
	"bytes"
	"errors"
	"maps"
	"strings"
	"testing"
	"testing/quick"
	"time"
)

var t0 = time.Date(2003, time.October, 23, 0, 0, 0, 0, time.UTC)

func newTestCA(t *testing.T) *CA {
	t.Helper()
	ca, err := NewCA("/DC=org/DC=doegrids/CN=DOEGrids CA 1", t0, 10*365*24*time.Hour)
	if err != nil {
		t.Fatal(err)
	}
	return ca
}

func TestIssueAndVerify(t *testing.T) {
	ca := newTestCA(t)
	cred, err := ca.Issue("/DC=org/DC=doegrids/OU=People/CN=Jane Doe", t0, 365*24*time.Hour)
	if err != nil {
		t.Fatal(err)
	}
	store := NewTrustStore(ca.Certificate())
	id, err := store.VerifyCredential(cred, t0.Add(time.Hour))
	if err != nil {
		t.Fatal(err)
	}
	if id != "/DC=org/DC=doegrids/OU=People/CN=Jane Doe" {
		t.Fatalf("identity = %q", id)
	}
}

func TestVerifyExpired(t *testing.T) {
	ca := newTestCA(t)
	cred, _ := ca.Issue("/CN=shortlived", t0, time.Hour)
	store := NewTrustStore(ca.Certificate())
	if _, err := store.VerifyCredential(cred, t0.Add(2*time.Hour)); err == nil {
		t.Fatal("expired cert verified")
	}
}

func TestVerifyNotYetValid(t *testing.T) {
	ca := newTestCA(t)
	cred, _ := ca.Issue("/CN=future", t0.Add(time.Hour), time.Hour)
	store := NewTrustStore(ca.Certificate())
	if _, err := store.VerifyCredential(cred, t0); err == nil {
		t.Fatal("not-yet-valid cert verified")
	}
}

func TestUntrustedCA(t *testing.T) {
	ca := newTestCA(t)
	rogue, err := NewCA("/CN=Rogue CA", t0, time.Hour*24)
	if err != nil {
		t.Fatal(err)
	}
	cred, _ := rogue.Issue("/CN=mallory", t0, time.Hour)
	store := NewTrustStore(ca.Certificate())
	if _, err := store.VerifyCredential(cred, t0.Add(time.Minute)); err == nil {
		t.Fatal("cert from untrusted CA verified")
	}
}

func TestTamperedCertificate(t *testing.T) {
	ca := newTestCA(t)
	cred, _ := ca.Issue("/CN=alice", t0, time.Hour)
	cred.Cert.Subject = "/CN=eve" // forge subject after signing
	store := NewTrustStore(ca.Certificate())
	if _, err := store.VerifyCredential(cred, t0.Add(time.Minute)); err == nil {
		t.Fatal("tampered cert verified")
	}
}

func TestProxyChain(t *testing.T) {
	ca := newTestCA(t)
	user, _ := ca.Issue("/OU=People/CN=Bob", t0, 30*24*time.Hour)
	proxy, err := NewProxy(user, t0, 12*time.Hour)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasSuffix(proxy.Cert.Subject, "/CN=proxy") {
		t.Fatalf("proxy subject %q", proxy.Cert.Subject)
	}
	store := NewTrustStore(ca.Certificate())
	id, err := store.VerifyCredential(proxy, t0.Add(time.Hour))
	if err != nil {
		t.Fatal(err)
	}
	if id != "/OU=People/CN=Bob" {
		t.Fatalf("proxy identity = %q, want end-entity DN", id)
	}
	// Second-level delegation (Condor-G GridManager style).
	deleg, err := NewProxy(proxy, t0.Add(time.Minute), 6*time.Hour)
	if err != nil {
		t.Fatal(err)
	}
	id, err = store.VerifyCredential(deleg, t0.Add(time.Hour))
	if err != nil {
		t.Fatal(err)
	}
	if id != "/OU=People/CN=Bob" {
		t.Fatalf("delegated identity = %q", id)
	}
	if deleg.Identity() != "/OU=People/CN=Bob" {
		t.Fatalf("Identity() = %q", deleg.Identity())
	}
}

func TestProxyCannotOutliveSigner(t *testing.T) {
	ca := newTestCA(t)
	user, _ := ca.Issue("/CN=carol", t0, time.Hour)
	if _, err := NewProxy(user, t0, 2*time.Hour); err != ErrProxyOutlives {
		t.Fatalf("err = %v, want ErrProxyOutlives", err)
	}
}

func TestProxyExpiresIndependently(t *testing.T) {
	ca := newTestCA(t)
	user, _ := ca.Issue("/CN=dave", t0, 30*24*time.Hour)
	proxy, _ := NewProxy(user, t0, time.Hour)
	store := NewTrustStore(ca.Certificate())
	if _, err := store.VerifyCredential(proxy, t0.Add(2*time.Hour)); err == nil {
		t.Fatal("expired proxy verified")
	}
	// The user credential itself is still fine.
	if _, err := store.VerifyCredential(user, t0.Add(2*time.Hour)); err != nil {
		t.Fatal(err)
	}
}

func TestProxyDepthLimit(t *testing.T) {
	ca := newTestCA(t)
	cred, _ := ca.Issue("/CN=deep", t0, 100*24*time.Hour)
	var err error
	for i := 0; i < MaxProxyDepth+2; i++ {
		cred, err = NewProxy(cred, t0, time.Hour)
		if err != nil {
			if err != ErrProxyDepth {
				t.Fatalf("unexpected error %v", err)
			}
			return
		}
	}
	t.Fatal("proxy chain exceeded MaxProxyDepth without error")
}

func TestChallengeResponse(t *testing.T) {
	ca := newTestCA(t)
	cred, _ := ca.Issue("/CN=host/gate.uchicago.edu", t0, 24*time.Hour)
	nonce := []byte("grid3-nonce-0001")
	sig := SignChallenge(cred, nonce)
	if err := VerifyChallenge(cred.Cert, nonce, sig); err != nil {
		t.Fatal(err)
	}
	if err := VerifyChallenge(cred.Cert, []byte("other"), sig); err == nil {
		t.Fatal("signature verified against wrong nonce")
	}
}

func TestStripProxy(t *testing.T) {
	in := "/OU=People/CN=Bob/CN=proxy/CN=proxy"
	if got := StripProxy(in); got != "/OU=People/CN=Bob" {
		t.Fatalf("StripProxy = %q", got)
	}
	if got := StripProxy("/CN=plain"); got != "/CN=plain" {
		t.Fatalf("StripProxy of plain DN = %q", got)
	}
}

func TestGridmapLookup(t *testing.T) {
	m := NewGridmap()
	m.Map("/OU=People/CN=Jane", "usatlas")
	acct, err := m.Lookup("/OU=People/CN=Jane/CN=proxy")
	if err != nil {
		t.Fatal(err)
	}
	if acct != "usatlas" {
		t.Fatalf("account = %q", acct)
	}
	if _, err := m.Lookup("/CN=unknown"); err == nil {
		t.Fatal("unknown DN authorized")
	}
	m.Unmap("/OU=People/CN=Jane")
	if _, err := m.Lookup("/OU=People/CN=Jane"); err == nil {
		t.Fatal("unmapped DN still authorized")
	}
}

func TestGridmapRoundTrip(t *testing.T) {
	m := NewGridmap()
	m.Map("/OU=People/CN=Jane", "usatlas")
	m.Map("/OU=People/CN=Bob Smith", "uscms")
	m.Map("/OU=Services/CN=ligo/ldas.ligo.caltech.edu", "ligo")
	var buf bytes.Buffer
	if _, err := m.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	parsed, err := ParseGridmap(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if parsed.Len() != 3 {
		t.Fatalf("round-trip lost entries: %d", parsed.Len())
	}
	acct, err := parsed.Lookup("/OU=People/CN=Bob Smith")
	if err != nil || acct != "uscms" {
		t.Fatalf("lookup after round trip: %q, %v", acct, err)
	}
}

func TestGridmapParseErrors(t *testing.T) {
	cases := []string{
		`/CN=unquoted usatlas`,
		`"/CN=unterminated usatlas`,
		`"" usatlas`,
		`"/CN=noaccount" `,
		`"/CN=proxy" usatlas`,
		`"/CN=proxy/CN=proxy" usatlas`,
	}
	for _, c := range cases {
		if _, err := ParseGridmap(strings.NewReader(c)); err == nil {
			t.Fatalf("no error for malformed line %q", c)
		}
	}
	// The error names the line.
	_, err := ParseGridmap(strings.NewReader("\"/CN=x\" acct\n\n\"/CN=proxy\" usatlas\n"))
	if !errors.Is(err, ErrMalformedGridmap) || !strings.Contains(err.Error(), "line 3") {
		t.Fatalf("proxy-only DN on line 3: error %v", err)
	}
	// Comments and blanks are fine.
	ok := "# comment\n\n\"/CN=x\" acct\n"
	m, err := ParseGridmap(strings.NewReader(ok))
	if err != nil || m.Len() != 1 {
		t.Fatalf("valid file rejected: %v", err)
	}
}

// Property: any DN round-trips through the gridmap file format, as long as
// it has no quote or newline (which real DNs do not).
func TestGridmapRoundTripProperty(t *testing.T) {
	f := func(rawDN, rawAcct string) bool {
		dn := strings.Map(func(r rune) rune {
			if r == '"' || r == '\n' || r == '\r' {
				return '_'
			}
			return r
		}, rawDN)
		acct := strings.Map(func(r rune) rune {
			if r == ' ' || r == '\n' || r == '\r' || r == '\t' || r == '"' {
				return '_'
			}
			return r
		}, rawAcct)
		if strings.TrimSpace(dn) == "" || acct == "" {
			return true
		}
		dn = "/CN=" + dn
		m := NewGridmap()
		m.Map(dn, acct)
		var buf bytes.Buffer
		if _, err := m.WriteTo(&buf); err != nil {
			return false
		}
		p, err := ParseGridmap(&buf)
		if err != nil {
			return false
		}
		got, err := p.Lookup(dn)
		return err == nil && got == acct
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// FuzzParseGridmap: parsing never panics, and whatever the parser accepts
// it can write back: the written file parses to the same DNs and accounts,
// and writing that again gives the same bytes.
func FuzzParseGridmap(f *testing.F) {
	f.Add([]byte(`"/CN=proxy" usatlas`))
	f.Add([]byte("# grid-mapfile\n\n\"/DC=org/DC=doegrids/OU=People/CN=Jane Doe\" usatlas\n"))
	f.Add([]byte("\"/CN=a/CN=proxy\" uscms\n\"/CN=a\" ivdgl\n  \"/CN=b\"sdss  \r\n"))
	f.Add([]byte(`"/O=Grid/CN=x" two words`))
	f.Fuzz(func(t *testing.T, data []byte) {
		m, err := ParseGridmap(bytes.NewReader(data))
		if err != nil {
			return
		}
		var first bytes.Buffer
		if _, err := m.WriteTo(&first); err != nil {
			t.Fatal(err)
		}
		again, err := ParseGridmap(bytes.NewReader(first.Bytes()))
		if err != nil {
			t.Fatalf("written map %q does not parse: %v", first.Bytes(), err)
		}
		if !maps.Equal(m.entries, again.entries) {
			t.Fatalf("round trip changed the map: %q became %q", m.entries, again.entries)
		}
		var second bytes.Buffer
		if _, err := again.WriteTo(&second); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(first.Bytes(), second.Bytes()) {
			t.Fatalf("second write differs:\n%q\n%q", first.Bytes(), second.Bytes())
		}
	})
}
