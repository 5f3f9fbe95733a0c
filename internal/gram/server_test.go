package gram

import (
	"bufio"
	"errors"
	"fmt"
	"net"
	"strings"
	"testing"
	"time"

	"grid3/internal/gsi"
)

// tcpRig is a gatekeeper whose grid-mapfile maps proxy's user to usatlas
// and other to uscms.
type tcpRig struct {
	ca    *gsi.CA
	proxy *gsi.Credential
	other *gsi.Credential
	srv   *Server
	addr  string
}

func newTCPRig(t *testing.T, slots int) *tcpRig {
	t.Helper()
	now := time.Now()
	ca, err := gsi.NewCA("/CN=Test CA", now.Add(-time.Hour), 24*time.Hour)
	if err != nil {
		t.Fatal(err)
	}
	user, err := ca.Issue("/OU=People/CN=Grid User", now.Add(-time.Minute), 12*time.Hour)
	if err != nil {
		t.Fatal(err)
	}
	proxy, err := gsi.NewProxy(user, now, 6*time.Hour)
	if err != nil {
		t.Fatal(err)
	}
	other, err := ca.Issue("/OU=People/CN=Other User", now.Add(-time.Minute), 12*time.Hour)
	if err != nil {
		t.Fatal(err)
	}
	gm := gsi.NewGridmap()
	gm.Map(user.Cert.Subject, "usatlas")
	gm.Map(other.Cert.Subject, "uscms")
	srv := NewServer(gsi.NewTrustStore(ca.Certificate()), gm, slots)
	addr, err := srv.Serve()
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	return &tcpRig{ca: ca, proxy: proxy, other: other, srv: srv, addr: addr}
}

func TestTCPSubmitPollDone(t *testing.T) {
	rig := newTCPRig(t, 2)
	c, err := Dial(rig.addr, rig.proxy)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if c.Account != "usatlas" {
		t.Fatalf("account = %q", c.Account)
	}
	id, err := c.Submit("/bin/athena", 20*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	st, err := c.WaitDone(id, 2*time.Second)
	if err != nil || st != "DONE" {
		t.Fatalf("final state = %s, %v", st, err)
	}
}

func TestTCPSlotsQueue(t *testing.T) {
	rig := newTCPRig(t, 1)
	c, err := Dial(rig.addr, rig.proxy)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	id1, _ := c.Submit("/bin/a", 100*time.Millisecond)
	id2, _ := c.Submit("/bin/b", 20*time.Millisecond)
	st2, _ := c.Poll(id2)
	if st2 != "PENDING" {
		t.Fatalf("second job state = %s, want PENDING behind the slot", st2)
	}
	if st, err := c.WaitDone(id1, 2*time.Second); err != nil || st != "DONE" {
		t.Fatalf("job1 = %s, %v", st, err)
	}
	if st, err := c.WaitDone(id2, 2*time.Second); err != nil || st != "DONE" {
		t.Fatalf("job2 = %s, %v", st, err)
	}
}

func TestTCPCancel(t *testing.T) {
	rig := newTCPRig(t, 1)
	c, _ := Dial(rig.addr, rig.proxy)
	defer c.Close()
	id, _ := c.Submit("/bin/longjob", 10*time.Second)
	if err := c.Cancel(id); err != nil {
		t.Fatal(err)
	}
	st, _ := c.Poll(id)
	if st != "FAILED" {
		t.Fatalf("cancelled state = %s", st)
	}
	if err := c.Cancel("gram-404"); !errors.Is(err, ErrServer) {
		t.Fatalf("cancel unknown err = %v", err)
	}
	if _, err := c.Poll("gram-404"); !errors.Is(err, ErrServer) {
		t.Fatalf("poll unknown err = %v", err)
	}
}

func TestTCPUnauthorized(t *testing.T) {
	rig := newTCPRig(t, 1)
	stranger, err := rig.ca.Issue("/CN=Stranger", time.Now().Add(-time.Minute), time.Hour)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Dial(rig.addr, stranger); !errors.Is(err, ErrServer) {
		t.Fatalf("unauthorized dial err = %v", err)
	}
}

// TestTCPJobsAnswerOnlyTheirOwner: POLL and CANCEL need AUTH, and a job
// answers only sessions mapped to its owner's account; any other account
// gets the 550 an unknown ID gets.
func TestTCPJobsAnswerOnlyTheirOwner(t *testing.T) {
	rig := newTCPRig(t, 1)
	owner, err := Dial(rig.addr, rig.proxy)
	if err != nil {
		t.Fatal(err)
	}
	defer owner.Close()
	id, err := owner.Submit("/bin/longjob", 10*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	ownerSees := func(after string) {
		t.Helper()
		if st, err := owner.Poll(id); err != nil || st == "FAILED" {
			t.Fatalf("owner's job after %s: %s, %v", after, st, err)
		}
	}

	// A session that never authenticated.
	conn, err := net.Dial("tcp", rig.addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	r := bufio.NewReader(conn)
	if _, err := r.ReadString('\n'); err != nil { // greeting
		t.Fatal(err)
	}
	for _, cmd := range []string{"CANCEL", "POLL"} {
		fmt.Fprintf(conn, "%s %s\r\n", cmd, id)
		line, err := r.ReadString('\n')
		if err != nil || !strings.HasPrefix(line, "530 ") {
			t.Fatalf("unauthenticated %s %s: %q, %v; want 530", cmd, id, line, err)
		}
	}
	ownerSees("an unauthenticated CANCEL")

	// A second user, mapped to another account.
	stranger, err := Dial(rig.addr, rig.other)
	if err != nil {
		t.Fatal(err)
	}
	defer stranger.Close()
	if stranger.Account != "uscms" {
		t.Fatalf("second user mapped to %q", stranger.Account)
	}
	if st, err := stranger.Poll(id); !errors.Is(err, ErrServer) || !strings.Contains(err.Error(), "550 no such job") {
		t.Fatalf("another account's POLL %s: %q, %v; want 550", id, st, err)
	}
	if err := stranger.Cancel(id); !errors.Is(err, ErrServer) || !strings.Contains(err.Error(), "550 no such job") {
		t.Fatalf("another account's CANCEL %s: %v; want 550", id, err)
	}
	ownerSees("another account's CANCEL")
}
