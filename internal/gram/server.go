package gram

import (
	"bufio"
	"bytes"
	"crypto/rand"
	"encoding/base64"
	"encoding/gob"
	"fmt"
	"net"
	"strconv"
	"strings"
	"sync"
	"time"

	"grid3/internal/gsi"
)

// This file implements a real TCP gatekeeper/jobmanager speaking a compact
// GRAM-like protocol with GSI challenge-response authentication — the
// analogue of globus-gatekeeper + jobmanager-fork. The simulated Gatekeeper
// above drives calibrated scenarios; this server is what the examples and
// integration tests exercise over real sockets.
//
// Protocol (one text control channel):
//
//	S: 220 grid3 gatekeeper nonce=<hex>
//	C: AUTH <base64(gob bundle)> <base64(sig over nonce)>
//	S: 230 mapped to <account>                    | 530 <reason>
//	C: SUBMIT <executable> <duration-ms>          → 201 <job-id>
//	C: POLL <job-id>                              → 202 <STATE>  | 550 no such job
//	C: CANCEL <job-id>                            → 203 cancelled | 550 no such job
//	C: QUIT                                       → 221 bye
//
// SUBMIT, POLL and CANCEL need AUTH first (530 otherwise). A job belongs
// to the account its submitter mapped to; POLL and CANCEL from another
// account get the same 550 as an unknown ID, so a guessed ID reveals
// nothing.

// wireBundle is the gob form of a credential's public half.
type wireBundle struct {
	Leaf  *gsi.Certificate
	Chain []*gsi.Certificate
}

// serverJob is one jobmanager-managed process.
type serverJob struct {
	id       string
	state    JobState
	timer    *time.Timer
	account  string
	duration time.Duration
}

// Server is a GSI-authenticated TCP gatekeeper executing jobs on the wall
// clock (durations are milliseconds; tests use short ones).
type Server struct {
	Trust   *gsi.TrustStore
	Gridmap *gsi.Gridmap
	Now     func() time.Time
	// Slots bounds simultaneously ACTIVE jobs; excess stay PENDING.
	Slots int

	listener net.Listener
	wg       sync.WaitGroup

	mu      sync.Mutex
	jobs    map[string]*serverJob
	active  int
	pending []*serverJob
	nextID  int64
	closed  bool
}

// NewServer creates a gatekeeper with the given trust anchors and map.
func NewServer(trust *gsi.TrustStore, gridmap *gsi.Gridmap, slots int) *Server {
	if slots <= 0 {
		slots = 1
	}
	return &Server{
		Trust: trust, Gridmap: gridmap, Now: time.Now, Slots: slots,
		jobs: make(map[string]*serverJob),
	}
}

// Serve starts listening on a fresh localhost port.
func (s *Server) Serve() (string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	s.listener = ln
	s.wg.Add(1)
	go func() {
		defer s.wg.Done()
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			s.wg.Add(1)
			go func() {
				defer s.wg.Done()
				s.handle(conn)
			}()
		}
	}()
	return ln.Addr().String(), nil
}

// Close stops the listener, cancels running jobs, and waits for sessions.
func (s *Server) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	for _, j := range s.jobs {
		if j.timer != nil {
			j.timer.Stop()
		}
	}
	s.mu.Unlock()
	err := s.listener.Close()
	s.wg.Wait()
	return err
}

func (s *Server) handle(conn net.Conn) {
	defer conn.Close()
	rw := bufio.NewReadWriter(bufio.NewReader(conn), bufio.NewWriter(conn))
	reply := func(format string, args ...any) bool {
		fmt.Fprintf(rw, format+"\r\n", args...)
		return rw.Flush() == nil
	}
	nonce := make([]byte, 32)
	if _, err := rand.Read(nonce); err != nil {
		reply("421 internal error")
		return
	}
	if !reply("220 grid3 gatekeeper nonce=%x", nonce) {
		return
	}
	account := ""
	for {
		line, err := rw.ReadString('\n')
		if err != nil {
			return
		}
		fields := strings.Fields(strings.TrimSpace(line))
		if len(fields) == 0 {
			continue
		}
		cmd := strings.ToUpper(fields[0])
		if account == "" && (cmd == "SUBMIT" || cmd == "POLL" || cmd == "CANCEL") {
			reply("530 authenticate first")
			continue
		}
		switch cmd {
		case "QUIT":
			reply("221 bye")
			return
		case "AUTH":
			if len(fields) != 3 {
				reply("501 AUTH <bundle> <sig>")
				continue
			}
			acct, err := s.authenticate(fields[1], fields[2], nonce)
			if err != nil {
				reply("530 %v", err)
				continue
			}
			account = acct
			reply("230 mapped to %s", acct)
		case "SUBMIT":
			if len(fields) != 3 {
				reply("501 SUBMIT <executable> <duration-ms>")
				continue
			}
			ms, err := strconv.ParseInt(fields[2], 10, 64)
			if err != nil || ms < 0 || ms > int64(time.Hour/time.Millisecond) {
				reply("501 bad duration")
				continue
			}
			id := s.submit(account, time.Duration(ms)*time.Millisecond)
			reply("201 %s", id)
		case "POLL":
			if len(fields) != 2 {
				reply("501 POLL <job-id>")
				continue
			}
			st, ok := s.poll(fields[1], account)
			if !ok {
				reply("550 no such job")
				continue
			}
			reply("202 %s", st)
		case "CANCEL":
			if len(fields) != 2 {
				reply("501 CANCEL <job-id>")
				continue
			}
			if !s.cancel(fields[1], account) {
				reply("550 no such job")
				continue
			}
			reply("203 cancelled")
		default:
			reply("500 unknown command")
		}
	}
}

func (s *Server) authenticate(bundleB64, sigB64 string, nonce []byte) (string, error) {
	raw, err := base64.StdEncoding.DecodeString(bundleB64)
	if err != nil {
		return "", fmt.Errorf("bad bundle encoding")
	}
	sig, err := base64.StdEncoding.DecodeString(sigB64)
	if err != nil {
		return "", fmt.Errorf("bad signature encoding")
	}
	var bundle wireBundle
	if err := gob.NewDecoder(bytes.NewReader(raw)).Decode(&bundle); err != nil || bundle.Leaf == nil {
		return "", fmt.Errorf("bad bundle")
	}
	if err := gsi.VerifyChallenge(bundle.Leaf, nonce, sig); err != nil {
		return "", fmt.Errorf("challenge failed")
	}
	identity, err := s.Trust.Verify(bundle.Leaf, bundle.Chain, s.Now())
	if err != nil {
		return "", fmt.Errorf("certificate rejected: %v", err)
	}
	acct, err := s.Gridmap.Lookup(identity)
	if err != nil {
		return "", fmt.Errorf("not authorized: %s", identity)
	}
	return acct, nil
}

func (s *Server) submit(account string, d time.Duration) string {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.nextID++
	j := &serverJob{
		id:       fmt.Sprintf("gram-%d", s.nextID),
		state:    StatePending,
		account:  account,
		duration: d,
	}
	s.jobs[j.id] = j
	s.pending = append(s.pending, j)
	s.pump()
	return j.id
}

// pump starts pending jobs while slots are free. Caller holds s.mu.
func (s *Server) pump() {
	for s.active < s.Slots && len(s.pending) > 0 {
		j := s.pending[0]
		s.pending = s.pending[1:]
		if j.state != StatePending {
			continue
		}
		j.state = StateActive
		s.active++
		job := j
		j.timer = time.AfterFunc(job.duration, func() {
			s.mu.Lock()
			defer s.mu.Unlock()
			if job.state == StateActive {
				job.state = StateDone
				s.active--
				s.pump()
			}
		})
	}
}

// poll returns the state of account's job id; false when there is no
// such job or another account owns it.
func (s *Server) poll(id, account string) (JobState, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.jobs[id]
	if !ok || j.account != account {
		return StateUnsubmitted, false
	}
	return j.state, true
}

// cancel stops account's job id; false when there is no such job or
// another account owns it.
func (s *Server) cancel(id, account string) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.jobs[id]
	if !ok || j.account != account {
		return false
	}
	switch j.state {
	case StateActive:
		if j.timer != nil {
			j.timer.Stop()
		}
		j.state = StateFailed
		s.active--
		s.pump()
	case StatePending:
		j.state = StateFailed
	}
	return true
}
