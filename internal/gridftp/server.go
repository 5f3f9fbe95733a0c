package gridftp

import (
	"bufio"
	"bytes"
	"crypto/rand"
	"encoding/base64"
	"encoding/gob"
	"fmt"
	"io"
	"net"
	"strconv"
	"strings"
	"sync"
	"time"

	"grid3/internal/gsi"
)

// This file implements a real TCP file server speaking a compact
// GridFTP-like control protocol with GSI challenge-response authentication.
// The simulated Network above is used for calibrated scenario runs; this
// server is what the examples and integration tests drive end-to-end, the
// analogue of the Globus GridFTP server every Grid3 site ran (§5.1).
//
// Protocol (one text control channel; data flows inline, length-prefixed):
//
//	S: 220 grid3 gridftp ready nonce=<hex>
//	C: AUTH <base64(gob bundle)> <base64(sig over nonce)>
//	S: 230 mapped to <account>            | 530 <reason>
//	C: SIZE <path>                        → 213 <n> | 550 no such file
//	C: STOR <path> <n>                    → 150 send | 552 disk full
//	C: n raw bytes (after 150)            → 226 ok | 552 disk full
//	C: RETR <path>                        → 150 <n> + n raw bytes
//	C: DELE <path>                        → 250 ok | 550 no such file
//	C: QUIT                               → 221 bye

// certBundle is the gob wire form of a credential's public half.
type certBundle struct {
	Leaf  *gsi.Certificate
	Chain []*gsi.Certificate
}

// FileStore is the server's capacity-bounded in-memory file system.
type FileStore struct {
	mu       sync.Mutex
	capacity int64
	used     int64
	files    map[string][]byte
}

// NewFileStore creates a store with the given byte capacity.
func NewFileStore(capacity int64) *FileStore {
	return &FileStore{capacity: capacity, files: make(map[string][]byte)}
}

// Put stores a file, failing when capacity would be exceeded.
func (fs *FileStore) Put(name string, data []byte) error {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	if err := fs.room(name, int64(len(data))); err != nil {
		return err
	}
	fs.used += int64(len(data)) - int64(len(fs.files[name]))
	fs.files[name] = data
	return nil
}

// fits reports ErrDiskFull when size bytes stored under name would exceed
// the capacity.
func (fs *FileStore) fits(name string, size int64) error {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	return fs.room(name, size)
}

// room is fits for a caller holding fs.mu; an overwrite frees the old
// file's bytes.
func (fs *FileStore) room(name string, size int64) error {
	if over := fs.used - int64(len(fs.files[name])) + size - fs.capacity; over > 0 {
		return fmt.Errorf("%w: %d bytes over capacity", ErrDiskFull, over)
	}
	return nil
}

// Get returns a file's contents.
func (fs *FileStore) Get(name string) ([]byte, bool) {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	d, ok := fs.files[name]
	return d, ok
}

// Delete removes a file.
func (fs *FileStore) Delete(name string) bool {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	d, ok := fs.files[name]
	if !ok {
		return false
	}
	fs.used -= int64(len(d))
	delete(fs.files, name)
	return true
}

// Used returns stored bytes.
func (fs *FileStore) Used() int64 {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	return fs.used
}

// ErrDiskFull mirrors site.ErrDiskFull for the real server.
var ErrDiskFull = fmt.Errorf("gridftp: disk full")

// Server is a GSI-authenticated file server.
type Server struct {
	Store   *FileStore
	Trust   *gsi.TrustStore
	Gridmap *gsi.Gridmap
	Now     func() time.Time // credential validity check; defaults to time.Now
	// HostCred, when set, enables third-party transfers: on SENDTO the
	// server dials the destination server and authenticates as itself
	// (the globus-url-copy server-to-server mode). The host identity must
	// be authorized in the destination's grid-mapfile.
	HostCred *gsi.Credential

	listener net.Listener
	wg       sync.WaitGroup
	mu       sync.Mutex
	closed   bool
}

// NewServer creates a server over the given store, trust anchors, and
// authorization map.
func NewServer(store *FileStore, trust *gsi.TrustStore, gridmap *gsi.Gridmap) *Server {
	return &Server{Store: store, Trust: trust, Gridmap: gridmap, Now: time.Now}
}

// Serve starts accepting connections on a fresh localhost listener and
// returns its address.
func (s *Server) Serve() (string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	s.listener = ln
	s.wg.Add(1)
	go s.acceptLoop()
	return ln.Addr().String(), nil
}

func (s *Server) acceptLoop() {
	defer s.wg.Done()
	for {
		conn, err := s.listener.Accept()
		if err != nil {
			return
		}
		s.wg.Add(1)
		go func() {
			defer s.wg.Done()
			s.handle(conn)
		}()
	}
}

// Close stops the listener and waits for in-flight sessions.
func (s *Server) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
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
	if !reply("220 grid3 gridftp ready nonce=%x", nonce) {
		return
	}

	authed := false
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
				reply("530 %s", err)
				continue
			}
			authed = true
			reply("230 mapped to %s", acct)
		case "SIZE", "STOR", "RETR", "DELE":
			if !authed {
				reply("530 authenticate first")
				continue
			}
			if !s.fileCommand(cmd, fields, rw, reply) {
				return
			}
		case "SENDTO":
			// Third-party transfer: push a local file to another server.
			if !authed {
				reply("530 authenticate first")
				continue
			}
			if len(fields) != 3 {
				reply("501 SENDTO <path> <host:port>")
				continue
			}
			if err := s.sendTo(fields[1], fields[2]); err != nil {
				reply("552 %v", err)
				continue
			}
			reply("226 relayed %s to %s", fields[1], fields[2])
		default:
			reply("500 unknown command %s", cmd)
		}
	}
}

func (s *Server) fileCommand(cmd string, fields []string, rw *bufio.ReadWriter, reply func(string, ...any) bool) bool {
	switch cmd {
	case "SIZE":
		if len(fields) != 2 {
			return reply("501 SIZE <path>")
		}
		data, ok := s.Store.Get(fields[1])
		if !ok {
			return reply("550 no such file")
		}
		return reply("213 %d", len(data))
	case "DELE":
		if len(fields) != 2 {
			return reply("501 DELE <path>")
		}
		if !s.Store.Delete(fields[1]) {
			return reply("550 no such file")
		}
		return reply("250 ok")
	case "STOR":
		if len(fields) != 3 {
			return reply("501 STOR <path> <size>")
		}
		size, err := strconv.ParseInt(fields[2], 10, 64)
		if err != nil || size < 0 || size > maxTransfer {
			return reply("501 bad size")
		}
		// A file the store cannot hold is refused before its first byte
		// is sent; the body is then read as it arrives, not allocated
		// whole from the size the client named.
		if err := s.Store.fits(fields[1], size); err != nil {
			return reply("552 %s", err)
		}
		if !reply("150 send %d bytes", size) {
			return false
		}
		var data bytes.Buffer
		if _, err := io.CopyN(&data, rw, size); err != nil {
			return false
		}
		if err := s.Store.Put(fields[1], data.Bytes()); err != nil {
			return reply("552 %s", err)
		}
		return reply("226 stored %s", fields[1])
	case "RETR":
		if len(fields) != 2 {
			return reply("501 RETR <path>")
		}
		data, ok := s.Store.Get(fields[1])
		if !ok {
			return reply("550 no such file")
		}
		if !reply("150 %d bytes follow", len(data)) {
			return false
		}
		if _, err := rw.Write(data); err != nil {
			return false
		}
		return rw.Flush() == nil
	}
	return reply("500 bad file command")
}

// sendTo implements the server side of a third-party transfer.
func (s *Server) sendTo(path, addr string) error {
	if s.HostCred == nil {
		return fmt.Errorf("third-party transfers disabled (no host credential)")
	}
	data, ok := s.Store.Get(path)
	if !ok {
		return fmt.Errorf("no such file %s", path)
	}
	c, err := Dial(addr, s.HostCred)
	if err != nil {
		return fmt.Errorf("dialing destination: %v", err)
	}
	defer c.Close()
	return c.Put(path, data)
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
	var bundle certBundle
	if err := gob.NewDecoder(bytes.NewReader(raw)).Decode(&bundle); err != nil {
		return "", fmt.Errorf("bad bundle")
	}
	if bundle.Leaf == nil {
		return "", fmt.Errorf("missing certificate")
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
