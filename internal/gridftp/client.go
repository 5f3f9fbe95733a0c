package gridftp

import (
	"bufio"
	"bytes"
	"encoding/base64"
	"encoding/gob"
	"errors"
	"fmt"
	"io"
	"net"
	"strconv"
	"strings"

	"grid3/internal/gsi"
)

// Client is a connection to a real GridFTP server, authenticated with a
// GSI credential (normally a short-lived proxy, as globus-url-copy used).
type Client struct {
	conn    net.Conn
	rw      *bufio.ReadWriter
	Account string // local account the server mapped us to
}

// ErrServer wraps non-2xx control-channel replies.
var ErrServer = errors.New("gridftp: server error")

// maxTransfer is the largest file either end of the control channel
// accepts (4 GiB).
const maxTransfer = 1 << 32

// Dial connects and authenticates.
func Dial(addr string, cred *gsi.Credential) (*Client, error) {
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, err
	}
	c := newClient(conn)
	greeting, err := c.readReply()
	if err != nil {
		conn.Close()
		return nil, err
	}
	nonce, err := parseNonce(greeting)
	if err != nil {
		conn.Close()
		return nil, err
	}
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(certBundle{Leaf: cred.Cert, Chain: cred.Chain}); err != nil {
		conn.Close()
		return nil, fmt.Errorf("gridftp: encoding credential: %w", err)
	}
	sig := gsi.SignChallenge(cred, nonce)
	reply, err := c.command("AUTH %s %s",
		base64.StdEncoding.EncodeToString(buf.Bytes()),
		base64.StdEncoding.EncodeToString(sig))
	if err != nil {
		conn.Close()
		return nil, err
	}
	if i := strings.LastIndex(reply, " "); i >= 0 {
		c.Account = reply[i+1:]
	}
	return c, nil
}

func newClient(conn net.Conn) *Client {
	return &Client{conn: conn, rw: bufio.NewReadWriter(bufio.NewReader(conn), bufio.NewWriter(conn))}
}

func parseNonce(greeting string) ([]byte, error) {
	const marker = "nonce="
	i := strings.Index(greeting, marker)
	if i < 0 {
		return nil, fmt.Errorf("gridftp: greeting missing nonce: %q", greeting)
	}
	hexStr := strings.TrimSpace(greeting[i+len(marker):])
	nonce := make([]byte, len(hexStr)/2)
	if _, err := fmt.Sscanf(hexStr, "%x", &nonce); err != nil {
		return nil, fmt.Errorf("gridftp: bad nonce: %w", err)
	}
	return nonce, nil
}

// readReply reads one control line, returning an error for 4xx/5xx codes.
func (c *Client) readReply() (string, error) {
	line, err := c.rw.ReadString('\n')
	if err != nil {
		return "", err
	}
	line = strings.TrimRight(line, "\r\n")
	if len(line) < 3 {
		return "", fmt.Errorf("gridftp: short reply %q", line)
	}
	if line[0] == '4' || line[0] == '5' {
		return "", fmt.Errorf("%w: %s", ErrServer, line)
	}
	return line, nil
}

func (c *Client) command(format string, args ...any) (string, error) {
	fmt.Fprintf(c.rw, format+"\r\n", args...)
	if err := c.rw.Flush(); err != nil {
		return "", err
	}
	return c.readReply()
}

// Size returns the remote file's size.
func (c *Client) Size(path string) (int64, error) {
	reply, err := c.command("SIZE %s", path)
	if err != nil {
		return 0, err
	}
	var code int
	var n int64
	if _, err := fmt.Sscanf(reply, "%d %d", &code, &n); err != nil {
		return 0, fmt.Errorf("gridftp: bad SIZE reply %q", reply)
	}
	return n, nil
}

// Put uploads data to path.
func (c *Client) Put(path string, data []byte) error {
	if _, err := c.command("STOR %s %d", path, len(data)); err != nil {
		return err
	}
	if _, err := c.rw.Write(data); err != nil {
		return err
	}
	if err := c.rw.Flush(); err != nil {
		return err
	}
	_, err := c.readReply()
	return err
}

// Get downloads path. The reply must be "150 <n> ..." with n at most
// maxTransfer, and the body is read into a buffer that grows as bytes
// arrive, so a reply naming more bytes than follow costs only those that
// came.
func (c *Client) Get(path string) ([]byte, error) {
	reply, err := c.command("RETR %s", path)
	if err != nil {
		return nil, err
	}
	fields := strings.Fields(reply)
	if len(fields) < 2 || fields[0] != "150" {
		return nil, fmt.Errorf("gridftp: bad RETR reply %q", reply)
	}
	size, err := strconv.ParseInt(fields[1], 10, 64)
	if err != nil || size < 0 || size > maxTransfer {
		return nil, fmt.Errorf("gridftp: bad RETR size in %q", reply)
	}
	var data bytes.Buffer
	if _, err := io.CopyN(&data, c.rw, size); err != nil {
		if err == io.EOF {
			err = io.ErrUnexpectedEOF
		}
		return nil, fmt.Errorf("gridftp: RETR %s: %d of %d bytes: %w", path, data.Len(), size, err)
	}
	return data.Bytes(), nil
}

// SendTo asks the server to push path to another server (third-party
// transfer); the server authenticates at the destination with its host
// credential.
func (c *Client) SendTo(path, addr string) error {
	_, err := c.command("SENDTO %s %s", path, addr)
	return err
}

// Delete removes a remote file.
func (c *Client) Delete(path string) error {
	_, err := c.command("DELE %s", path)
	return err
}

// Close sends QUIT and closes the connection.
func (c *Client) Close() error {
	c.command("QUIT")
	return c.conn.Close()
}
