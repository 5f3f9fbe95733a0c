package gridftp

import (
	"bufio"
	"bytes"
	"errors"
	"net"
	"runtime"
	"strconv"
	"strings"
	"testing"
)

// pipeClient returns a client whose server, after reading one command
// line, writes reply and hangs up.
func pipeClient(t *testing.T, reply []byte) *Client {
	t.Helper()
	cconn, sconn := net.Pipe()
	done := make(chan struct{})
	go func() {
		defer close(done)
		defer sconn.Close()
		if _, err := bufio.NewReader(sconn).ReadString('\n'); err != nil {
			return
		}
		sconn.Write(reply)
	}()
	t.Cleanup(func() {
		cconn.Close()
		<-done
	})
	return newClient(cconn)
}

func TestGetRefusesNegativeSize(t *testing.T) {
	c := pipeClient(t, []byte("150 -1 bytes follow\r\n"))
	if data, err := c.Get("/f"); err == nil {
		t.Fatalf("Get accepted a negative size, returned %d bytes", len(data))
	}
}

// TestGetAllocatesOnlyArrivingBytes: a reply naming 64 MiB followed by 10
// bytes and EOF is an error, and the client allocates for the bytes that
// came, not for the size the reply named.
func TestGetAllocatesOnlyArrivingBytes(t *testing.T) {
	c := pipeClient(t, []byte("150 67108864 bytes follow\r\n0123456789"))
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err := c.Get("/f")
	runtime.ReadMemStats(&after)
	if err == nil {
		t.Fatal("Get of a truncated body returned no error")
	}
	if grew := after.TotalAlloc - before.TotalAlloc; grew >= 1<<20 {
		t.Fatalf("Get allocated %d bytes for a 10-byte body", grew)
	}
}

// TestStorRefusedBeforeData: a STOR the store cannot hold is answered 552
// before the client sends a byte, and the session goes on.
func TestStorRefusedBeforeData(t *testing.T) {
	rig := newRig(t) // a 1 MiB store
	c, err := Dial(rig.addr, rig.proxy)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	reply, err := c.command("STOR /big %d", 2<<20)
	if !errors.Is(err, ErrServer) || !strings.Contains(err.Error(), "552") {
		c.conn.Close() // the server waits for the 2 MiB a 150 asked for
		t.Fatalf("STOR of 2 MiB into a 1 MiB store: reply %q, err %v; want 552", reply, err)
	}
	if err := c.Put("/fits", make([]byte, 1024)); err != nil {
		t.Fatal(err)
	}
}

// FuzzClientReplies feeds arbitrary server bytes to the client after its
// SIZE and RETR commands. Nothing may panic, and a Get that succeeds
// returns exactly the bytes its reply named.
func FuzzClientReplies(f *testing.F) {
	for _, seed := range []string{
		"150 -1 bytes follow\r\n",
		"150 67108864 bytes follow\r\nabc",
		"213 12\r\n",
		"550 no such file\r\n",
		"1\r\n",
		"150 3 bytes follow\r\nabc",
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, reply []byte) {
		pipeClient(t, reply).Size("/f")
		data, err := pipeClient(t, reply).Get("/f")
		if err != nil {
			return
		}
		line, _, _ := bytes.Cut(reply, []byte("\n"))
		fields := strings.Fields(string(line))
		if len(fields) < 2 {
			t.Fatalf("Get accepted reply %q", line)
		}
		named, err := strconv.ParseInt(fields[1], 10, 64)
		if err != nil || int64(len(data)) != named {
			t.Fatalf("Get returned %d bytes for reply %q", len(data), line)
		}
	})
}
