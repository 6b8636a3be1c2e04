package faultinject

import (
	"errors"
	"io"
	"net"
	"os"
	"path/filepath"
	"testing"
	"time"
)

func pipePair(t *testing.T) (net.Conn, net.Conn) {
	t.Helper()
	a, b := net.Pipe()
	t.Cleanup(func() { a.Close(); b.Close() })
	return a, b
}

func TestConnPassThrough(t *testing.T) {
	a, b := pipePair(t)
	fc := WrapConn(a)
	go func() { b.Write([]byte("hello")) }()
	buf := make([]byte, 5)
	if _, err := io.ReadFull(fc, buf); err != nil {
		t.Fatal(err)
	}
	if string(buf) != "hello" {
		t.Fatalf("read %q", buf)
	}
}

func TestConnFailWriteClosesUnderlying(t *testing.T) {
	a, b := pipePair(t)
	fc := WrapConn(a, FailWriteAfter(1, nil), CloseOnFail())
	if _, err := fc.Write([]byte("x")); !errors.Is(err, ErrInjected) {
		t.Fatalf("write: %v, want ErrInjected", err)
	}
	// The peer observes the close.
	b.SetReadDeadline(time.Now().Add(time.Second))
	if _, err := b.Read(make([]byte, 1)); err == nil {
		t.Error("peer read succeeded after injected close")
	}
}

func TestConnLatency(t *testing.T) {
	a, b := pipePair(t)
	fc := WrapConn(a)
	fc.SetLatency(30 * time.Millisecond)
	go func() { b.Write([]byte("x")) }()
	start := time.Now()
	if _, err := fc.Read(make([]byte, 1)); err != nil {
		t.Fatal(err)
	}
	if d := time.Since(start); d < 30*time.Millisecond {
		t.Errorf("read returned after %v, want >= 30ms", d)
	}
}

func TestListenerWrapsAcceptedConns(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	fl := WrapListener(ln, FailWriteAfter(1, nil))
	defer fl.Close()
	var seen *Conn
	done := make(chan struct{})
	fl.OnAccept(func(c *Conn) { seen = c; close(done) })
	go func() {
		conn, err := fl.Accept()
		if err != nil {
			return
		}
		// Server-side write hits the injected fault immediately.
		if _, err := conn.Write([]byte("x")); !errors.Is(err, ErrInjected) {
			t.Errorf("accepted conn write: %v, want ErrInjected", err)
		}
		conn.Close()
	}()
	c, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	<-done
	if seen == nil {
		t.Fatal("OnAccept callback never saw the accepted conn")
	}
}

func TestFileFailSync(t *testing.T) {
	f, err := os.Create(filepath.Join(t.TempDir(), "f"))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	ff := WrapFile(f, FailSyncAfter(2, nil))
	if err := ff.Sync(); err != nil {
		t.Fatalf("first sync: %v", err)
	}
	if err := ff.Sync(); !errors.Is(err, ErrInjected) {
		t.Fatalf("second sync: %v, want ErrInjected", err)
	}
}

func TestFileFailWrite(t *testing.T) {
	f, err := os.Create(filepath.Join(t.TempDir(), "f"))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	ff := WrapFile(f, FailFileWriteAfter(1, nil))
	if _, err := ff.Write([]byte("x")); !errors.Is(err, ErrInjected) {
		t.Fatalf("write: %v, want ErrInjected", err)
	}
	st, err := ff.Stat()
	if err != nil {
		t.Fatal(err)
	}
	if st.Size() != 0 {
		t.Errorf("failed write reached disk: size=%d", st.Size())
	}
}

// TestConnSetLatency: latency can be injected and lifted on a live
// connection — the stall knob of the open-loop load harness.
func TestConnSetLatency(t *testing.T) {
	a, b := net.Pipe()
	defer a.Close()
	defer b.Close()
	c := WrapConn(a)
	go func() {
		buf := make([]byte, 1)
		for {
			if _, err := b.Read(buf); err != nil {
				return
			}
			if _, err := b.Write(buf); err != nil {
				return
			}
		}
	}()

	exchange := func() time.Duration {
		start := time.Now()
		if _, err := c.Write([]byte("x")); err != nil {
			t.Fatal(err)
		}
		if _, err := c.Read(make([]byte, 1)); err != nil {
			t.Fatal(err)
		}
		return time.Since(start)
	}

	if d := exchange(); d > 50*time.Millisecond {
		t.Fatalf("un-stalled exchange took %v", d)
	}
	c.SetLatency(60 * time.Millisecond)
	// Write and Read each pay the injected latency.
	if d := exchange(); d < 100*time.Millisecond {
		t.Fatalf("stalled exchange took %v, want ≥~120ms", d)
	}
	c.SetLatency(0)
	if d := exchange(); d > 50*time.Millisecond {
		t.Fatalf("exchange after lifting the stall took %v", d)
	}
}
