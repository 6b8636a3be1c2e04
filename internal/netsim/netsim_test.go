package netsim

import (
	"bufio"
	"fmt"
	"net"
	"sync"
	"testing"
	"time"
)

// echoServer answers each newline-terminated line with the same line.
func echoServer(t *testing.T) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			go func() {
				defer conn.Close()
				sc := bufio.NewScanner(conn)
				for sc.Scan() {
					fmt.Fprintf(conn, "%s\n", sc.Text())
				}
			}()
		}
	}()
	return ln.Addr().String()
}

// TestProxyAddsRoundTripDelay: one request/response exchange through the
// proxy takes at least a full simulated round trip.
func TestProxyAddsRoundTripDelay(t *testing.T) {
	const delay = 25 * time.Millisecond
	l, err := NewLink(echoServer(t), delay)
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	conn, err := net.DialTimeout("tcp", l.Addr(), time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	r := bufio.NewReader(conn)
	start := time.Now()
	fmt.Fprintln(conn, "hello")
	line, err := r.ReadString('\n')
	if err != nil {
		t.Fatal(err)
	}
	if line != "hello\n" {
		t.Fatalf("echo = %q", line)
	}
	if rtt := time.Since(start); rtt < 2*delay {
		t.Errorf("round trip %v, want >= %v", rtt, 2*delay)
	}
}

// TestProxyOverlapsDelays: chunks written back to back must not queue
// behind each other's sleeps — ten pipelined exchanges should take roughly
// one round trip, nowhere near ten.
func TestProxyOverlapsDelays(t *testing.T) {
	const (
		delay = 25 * time.Millisecond
		calls = 10
	)
	l, err := NewLink(echoServer(t), delay)
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	conn, err := net.DialTimeout("tcp", l.Addr(), time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	start := time.Now()
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < calls; i++ {
			fmt.Fprintf(conn, "msg-%d\n", i)
			time.Sleep(time.Millisecond) // distinct chunks, still « delay apart
		}
	}()
	r := bufio.NewReader(conn)
	for i := 0; i < calls; i++ {
		line, err := r.ReadString('\n')
		if err != nil {
			t.Fatal(err)
		}
		if want := fmt.Sprintf("msg-%d\n", i); line != want {
			t.Fatalf("reply %d = %q, want %q", i, line, want)
		}
	}
	wg.Wait()
	elapsed := time.Since(start)
	if elapsed >= calls*delay { // half the serialized time, generous margin
		t.Errorf("%d pipelined exchanges took %v; delays serialized (stop-and-wait would be %v)",
			calls, elapsed, calls*2*delay)
	}
}

// TestProxyStopClosesConns: closing the link unblocks clients waiting on
// proxied reads.
func TestProxyStopClosesConns(t *testing.T) {
	l, err := NewLink(echoServer(t), 5*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	conn, err := net.DialTimeout("tcp", l.Addr(), time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	done := make(chan struct{})
	go func() {
		defer close(done)
		buf := make([]byte, 1)
		conn.Read(buf) // no request sent: blocks until the proxy dies
	}()
	l.Close()
	select {
	case <-done:
	case <-time.After(2 * time.Second):
		t.Fatal("read still blocked 2s after link close")
	}
}

// TestLinkDropConnections: every live proxied connection dies abruptly, the
// listener keeps accepting, and a reconnect works immediately.
func TestLinkDropConnections(t *testing.T) {
	l, err := NewLink(echoServer(t), time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	conn, err := net.DialTimeout("tcp", l.Addr(), time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	r := bufio.NewReader(conn)
	fmt.Fprintln(conn, "alive")
	if line, err := r.ReadString('\n'); err != nil || line != "alive\n" {
		t.Fatalf("echo = %q, %v", line, err)
	}

	if n := l.DropConnections(); n == 0 {
		t.Fatal("DropConnections dropped nothing with a live connection")
	}
	conn.SetReadDeadline(time.Now().Add(2 * time.Second))
	if _, err := r.ReadString('\n'); err == nil {
		t.Fatal("dropped connection still delivered data")
	}

	// The link itself survives: new connections proxy normally.
	conn2, err := net.DialTimeout("tcp", l.Addr(), time.Second)
	if err != nil {
		t.Fatalf("reconnect after drop: %v", err)
	}
	defer conn2.Close()
	r2 := bufio.NewReader(conn2)
	fmt.Fprintln(conn2, "reborn")
	if line, err := r2.ReadString('\n'); err != nil || line != "reborn\n" {
		t.Fatalf("post-drop echo = %q, %v", line, err)
	}
}

// TestLinkCloseReleasesPartitionedTraffic: closing a link with a blocked
// gate must not leak the pump goroutines or hang — stalled writers are
// released by the close.
func TestLinkCloseReleasesPartitionedTraffic(t *testing.T) {
	l, err := NewLink(echoServer(t), time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	conn, err := net.DialTimeout("tcp", l.Addr(), time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	l.Partition(true)
	fmt.Fprintln(conn, "doomed")
	time.Sleep(20 * time.Millisecond) // let the chunk reach the blocked gate

	done := make(chan struct{})
	go func() {
		defer close(done)
		l.Close()
	}()
	select {
	case <-done:
	case <-time.After(2 * time.Second):
		t.Fatal("Close hung on a partitioned link")
	}
}

// TestLinkStall: a stalled link delays traffic for the stall window and
// then flows again on its own, preserving the stream.
func TestLinkStall(t *testing.T) {
	const stall = 120 * time.Millisecond
	l, err := NewLink(echoServer(t), 0)
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	conn, err := net.DialTimeout("tcp", l.Addr(), time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	r := bufio.NewReader(conn)

	exchange := func(msg string) time.Duration {
		start := time.Now()
		fmt.Fprintln(conn, msg)
		line, err := r.ReadString('\n')
		if err != nil {
			t.Fatal(err)
		}
		if line != msg+"\n" {
			t.Fatalf("echo = %q, want %q", line, msg+"\n")
		}
		return time.Since(start)
	}

	exchange("warm") // establish the proxied path
	l.Stall(stall)
	if got := exchange("stalled"); got < stall*8/10 {
		t.Fatalf("exchange during stall took %v, want ≥~%v", got, stall)
	}
	if got := exchange("healed"); got > stall/2 {
		t.Fatalf("exchange after heal took %v, want fast", got)
	}
}
