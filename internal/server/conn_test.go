package server

// Tests of the connection model: one reader, handler goroutines started on
// demand and reused, each writing its own response; the byte limit charged
// per message; and requests from a newer peer.

import (
	"context"
	"fmt"
	"io"
	"net"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"nnexus/internal/wire"
)

// goroutineID names the calling goroutine, from the header of its stack.
func goroutineID() string {
	var buf [64]byte
	fields := strings.Fields(string(buf[:runtime.Stack(buf[:], false)]))
	return fields[1]
}

// TestMixedVersionRequestIsServed: an element and an attribute this build
// does not know, as a newer client would send, are skipped; the request is
// served, not rejected.
func TestMixedVersionRequestIsServed(t *testing.T) {
	_, addr := newTestServer(t)
	rc := dialRaw(t, addr)
	_, err := io.WriteString(rc.conn, `<?xml version="1.0"?>`+"\n"+
		`<request seq="7" method="linkText" trace="4bf92f35" xmlns:v2="urn:nnexus:2">`+
		`<v2:deadline unit="ms">250<hint/></v2:deadline><text>no concepts &amp; no links</text>`+
		`<class>05C10</class><!-- tail --></request>`+"\n")
	if err != nil {
		t.Fatal(err)
	}
	var resp wire.Response
	if err := rc.dec.Decode(&resp); err != nil {
		t.Fatal(err)
	}
	if !resp.IsOK() || resp.Seq != 7 || resp.Linked == nil || resp.Linked.Output != "no concepts & no links" {
		t.Fatalf("answered %+v (linked %+v)", resp, resp.Linked)
	}
}

// TestStopAndWaitReusesOneHandler: 10,000 stop-and-wait calls on one
// connection run on the same handler goroutine — none is started per
// request — and leave the process with the goroutines it had.
func TestStopAndWaitReusesOneHandler(t *testing.T) {
	srv, addr := newTestServer(t)
	var mu sync.Mutex
	handlers := make(map[string]int)
	srv.testHook = func(*wire.Request) {
		id := goroutineID()
		mu.Lock()
		handlers[id]++
		mu.Unlock()
	}
	rc := dialRaw(t, addr)
	rc.call(t, &wire.Request{Seq: 1, Method: wire.MethodPing}) // connection and first handler are up
	before := runtime.NumGoroutine()
	const calls = 10000
	for seq := int64(2); seq < 2+calls; seq++ {
		resp := rc.call(t, &wire.Request{Seq: seq, Method: wire.MethodLinkText, Text: "a planar graph is a graph"})
		if !resp.IsOK() || resp.Seq != seq {
			t.Fatalf("call %d answered %+v", seq, resp)
		}
	}
	if after := runtime.NumGoroutine(); after > before+2 {
		t.Errorf("goroutines: %d before, %d after %d calls", before, after, calls)
	}
	mu.Lock()
	defer mu.Unlock()
	if len(handlers) != 1 {
		t.Errorf("%d calls ran on %d handler goroutines, want 1: %v", calls+1, len(handlers), handlers)
	}
}

// TestLongPollDoesNotDelayPipelinedPing: a replSubscribe that long-polls
// holds its handler, not the connection; the ping behind it is answered
// while it waits.
func TestLongPollDoesNotDelayPipelinedPing(t *testing.T) {
	_, addr, pst := newPrimaryServer(t)
	if err := pst.Put("t", "k1", []byte("v1")); err != nil {
		t.Fatal(err)
	}
	rc := dialRaw(t, addr)
	start := time.Now()
	for _, req := range []*wire.Request{
		{Seq: 1, Method: wire.MethodReplSubscribe, Offset: 2, Epoch: pst.ReplicationEpoch(), MaxRecords: 64, WaitMillis: 1500},
		{Seq: 2, Method: wire.MethodPing},
	} {
		if err := rc.enc.Encode(req); err != nil {
			t.Fatal(err)
		}
	}
	var first, second wire.Response
	if err := rc.dec.Decode(&first); err != nil {
		t.Fatal(err)
	}
	if first.Seq != 2 || !first.IsOK() || time.Since(start) > time.Second {
		t.Fatalf("first answer after %v: %+v, want the ping at once", time.Since(start), first)
	}
	if err := rc.dec.Decode(&second); err != nil {
		t.Fatal(err)
	}
	if second.Seq != 1 || !second.IsOK() || second.Repl == nil || time.Since(start) < time.Second {
		t.Fatalf("second answer after %v: %+v, want the caught-up subscribe at its deadline", time.Since(start), second)
	}
}

// fullWindow puts a full default window of pings in flight on one
// connection, each blocked in its handler until release[seq] is closed.
func fullWindow(t *testing.T, srv *Server, addr string) (rc *rawConn, release map[int64]chan struct{}) {
	t.Helper()
	release = make(map[int64]chan struct{})
	for seq := int64(1); seq <= DefaultMaxPipeline; seq++ {
		release[seq] = make(chan struct{})
	}
	var started sync.WaitGroup
	started.Add(DefaultMaxPipeline)
	srv.testHook = func(req *wire.Request) {
		if ch := release[req.Seq]; ch != nil {
			started.Done()
			<-ch
		}
	}
	rc = dialRaw(t, addr)
	for seq := int64(1); seq <= DefaultMaxPipeline; seq++ {
		if err := rc.enc.Encode(&wire.Request{Seq: seq, Method: wire.MethodPing}); err != nil {
			t.Fatal(err)
		}
	}
	started.Wait()
	return rc, release
}

// TestWindowCompletesOutOfOrder: with a window of 32 requests executing at
// once, responses leave in the order the handlers finish — here the reverse
// of the order the requests arrived in.
func TestWindowCompletesOutOfOrder(t *testing.T) {
	srv, addr := newTestServer(t)
	rc, release := fullWindow(t, srv, addr)
	for seq := int64(DefaultMaxPipeline); seq >= 1; seq-- {
		close(release[seq])
		var resp wire.Response
		if err := rc.dec.Decode(&resp); err != nil {
			t.Fatal(err)
		}
		if resp.Seq != seq || !resp.IsOK() {
			t.Fatalf("released %d, answered %+v", seq, resp)
		}
	}
}

// TestShutdownFlushesFullWindow: a drain that finds a full window in flight
// lets every one of its requests finish and flush, then ends the connection
// cleanly.
func TestShutdownFlushesFullWindow(t *testing.T) {
	srv, addr := newTestServer(t)
	rc, release := fullWindow(t, srv, addr)
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	done := make(chan error, 1)
	go func() { done <- srv.Shutdown(ctx) }()
	for !srv.Draining() {
		time.Sleep(time.Millisecond)
	}
	for _, ch := range release {
		close(ch)
	}
	seen := make(map[int64]bool)
	for i := 0; i < DefaultMaxPipeline; i++ {
		var resp wire.Response
		if err := rc.dec.Decode(&resp); err != nil {
			t.Fatalf("response %d of the draining window: %v", i, err)
		}
		if !resp.IsOK() || seen[resp.Seq] {
			t.Fatalf("bad or duplicate response: %+v", resp)
		}
		seen[resp.Seq] = true
	}
	if err := <-done; err != nil {
		t.Fatalf("drain: %v", err)
	}
	if err := rc.dec.Decode(new(wire.Response)); err != io.EOF {
		t.Errorf("after the drain: %v, want EOF", err)
	}
}

// TestMaxRequestBytesIsPerMessage: the limit is charged on the message, not
// on what the reader happened to pull with it. A request of exactly the
// limit passes when it arrives in one segment behind another request; one
// byte more closes the connection; and neither depends on how the bytes are
// cut into segments.
func TestMaxRequestBytesIsPerMessage(t *testing.T) {
	const limit = 700
	_, addr := newTestServer(t, WithMaxRequestBytes(limit))
	message := func(size int) []byte {
		req := &wire.Request{Seq: 2, Method: wire.MethodLinkText}
		frame, _ := wire.Append(nil, req)
		req.Text = strings.Repeat("x", size-(len(frame)-1)-len("<text></text>"))
		frame, _ = wire.Append(nil, req)
		if len(frame)-1 != size {
			t.Fatalf("built a message of %d bytes, want %d", len(frame)-1, size)
		}
		return frame
	}
	ping, _ := wire.Append(nil, &wire.Request{Seq: 1, Method: wire.MethodPing})
	for _, segment := range []int{0, 1, 97} { // 0: one write
		for _, size := range []int{limit, limit + 1} {
			t.Run(fmt.Sprintf("size=%d/segment=%d", size, segment), func(t *testing.T) {
				rc := dialRaw(t, addr)
				rc.conn.(*net.TCPConn).SetNoDelay(true)
				stream := append(append([]byte(nil), ping...), message(size)...)
				stream = append(stream, ping...)
				for len(stream) > 0 {
					n := len(stream)
					if segment > 0 {
						n = min(n, segment)
					}
					if _, err := rc.conn.Write(stream[:n]); err != nil {
						break // the server has hung up already
					}
					stream = stream[n:]
				}
				rc.conn.SetReadDeadline(time.Now().Add(5 * time.Second))
				// The window answers in any order; over the limit the
				// connection ends with the oversized request unanswered.
				answered := make(map[int64]int)
				var err error
				for i := 0; i < 3 && err == nil; i++ {
					var resp wire.Response
					if err = rc.dec.Decode(&resp); err == nil {
						if !resp.IsOK() {
							t.Fatalf("answered %+v", resp)
						}
						answered[resp.Seq]++
					}
				}
				if size <= limit && (err != nil || answered[1] != 2 || answered[2] != 1) {
					t.Fatalf("at the limit: answered %v, then %v", answered, err)
				}
				if size > limit && (err == nil || answered[2] != 0) {
					t.Fatalf("%d bytes over a limit of %d: answered %v, then %v", size, limit, answered, err)
				}
			})
		}
	}
}
