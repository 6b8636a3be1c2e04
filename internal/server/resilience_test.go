package server

import (
	"context"
	"errors"
	"io"
	"net"
	"os"
	"strings"
	"sync"
	"testing"
	"time"

	"nnexus/internal/classification"
	"nnexus/internal/core"
	"nnexus/internal/corpus"
	"nnexus/internal/service"
	"nnexus/internal/wire"
)

// newTestServer boots an engine-backed server with the given options and
// returns it with its bound address.
func newTestServer(t *testing.T, opts ...Option) (*Server, string) {
	t.Helper()
	return newBoundedServer(t, 0, opts...)
}

// newBoundedServer is newTestServer for a node that runs at most maxActive
// requests at once (the service's MaxActive; 0 = unbounded).
func newBoundedServer(t *testing.T, maxActive int, opts ...Option) (*Server, string) {
	t.Helper()
	engine, err := core.NewEngine(core.Config{Scheme: classification.SampleMSC(10)})
	if err != nil {
		t.Fatal(err)
	}
	svc := service.New(engine)
	svc.MaxActive = maxActive
	srv := New(svc, nil, opts...)
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	return srv, addr
}

// rawConn is a bare protocol connection without any client-side retry or
// reconnect machinery, so tests observe exactly what the server sent.
type rawConn struct {
	conn net.Conn
	enc  *wire.Encoder
	dec  *wire.Decoder
}

func dialRaw(t *testing.T, addr string) *rawConn {
	t.Helper()
	conn, err := net.DialTimeout("tcp", addr, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { conn.Close() })
	return &rawConn{conn: conn, enc: wire.NewEncoder(conn), dec: wire.NewDecoder(conn)}
}

func (r *rawConn) call(t *testing.T, req *wire.Request) *wire.Response {
	t.Helper()
	if err := r.enc.Encode(req); err != nil {
		t.Fatalf("raw encode: %v", err)
	}
	var resp wire.Response
	if err := r.dec.Decode(&resp); err != nil {
		t.Fatalf("raw decode: %v", err)
	}
	return &resp
}

func TestPanicRecovered(t *testing.T) {
	srv, addr := newTestServer(t)
	srv.testHook = func(req *wire.Request) {
		if req.Method == wire.MethodLinkText {
			panic("poisoned request")
		}
	}
	rc := dialRaw(t, addr)
	resp := rc.call(t, &wire.Request{Method: wire.MethodLinkText, Text: "x", Seq: 1})
	if resp.IsOK() || resp.Code != wire.CodeInternal {
		t.Fatalf("panicking handler answered %+v, want internal error", resp)
	}
	// The process — and even the same connection — keeps serving.
	if resp := rc.call(t, &wire.Request{Method: wire.MethodPing, Seq: 2}); !resp.IsOK() {
		t.Fatalf("ping after panic: %+v", resp)
	}
	if got := srv.tel.panics.Value(); got != 1 {
		t.Errorf("nnexus_panics_recovered_total = %d, want 1", got)
	}
}

func TestLoadSheddingOverActiveBound(t *testing.T) {
	srv, addr := newBoundedServer(t, 1)
	release := make(chan struct{})
	started := make(chan struct{}, 8)
	srv.testHook = func(req *wire.Request) {
		if req.Method == wire.MethodLinkText {
			started <- struct{}{}
			<-release
		}
	}
	defer close(release)

	busy := dialRaw(t, addr)
	done := make(chan *wire.Response, 1)
	go func() {
		var resp wire.Response
		busy.enc.Encode(&wire.Request{Method: wire.MethodLinkText, Text: "x", Seq: 1})
		if err := busy.dec.Decode(&resp); err != nil {
			done <- nil
			return
		}
		done <- &resp
	}()
	<-started // the one allowed slot is now occupied

	// A second connection's request is shed with a typed error, fast.
	other := dialRaw(t, addr)
	resp := other.call(t, &wire.Request{Method: wire.MethodStats, Seq: 1})
	if resp.IsOK() || resp.Code != wire.CodeOverloaded {
		t.Fatalf("over-bound request answered %+v, want overloaded", resp)
	}
	if got := srv.tel.shed.Value(); got != 1 {
		t.Errorf("nnexus_requests_shed_total = %d, want 1", got)
	}

	// Releasing the slot restores service for both connections.
	release <- struct{}{}
	if resp := <-done; resp == nil || !resp.IsOK() {
		t.Fatalf("held request answered %+v, want ok", resp)
	}
	if resp := other.call(t, &wire.Request{Method: wire.MethodStats, Seq: 2}); !resp.IsOK() {
		t.Fatalf("stats after release: %+v", resp)
	}
}

func TestConnCapRejectsExcessConnections(t *testing.T) {
	srv, addr := newTestServer(t, WithMaxConns(1))
	keeper := dialRaw(t, addr)
	if resp := keeper.call(t, &wire.Request{Method: wire.MethodPing, Seq: 1}); !resp.IsOK() {
		t.Fatalf("first conn ping: %+v", resp)
	}
	// The second connection is accepted and immediately closed.
	excess, err := net.DialTimeout("tcp", addr, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer excess.Close()
	excess.SetReadDeadline(time.Now().Add(2 * time.Second))
	if _, err := excess.Read(make([]byte, 1)); err == nil {
		t.Fatal("over-cap connection was served")
	}
	waitFor(t, time.Second, func() bool { return srv.tel.connsRejected.Value() == 1 })
	// The capped slot frees when its connection closes.
	keeper.conn.Close()
	waitFor(t, time.Second, func() bool {
		srv.mu.Lock()
		defer srv.mu.Unlock()
		return len(srv.conns) == 0
	})
	replacement := dialRaw(t, addr)
	if resp := replacement.call(t, &wire.Request{Method: wire.MethodPing, Seq: 1}); !resp.IsOK() {
		t.Fatalf("replacement conn ping: %+v", resp)
	}
}

func TestWriteDeadlineDropsStalledReader(t *testing.T) {
	srv, addr := newTestServer(t, WithWriteTimeout(150*time.Millisecond))
	// Store an entry whose body far exceeds the socket buffers, so
	// writing the getEntry response must block on the peer reading.
	seeder := dialRaw(t, addr)
	big := strings.Repeat("all work and no play makes a stalled reader ", 1<<18) // ~11 MB
	if resp := seeder.call(t, &wire.Request{Method: wire.MethodAddDomain, Seq: 1,
		Domain: &corpus.Domain{Name: "d", URLTemplate: "http://d/{id}"}}); !resp.IsOK() {
		t.Fatalf("addDomain: %+v", resp)
	}
	resp := seeder.call(t, &wire.Request{Method: wire.MethodAddEntry, Seq: 2,
		Entry: &corpus.Entry{Domain: "d", Title: "big", Body: big}})
	if !resp.IsOK() {
		t.Fatalf("addEntry: %+v", resp)
	}
	id := resp.Object

	staller := dialRaw(t, addr)
	if err := staller.enc.Encode(&wire.Request{Method: wire.MethodGetEntry, Object: id, Seq: 1}); err != nil {
		t.Fatal(err)
	}
	// Never read the response. Without a write deadline the handler
	// goroutine would block forever in enc.Encode; with it, the server
	// drops the stalled connection, leaving only the seeder's.
	waitFor(t, 5*time.Second, func() bool {
		srv.mu.Lock()
		defer srv.mu.Unlock()
		return len(srv.conns) == 1
	})
	// The server remains healthy for other clients.
	if resp := seeder.call(t, &wire.Request{Method: wire.MethodPing, Seq: 3}); !resp.IsOK() {
		t.Fatalf("ping after stalled reader dropped: %+v", resp)
	}
}

func TestShutdownDrainsInFlightRequests(t *testing.T) {
	srv, addr := newTestServer(t)
	started := make(chan struct{}, 1)
	release := make(chan struct{})
	srv.testHook = func(req *wire.Request) {
		if req.Method == wire.MethodLinkText {
			started <- struct{}{}
			<-release
		}
	}
	rc := dialRaw(t, addr)
	respCh := make(chan *wire.Response, 1)
	go func() {
		var resp wire.Response
		rc.enc.Encode(&wire.Request{Method: wire.MethodLinkText, Text: "x", Seq: 1})
		if err := rc.dec.Decode(&resp); err != nil {
			respCh <- nil
			return
		}
		respCh <- &resp
	}()
	<-started

	shutdownErr := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		shutdownErr <- srv.Shutdown(ctx)
	}()
	// Drain must not cut the in-flight request: give Shutdown a moment
	// to begin, then let the handler finish.
	waitFor(t, time.Second, func() bool { return srv.Draining() })
	if _, err := net.DialTimeout("tcp", addr, 200*time.Millisecond); err == nil {
		// Accept loop may race one last conn; but it must not be served.
		// A served conn would answer a ping; a drained one is closed.
		c2 := dialRaw(t, addr)
		c2.conn.SetReadDeadline(time.Now().Add(time.Second))
		c2.enc.Encode(&wire.Request{Method: wire.MethodPing, Seq: 1})
		var resp wire.Response
		if err := c2.dec.Decode(&resp); err == nil {
			t.Error("draining server served a new connection")
		}
	}
	close(release)

	if resp := <-respCh; resp == nil || !resp.IsOK() {
		t.Fatalf("in-flight request during drain answered %+v, want ok", resp)
	}
	if err := <-shutdownErr; err != nil {
		t.Fatalf("graceful shutdown: %v", err)
	}
	if got := srv.tel.drainDuration.Count(); got != 1 {
		t.Errorf("drain duration observations = %d, want 1", got)
	}
}

// TestShutdownDeadlineForceCloses: a handler that outlasts the drain's
// deadline has its connection closed at the deadline, and Shutdown returns
// DeadlineExceeded once that handler returned, so no request outlives the
// drain.
func TestShutdownDeadlineForceCloses(t *testing.T) {
	srv, addr := newTestServer(t)
	started, release := holdLinkText(t, srv)
	rc := dialRaw(t, addr)
	if err := rc.enc.Encode(&wire.Request{Method: wire.MethodLinkText, Text: "x", Seq: 1}); err != nil {
		t.Fatal(err)
	}
	<-started
	ctx, cancel := context.WithTimeout(context.Background(), 80*time.Millisecond)
	defer cancel()
	start := time.Now()
	shutdown := make(chan error, 1)
	go func() { shutdown <- srv.Shutdown(ctx) }()
	// The client sees its connection end at the deadline, unanswered,
	// while the handler is still blocked.
	rc.conn.SetReadDeadline(time.Now().Add(3 * time.Second))
	if reply, err := io.ReadAll(rc.conn); len(reply) != 0 || errors.Is(err, os.ErrDeadlineExceeded) {
		t.Fatalf("past the drain deadline the connection read %q, %v; want it closed unanswered", reply, err)
	}
	if d := time.Since(start); d > 2*time.Second {
		t.Errorf("force close took %v", d)
	}
	select {
	case err := <-shutdown:
		t.Fatalf("Shutdown returned %v while a handler still ran", err)
	case <-time.After(50 * time.Millisecond):
	}
	release()
	if err := <-shutdown; !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("shutdown past deadline: %v, want DeadlineExceeded", err)
	}
}

func TestShutdownClosesIdleConnsImmediately(t *testing.T) {
	srv, addr := newTestServer(t)
	idle := dialRaw(t, addr)
	if resp := idle.call(t, &wire.Request{Method: wire.MethodPing, Seq: 1}); !resp.IsOK() {
		t.Fatalf("ping: %+v", resp)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	start := time.Now()
	if err := srv.Shutdown(ctx); err != nil {
		t.Fatalf("shutdown with only idle conns: %v", err)
	}
	if d := time.Since(start); d > 2*time.Second {
		t.Errorf("idle drain took %v, want immediate", d)
	}
	// Drain rather than read once: the ping response's trailing newline may
	// still be unread. The copy ends at the close (EOF or a reset), or at the
	// deadline when the connection is still open.
	idle.conn.SetReadDeadline(time.Now().Add(time.Second))
	if _, err := io.Copy(io.Discard, idle.conn); errors.Is(err, os.ErrDeadlineExceeded) {
		t.Error("idle connection still open after shutdown")
	}
}

// waitFor polls cond until it holds or the deadline passes.
func waitFor(t *testing.T, d time.Duration, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(d)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatal("condition not reached in time")
}

// Guard against regressions in concurrent drain bookkeeping: many conns,
// some mid-request, shutdown under race detector.
func TestShutdownManyConnsUnderLoad(t *testing.T) {
	srv, addr := newTestServer(t)
	var wg sync.WaitGroup
	results := make(chan bool, 64)
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			conn, err := net.DialTimeout("tcp", addr, time.Second)
			if err != nil {
				return
			}
			defer conn.Close()
			enc, dec := wire.NewEncoder(conn), wire.NewDecoder(conn)
			for seq := int64(1); seq <= 4; seq++ {
				if err := enc.Encode(&wire.Request{Method: wire.MethodLinkText, Text: "graph theory", Seq: seq}); err != nil {
					return
				}
				var resp wire.Response
				if err := dec.Decode(&resp); err != nil {
					return
				}
				results <- resp.IsOK()
			}
		}()
	}
	time.Sleep(10 * time.Millisecond)
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		t.Fatalf("shutdown under load: %v", err)
	}
	wg.Wait()
	close(results)
	// Every response that did arrive was a success: drain never answers
	// with garbage, it either completes a request or closes the conn
	// between requests.
	for ok := range results {
		if !ok {
			t.Fatal("request answered with error during drain")
		}
	}
}
