package server

// Tests of the node's one in-flight bound (the service's MaxActive): the
// socket and the HTTP API take their slots from one counter, control traffic
// takes none, and every slot taken is given back, panic or not.

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"nnexus/internal/httpapi"
	"nnexus/internal/wire"
)

// holdLinkText makes every linkText handler block until the returned
// release is called, announcing itself on started first.
func holdLinkText(t *testing.T, srv *Server) (started chan struct{}, release func()) {
	t.Helper()
	// Room for every linkText a test sends, so no hook blocks announcing
	// itself past the release.
	started = make(chan struct{}, 64)
	gate := make(chan struct{})
	srv.testHook = func(req *wire.Request) {
		if req.Method == wire.MethodLinkText {
			started <- struct{}{}
			<-gate
		}
	}
	var once sync.Once
	release = func() { once.Do(func() { close(gate) }) }
	t.Cleanup(release)
	return started, release
}

// sendAsync sends req on a fresh raw connection and delivers its response
// (nil if the connection failed) on the returned channel.
func sendAsync(t *testing.T, addr string, req *wire.Request) <-chan *wire.Response {
	t.Helper()
	rc := dialRaw(t, addr)
	done := make(chan *wire.Response, 1)
	go func() {
		var resp wire.Response
		if rc.enc.Encode(req) != nil || rc.dec.Decode(&resp) != nil {
			done <- nil
			return
		}
		done <- &resp
	}()
	return done
}

// TestControlTrafficNeverShed: with the node's only slot held by a blocked
// linkText, liveness and replication methods are still served on the socket,
// while a client read is shed.
func TestControlTrafficNeverShed(t *testing.T) {
	srv, addr := newBoundedServer(t, 1)
	started, release := holdLinkText(t, srv)
	held := sendAsync(t, addr, &wire.Request{Method: wire.MethodLinkText, Text: "x", Seq: 1})
	<-started

	rc := dialRaw(t, addr)
	if resp := rc.call(t, &wire.Request{Method: wire.MethodStats, Seq: 1}); resp.Code != wire.CodeOverloaded {
		t.Fatalf("stats with the slot held answered %+v, want overloaded", resp)
	}
	if resp := rc.call(t, &wire.Request{Method: wire.MethodPing, Seq: 2}); !resp.IsOK() {
		t.Errorf("ping with the slot held answered %+v, want ok", resp)
	}
	if resp := rc.call(t, &wire.Request{Method: wire.MethodReplStatus, Seq: 3}); !resp.IsOK() || resp.Repl == nil {
		t.Errorf("replStatus with the slot held answered %+v, want the node's status", resp)
	}
	if got := srv.tel.shed.Value(); got != 1 {
		t.Errorf("nnexus_requests_shed_total{layer=tcp} = %d, want 1 (the stats only)", got)
	}
	release()
	if resp := <-held; resp == nil || !resp.IsOK() {
		t.Fatalf("held linkText answered %+v", resp)
	}
}

// TestOneBoundAcrossDoors: the socket and the HTTP API in front of one
// service share its one slot. A blocked socket request makes POST /api/link
// answer 503 overloaded, and an HTTP request whose body is still arriving
// makes a socket linkText answer overloaded.
func TestOneBoundAcrossDoors(t *testing.T) {
	srv, addr := newBoundedServer(t, 1)
	web := httptest.NewServer(httpapi.New(srv.svc, nil))
	defer web.Close()
	postLink := func(t *testing.T, body io.Reader) (int, string, http.Header) {
		t.Helper()
		resp, err := http.Post(web.URL+"/api/link", "application/json", body)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var reply struct{ Code string }
		json.NewDecoder(resp.Body).Decode(&reply)
		return resp.StatusCode, reply.Code, resp.Header
	}

	t.Run("socket holds, http shed", func(t *testing.T) {
		started, release := holdLinkText(t, srv)
		held := sendAsync(t, addr, &wire.Request{Method: wire.MethodLinkText, Text: "x", Seq: 1})
		<-started
		status, code, header := postLink(t, strings.NewReader(`{"text":"a planar graph"}`))
		if status != http.StatusServiceUnavailable || code != wire.CodeOverloaded || header.Get("Retry-After") == "" {
			t.Errorf("POST /api/link with the socket holding the slot = %d %q (Retry-After %q), want 503 %q with Retry-After",
				status, code, header.Get("Retry-After"), wire.CodeOverloaded)
		}
		release()
		if resp := <-held; resp == nil || !resp.IsOK() {
			t.Fatalf("held linkText answered %+v", resp)
		}
		if status, _, _ := postLink(t, strings.NewReader(`{"text":"a planar graph"}`)); status != http.StatusOK {
			t.Errorf("POST /api/link after the socket let go = %d, want 200", status)
		}
	})

	t.Run("http holds, socket shed", func(t *testing.T) {
		srv.testHook = nil
		body, sender := io.Pipe()
		t.Cleanup(func() { sender.Close() })
		held := make(chan int, 1)
		go func() {
			resp, err := http.Post(web.URL+"/api/link", "application/json", body)
			if err != nil {
				held <- 0
				return
			}
			resp.Body.Close()
			held <- resp.StatusCode
		}()
		// The route is instrumented inside the slot it holds.
		inFlight := srv.svc.Engine().Telemetry().Gauge("nnexus_http_in_flight_requests", "")
		waitFor(t, 5*time.Second, func() bool { return inFlight.Value() == 1 })
		rc := dialRaw(t, addr)
		linkText := &wire.Request{Method: wire.MethodLinkText, Text: "a planar graph", Seq: 1}
		if resp := rc.call(t, linkText); resp.Code != wire.CodeOverloaded {
			t.Fatalf("socket linkText while an HTTP body is arriving answered %+v, want overloaded", resp)
		}
		sender.Close()
		if status := <-held; status != http.StatusBadRequest {
			t.Errorf("the HTTP request whose body ended empty answered %d, want 400", status)
		}
		if resp := rc.call(t, linkText); !resp.IsOK() {
			t.Errorf("socket linkText after HTTP let go answered %+v, want ok", resp)
		}
	})
}

// TestActiveBoundAcrossConnections: many connections whose handlers block
// never run more than MaxActive requests at once; the rest are shed.
func TestActiveBoundAcrossConnections(t *testing.T) {
	const bound, conns = 3, 12
	srv, addr := newBoundedServer(t, bound)
	var cur, peak atomic.Int64
	gate := make(chan struct{})
	var once sync.Once
	release := func() { once.Do(func() { close(gate) }) }
	t.Cleanup(release)
	srv.testHook = func(req *wire.Request) {
		n := cur.Add(1)
		for p := peak.Load(); n > p && !peak.CompareAndSwap(p, n); p = peak.Load() {
		}
		<-gate
		cur.Add(-1)
	}
	results := make(chan *wire.Response, conns)
	for i := 0; i < conns; i++ {
		answer := sendAsync(t, addr, &wire.Request{Method: wire.MethodLinkText, Text: "x", Seq: 1})
		go func() { results <- <-answer }()
	}
	// No slot is given back before the gate opens, so every request past
	// the bound is shed, at once.
	for i := 0; i < conns-bound; i++ {
		select {
		case resp := <-results:
			if resp == nil || resp.Code != wire.CodeOverloaded {
				t.Fatalf("a request answered %+v while %d handlers were held, want overloaded", resp, bound)
			}
		case <-time.After(5 * time.Second):
			t.Fatalf("%d of %d requests shed, want %d", i, conns, conns-bound)
		}
	}
	waitFor(t, 5*time.Second, func() bool { return cur.Load() == bound })
	release()
	for i := 0; i < bound; i++ {
		if resp := <-results; resp == nil || !resp.IsOK() {
			t.Errorf("held request answered %+v, want ok", resp)
		}
	}
	if got := peak.Load(); got != bound {
		t.Errorf("peak requests running at once = %d, want %d", got, bound)
	}
}

// TestPanicFreesSlot: a panicking socket handler gives its slot back, so the
// node's only slot serves the next request.
func TestPanicFreesSlot(t *testing.T) {
	srv, addr := newBoundedServer(t, 1)
	srv.testHook = func(req *wire.Request) {
		if req.Text == "poison" {
			panic("poisoned request")
		}
	}
	rc := dialRaw(t, addr)
	for seq := int64(1); seq <= 2; seq++ {
		if resp := rc.call(t, &wire.Request{Method: wire.MethodLinkText, Text: "poison", Seq: seq}); resp.Code != wire.CodeInternal {
			t.Fatalf("poisoned linkText %d answered %+v, want internal", seq, resp)
		}
	}
	if resp := rc.call(t, &wire.Request{Method: wire.MethodLinkText, Text: "a planar graph", Seq: 3}); !resp.IsOK() {
		t.Errorf("linkText after two panics answered %+v, want ok: a panic kept its slot", resp)
	}
	if resp := srv.Handle(&wire.Request{Method: wire.MethodLinkText, Text: "poison", Seq: 4}); resp.Code != wire.CodeInternal {
		t.Fatalf("poisoned in-process linkText answered %+v, want internal", resp)
	}
	if resp := srv.Handle(&wire.Request{Method: wire.MethodStats, Seq: 5}); !resp.IsOK() {
		t.Errorf("in-process stats after a panic answered %+v, want ok: a panic kept its slot", resp)
	}
}
