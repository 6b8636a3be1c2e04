package server

// Chaos tests: kill connections mid-request, restart the server under a
// live client, and drain under traffic, proving the resilience layer's
// retry, reconnect, shed, and drain paths end to end. `make chaos` runs
// exactly these (every TestChaos*) under the race detector.

import (
	"context"
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"nnexus/internal/classification"
	"nnexus/internal/client"
	"nnexus/internal/core"
	"nnexus/internal/corpus"
	"nnexus/internal/faultinject"
	"nnexus/internal/service"
	"nnexus/internal/wire"
)

// resilientClient dials addr with fast retry/backoff settings suited to
// test-scale chaos.
func resilientClient(t *testing.T, addr string) *client.Client {
	t.Helper()
	c, err := client.Dial(addr, time.Second,
		client.WithMaxRetries(10),
		client.WithBackoff(5*time.Millisecond, 200*time.Millisecond),
		client.WithCallTimeout(2*time.Second),
	)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	return c
}

func seedDomain(t *testing.T, c *client.Client) {
	t.Helper()
	if err := c.AddDomain(corpus.Domain{
		Name: "planetmath.org", URLTemplate: "http://pm/{id}", Scheme: "msc", Priority: 1,
	}); err != nil {
		t.Fatal(err)
	}
	for _, title := range []string{"planar graph", "graph", "plane"} {
		if _, err := c.AddEntry(&corpus.Entry{
			Domain: "planetmath.org", Title: title, Classes: []string{"05C10"},
		}); err != nil {
			t.Fatalf("AddEntry(%s): %v", title, err)
		}
	}
}

// TestChaosClientSurvivesServerRestart drives link traffic through a full
// server stop/start cycle: every call eventually succeeds (retries are
// allowed and counted), none fail.
func TestChaosClientSurvivesServerRestart(t *testing.T) {
	engine, err := core.NewEngine(core.Config{Scheme: classification.SampleMSC(10)})
	if err != nil {
		t.Fatal(err)
	}
	srv := New(service.New(engine), nil)
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	c := resilientClient(t, addr)
	seedDomain(t, c)

	var calls, failures atomic.Int64
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for i := 0; i < 3; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				if _, err := c.LinkText("every planar graph is a graph", []string{"05C10"}, "msc", "", ""); err != nil {
					t.Logf("link call failed: %v", err)
					failures.Add(1)
				}
				calls.Add(1)
			}
		}()
	}

	time.Sleep(50 * time.Millisecond) // traffic flowing
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	// The server is gone: give the client a beat to hit the dead socket
	// so the retry/reconnect path is provably exercised, then restart on
	// the same address.
	time.Sleep(20 * time.Millisecond)
	srv2 := New(service.New(engine), nil)
	var addr2 string
	for attempt := 0; ; attempt++ {
		addr2, err = srv2.Listen(addr)
		if err == nil {
			break
		}
		if attempt > 50 {
			t.Fatalf("rebind %s: %v", addr, err)
		}
		time.Sleep(20 * time.Millisecond)
	}
	if addr2 != addr {
		t.Fatalf("rebound to %s, want %s", addr2, addr)
	}
	t.Cleanup(func() { srv2.Close() })

	time.Sleep(100 * time.Millisecond) // traffic against the new server
	close(stop)
	wg.Wait()

	if calls.Load() == 0 {
		t.Fatal("no calls made")
	}
	if failures.Load() != 0 {
		t.Fatalf("%d of %d calls failed across restart (retries=%d reconnects=%d)",
			failures.Load(), calls.Load(), c.Retries(), c.Reconnects())
	}
	if c.Reconnects() == 0 {
		t.Error("client never reconnected, restart path not exercised")
	}
	if c.Retries() == 0 {
		t.Error("client never retried, restart path not exercised")
	}
}

// TestChaosConnKilledMidRequest injects a client-side connection fault in
// the middle of a request stream: the server must drop the poisoned
// connection and keep serving others, and the self-healing client on the
// faulty path must recover on its next call.
func TestChaosConnKilledMidRequest(t *testing.T) {
	_, addr := newTestServer(t)

	// Raw faulty connection: the third write dies and drops the TCP conn,
	// simulating a client killed mid-send.
	inner, err := net.DialTimeout("tcp", addr, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	faulty := faultinject.WrapConn(inner, faultinject.FailWriteAfter(3, nil), faultinject.CloseOnFail())
	defer faulty.Close()
	enc, dec := wire.NewEncoder(faulty), wire.NewDecoder(faulty)
	if err := enc.Encode(&wire.Request{Method: wire.MethodPing, Seq: 1}); err != nil {
		t.Fatalf("first ping: %v", err)
	}
	var resp wire.Response
	if err := dec.Decode(&resp); err != nil || !resp.IsOK() {
		t.Fatalf("first ping response: %+v err=%v", resp, err)
	}
	// This request dies mid-write (encode + newline are separate writes,
	// and the XML body itself may span several).
	for seq := int64(2); seq < 10; seq++ {
		if err := enc.Encode(&wire.Request{Method: wire.MethodPing, Seq: seq}); err != nil {
			break
		}
	}

	// A healthy client is unaffected, before and after.
	c := resilientClient(t, addr)
	if err := c.Ping(); err != nil {
		t.Fatalf("healthy client ping after injected kill: %v", err)
	}
	if _, err := c.Stats(); err != nil {
		t.Fatalf("healthy client stats: %v", err)
	}
}

// TestChaosSheddingUnderOverloadRecovers floods a server whose active-
// request bound is 1 with slow calls: some are shed with the typed
// overloaded error, the self-healing clients retry them after backoff,
// and every call eventually lands.
func TestChaosSheddingUnderOverloadRecovers(t *testing.T) {
	srv, addr := newTestServer(t, WithMaxActiveRequests(2))
	gate := make(chan struct{}, 2)
	srv.testHook = func(req *wire.Request) {
		if req.Method == wire.MethodLinkText {
			gate <- struct{}{}
			time.Sleep(5 * time.Millisecond)
			<-gate
		}
	}
	seeder := resilientClient(t, addr)
	seedDomain(t, seeder)

	var wg sync.WaitGroup
	var failures atomic.Int64
	for i := 0; i < 6; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c := resilientClient(t, addr)
			for j := 0; j < 5; j++ {
				if _, err := c.LinkText("a planar graph", nil, "", "", ""); err != nil {
					t.Logf("link under overload: %v", err)
					failures.Add(1)
				}
			}
		}()
	}
	wg.Wait()
	if failures.Load() != 0 {
		t.Fatalf("%d calls failed under overload; shedding should convert overload into retries", failures.Load())
	}
	if srv.tel.shed.Value() == 0 {
		t.Error("no requests were shed; the overload path was not exercised")
	}
}

// TestChaosDrainUnderLiveTraffic drains while clients are mid-burst: every
// response that was owed arrives, the drain completes, and clients see
// clean connection closes (which their retry layer would absorb).
func TestChaosDrainUnderLiveTraffic(t *testing.T) {
	srv, addr := newTestServer(t)
	seeder := resilientClient(t, addr)
	seedDomain(t, seeder)

	var inFlightOK atomic.Int64
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			conn, err := net.DialTimeout("tcp", addr, time.Second)
			if err != nil {
				return
			}
			defer conn.Close()
			enc, dec := wire.NewEncoder(conn), wire.NewDecoder(conn)
			for seq := int64(1); ; seq++ {
				if err := enc.Encode(&wire.Request{
					Method: wire.MethodLinkText, Text: "every planar graph is a graph", Seq: seq,
				}); err != nil {
					return
				}
				var resp wire.Response
				if err := dec.Decode(&resp); err != nil {
					return // drain closed the conn between requests: fine
				}
				if !resp.IsOK() {
					t.Errorf("drain answered with error: %+v", resp)
					return
				}
				inFlightOK.Add(1)
			}
		}()
	}
	time.Sleep(30 * time.Millisecond)
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		t.Fatalf("drain under traffic: %v", err)
	}
	wg.Wait()
	if inFlightOK.Load() == 0 {
		t.Error("no requests completed before the drain")
	}
}
