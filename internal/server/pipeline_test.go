package server

// Per-connection pipelining tests: concurrent dispatch with out-of-order
// completion, the DefaultMaxPipeline bound, wire-level batch methods, and
// stop-and-wait compatibility.

import (
	"context"
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"nnexus/internal/corpus"
	"nnexus/internal/wire"
)

// TestPipelinedOutOfOrderCompletion proves requests on one connection run
// concurrently and may complete out of order: the first request blocks
// until the second has been answered, which is only possible if both are
// dispatched, and forces the second's response onto the wire first. The
// client releases the first only once it has read the second's response, so
// the two never race for the wire.
func TestPipelinedOutOfOrderCompletion(t *testing.T) {
	srv, addr := newTestServer(t)
	release := make(chan struct{})
	srv.testHook = func(req *wire.Request) {
		if req.Method == wire.MethodStats { // the slow first request
			<-release
		}
	}
	conn, err := net.DialTimeout("tcp", addr, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	// A server that does not pipeline never answers the ping: fail, not hang.
	conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	enc, dec := wire.NewEncoder(conn), wire.NewDecoder(conn)
	if err := enc.Encode(&wire.Request{Method: wire.MethodStats, Seq: 1}); err != nil {
		t.Fatal(err)
	}
	if err := enc.Encode(&wire.Request{Method: wire.MethodPing, Seq: 2}); err != nil {
		t.Fatal(err)
	}
	var first, second wire.Response
	err = dec.Decode(&first)
	close(release)
	if err != nil {
		t.Fatal(err)
	}
	if err := dec.Decode(&second); err != nil {
		t.Fatal(err)
	}
	if first.Seq != 2 || second.Seq != 1 {
		t.Fatalf("response order = %d,%d; want 2,1 (ping must finish while stats is blocked)",
			first.Seq, second.Seq)
	}
	if !first.IsOK() || !second.IsOK() {
		t.Fatalf("responses not ok: %+v %+v", first, second)
	}
}

// TestMaxPipelineBoundsConcurrency: one connection may never have more than
// DefaultMaxPipeline requests executing at once; excess requests wait in the
// reader.
func TestMaxPipelineBoundsConcurrency(t *testing.T) {
	const bound = DefaultMaxPipeline
	srv, addr := newTestServer(t)
	var cur, peak atomic.Int64
	srv.testHook = func(req *wire.Request) {
		if req.Method != wire.MethodPing {
			return
		}
		n := cur.Add(1)
		for {
			p := peak.Load()
			if n <= p || peak.CompareAndSwap(p, n) {
				break
			}
		}
		time.Sleep(50 * time.Millisecond)
		cur.Add(-1)
	}
	conn, err := net.DialTimeout("tcp", addr, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	enc, dec := wire.NewEncoder(conn), wire.NewDecoder(conn)
	const total = 3 * bound
	for seq := int64(1); seq <= total; seq++ {
		if err := enc.Encode(&wire.Request{Method: wire.MethodPing, Seq: seq}); err != nil {
			t.Fatal(err)
		}
	}
	seen := make(map[int64]bool)
	for i := 0; i < total; i++ {
		var resp wire.Response
		if err := dec.Decode(&resp); err != nil {
			t.Fatal(err)
		}
		if !resp.IsOK() || seen[resp.Seq] {
			t.Fatalf("bad or duplicate response: %+v", resp)
		}
		seen[resp.Seq] = true
	}
	if p := peak.Load(); p > bound {
		t.Errorf("peak per-connection concurrency = %d, want ≤ %d", p, bound)
	}
	if p := peak.Load(); p < bound {
		t.Errorf("peak per-connection concurrency = %d; pipelining never filled its window of %d", p, bound)
	}
}

// TestStopAndWaitClientUnchanged: a strict request/response-alternating
// client (the pre-pipelining wire pattern) works identically against the
// concurrent server, responses arriving in order.
func TestStopAndWaitClientUnchanged(t *testing.T) {
	_, addr := newTestServer(t)
	conn, err := net.DialTimeout("tcp", addr, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	enc, dec := wire.NewEncoder(conn), wire.NewDecoder(conn)
	for seq := int64(1); seq <= 20; seq++ {
		if err := enc.Encode(&wire.Request{Method: wire.MethodPing, Seq: seq}); err != nil {
			t.Fatal(err)
		}
		var resp wire.Response
		if err := dec.Decode(&resp); err != nil {
			t.Fatal(err)
		}
		if !resp.IsOK() || resp.Seq != seq {
			t.Fatalf("exchange %d answered %+v", seq, resp)
		}
	}
}

// TestBatchMethodsOverWire drives addEntries, linkBatch, and relinkBatch
// through Handle and checks their payload round trips.
func TestBatchMethodsOverWire(t *testing.T) {
	srv, _ := newTestServer(t)
	if resp := srv.Handle(&wire.Request{Method: wire.MethodAddDomain, Domain: &corpus.Domain{
		Name: "planetmath.org", URLTemplate: "http://pm/{id}", Scheme: "msc", Priority: 1,
	}}); !resp.IsOK() {
		t.Fatalf("addDomain: %+v", resp)
	}

	first := srv.Handle(&wire.Request{Method: wire.MethodAddEntries, Seq: 1, Entries: []*corpus.Entry{{
		Domain: "planetmath.org", Title: "graph", Classes: []string{"05C10"},
		Body: "every planar graph can be drawn in a plane",
	}}})
	if !first.IsOK() || len(first.Objects) != 1 {
		t.Fatalf("addEntries (first): %+v", first)
	}

	// The second batch defines concepts the first entry's body invokes, so
	// it lands on the invalidation queue.
	add := &wire.Request{Method: wire.MethodAddEntries, Seq: 2}
	for _, title := range []string{"planar graph", "plane"} {
		add.Entries = append(add.Entries, &corpus.Entry{
			Domain: "planetmath.org", Title: title, Classes: []string{"05C10"},
		})
	}
	resp := srv.Handle(add)
	if !resp.IsOK() || len(resp.Objects) != 2 {
		t.Fatalf("addEntries: %+v", resp)
	}

	link := &wire.Request{
		Method: wire.MethodLinkBatch, Seq: 2,
		Texts:   []string{"every planar graph is a graph", "no concepts here at all", "a graph in a plane"},
		Classes: []string{"05C10"}, Scheme: "msc",
	}
	resp = srv.Handle(link)
	if !resp.IsOK() || len(resp.Batch) != 3 {
		t.Fatalf("linkBatch: %+v", resp)
	}
	if len(resp.Batch[0].Links) == 0 || len(resp.Batch[2].Links) == 0 {
		t.Errorf("linkBatch missed links: %+v / %+v", resp.Batch[0], resp.Batch[2])
	}
	if len(resp.Batch[1].Links) != 0 {
		t.Errorf("linkBatch invented links: %+v", resp.Batch[1])
	}

	// addEntries invalidated existing entries; relinkBatch clears the queue.
	inv := srv.Handle(&wire.Request{Method: wire.MethodInvalidated, Seq: 3})
	if !inv.IsOK() || len(inv.Invalidated) == 0 {
		t.Fatalf("invalidated: %+v", inv)
	}
	resp = srv.Handle(&wire.Request{Method: wire.MethodRelinkBatch, Seq: 4})
	if !resp.IsOK() {
		t.Fatalf("relinkBatch: %+v", resp)
	}
	if int(resp.Object) != len(resp.Objects) || len(resp.Objects) != len(inv.Invalidated) {
		t.Errorf("relinkBatch count=%d ids=%v, want the %d invalidated entries",
			resp.Object, resp.Objects, len(inv.Invalidated))
	}
	after := srv.Handle(&wire.Request{Method: wire.MethodInvalidated, Seq: 5})
	if len(after.Invalidated) != 0 {
		t.Errorf("queue not cleared: %v", after.Invalidated)
	}
	// An unknown entry in the batch surfaces as an error response.
	resp = srv.Handle(&wire.Request{Method: wire.MethodRelinkBatch, Seq: 6, Objects: []int64{9999}})
	if resp.IsOK() {
		t.Errorf("relinkBatch of unknown entry succeeded: %+v", resp)
	}
}

// TestShutdownDrainsPipelinedWindow: a drain arriving while several
// requests from one connection are in flight lets all of them finish and
// flush before the connection closes.
func TestShutdownDrainsPipelinedWindow(t *testing.T) {
	srv, addr := newTestServer(t)
	var started sync.WaitGroup
	started.Add(3)
	release := make(chan struct{})
	srv.testHook = func(req *wire.Request) {
		if req.Method == wire.MethodPing && req.Seq <= 3 {
			started.Done()
			<-release
		}
	}
	conn, err := net.DialTimeout("tcp", addr, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	enc, dec := wire.NewEncoder(conn), wire.NewDecoder(conn)
	for seq := int64(1); seq <= 3; seq++ {
		if err := enc.Encode(&wire.Request{Method: wire.MethodPing, Seq: seq}); err != nil {
			t.Fatal(err)
		}
	}
	started.Wait() // all three dispatched and blocked

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	shutdownDone := make(chan error, 1)
	go func() { shutdownDone <- srv.Shutdown(ctx) }()
	time.Sleep(20 * time.Millisecond) // drain flag set while window is full
	close(release)

	got := map[int64]bool{}
	for i := 0; i < 3; i++ {
		var resp wire.Response
		if err := dec.Decode(&resp); err != nil {
			t.Fatalf("response %d during drain: %v", i, err)
		}
		if !resp.IsOK() {
			t.Fatalf("drain answered error: %+v", resp)
		}
		got[resp.Seq] = true
	}
	if len(got) != 3 {
		t.Fatalf("distinct responses = %d, want 3", len(got))
	}
	if err := <-shutdownDone; err != nil {
		t.Fatalf("drain: %v", err)
	}
}
