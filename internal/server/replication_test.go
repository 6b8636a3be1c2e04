package server

// Server-level replication tests: a real primary server streaming its WAL
// to a real follower server over the XML protocol, plus the shutdown-drain
// contract for replication subscribers.

import (
	"context"
	"errors"
	"io"
	"testing"
	"time"

	"nnexus/internal/classification"
	"nnexus/internal/client"
	"nnexus/internal/core"
	"nnexus/internal/corpus"
	"nnexus/internal/replication"
	"nnexus/internal/service"
	"nnexus/internal/storage"
	"nnexus/internal/wire"
)

// newPrimaryServer boots a store-backed engine with replication enabled and
// serves it as a primary without peers.
func newPrimaryServer(t *testing.T) (*Server, string, *storage.Store) {
	t.Helper()
	st, err := storage.Open(t.TempDir(), storage.WithReplication())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { st.Close() })
	engine, err := core.NewEngine(core.Config{Scheme: classification.SampleMSC(10), Store: st})
	if err != nil {
		t.Fatal(err)
	}
	svc := service.New(engine)
	svc.Node = primaryNode(t, st)
	srv := New(svc, nil)
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	return srv, addr, st
}

// primaryNode is the replication node of a primary without peers over st.
func primaryNode(t *testing.T, st *storage.Store) *replication.Node {
	t.Helper()
	node, err := replication.NewNode(replication.NodeConfig{Store: st, InitialPrimary: true})
	if err != nil {
		t.Fatal(err)
	}
	if err := node.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(node.Stop)
	return node
}

// newFollowerServer boots a follower syncing from primaryAddr and serves
// its engine as a follower without peers.
func newFollowerServer(t *testing.T, primaryAddr string) (*Server, string, *replication.Node) {
	t.Helper()
	st, err := storage.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { st.Close() })
	// A follower's engine has no store of its own: state arrives only via
	// the replication feed.
	engine, err := core.NewEngine(core.Config{Scheme: classification.SampleMSC(10)})
	if err != nil {
		t.Fatal(err)
	}
	node, err := replication.NewNode(replication.NodeConfig{
		Store:   st,
		Applier: engine,
		Dial: func(addr string) (replication.Peer, error) {
			return client.New(addr, time.Second), nil
		},
		InitialLeader: primaryAddr,
		Name:          "f1",
		Wait:          100 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := node.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(node.Stop)
	svc := service.New(engine)
	svc.Node = node
	srv := New(svc, nil)
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	return srv, addr, node
}

func waitApplied(t *testing.T, node *replication.Node, head uint64) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		if st := node.Status(); st.Applied >= head && st.Synced {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("follower never reached offset %d: %+v", head, node.Status())
}

// TestChaosReplFollowerServesReadsRejectsWrites is the role contract: a
// follower answers the full read surface from replicated state and rejects
// every mutating method with a typed notPrimary redirect naming the leader.
func TestChaosReplFollowerServesReadsRejectsWrites(t *testing.T) {
	_, paddr, pst := newPrimaryServer(t)
	_, faddr, f := newFollowerServer(t, paddr)

	pc, err := client.Dial(paddr, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer pc.Close()
	if err := pc.AddDomain(corpus.Domain{Name: "d", URLTemplate: "http://d/{id}", Scheme: "msc"}); err != nil {
		t.Fatal(err)
	}
	id, err := pc.AddEntry(&corpus.Entry{Domain: "d", Title: "planar graph", Classes: []string{"05C10"}})
	if err != nil {
		t.Fatal(err)
	}
	waitApplied(t, f, pst.ReplicationHead())

	fc, err := client.Dial(faddr, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer fc.Close()

	// Reads: the replicated entry is visible and linkable on the follower.
	entry, err := fc.GetEntry(id)
	if err != nil || entry.Title != "planar graph" {
		t.Fatalf("follower GetEntry = %+v, %v", entry, err)
	}
	linked, err := fc.LinkText("every planar graph is planar", nil, "", "", "")
	if err != nil {
		t.Fatal(err)
	}
	if len(linked.Links) == 0 {
		t.Error("follower linkText produced no links from replicated state")
	}

	// Writes, on the wire: typed rejection carrying the leader's address.
	rc := dialRaw(t, faddr)
	rawResp := rc.call(t, &wire.Request{Method: wire.MethodAddEntry, Seq: 1,
		Entry: &corpus.Entry{Domain: "d", Title: "tree", Classes: []string{"05C05"}}})
	if rawResp.Code != wire.CodeNotPrimary {
		t.Fatalf("follower write answered code %q, want %q", rawResp.Code, wire.CodeNotPrimary)
	}
	if rawResp.Leader != paddr {
		t.Errorf("notPrimary leader = %q, want %q", rawResp.Leader, paddr)
	}

	// Writes, through the client: the redirect is followed to the leader
	// exactly once, so the write lands on the primary transparently.
	id2, err := fc.AddEntry(&corpus.Entry{Domain: "d", Title: "tree", Classes: []string{"05C05"}})
	if err != nil {
		t.Fatalf("redirected write failed: %v", err)
	}
	if entry, err := pc.GetEntry(id2); err != nil || entry.Title != "tree" {
		t.Errorf("redirected write not on primary: %+v, %v", entry, err)
	}

	// replStatus role reporting on each node.
	if payload, _, err := pc.ReplStatus(); err != nil || payload.Role != wire.RolePrimary {
		t.Errorf("primary replStatus = %+v, %v", payload, err)
	}
	if payload, leader, err := fc.ReplStatus(); err != nil || payload.Role != wire.RoleFollower || leader != paddr {
		t.Errorf("follower replStatus = %+v leader %q, %v", payload, leader, err)
	}
}

// TestReplStatusSingleNode: a server with no replication role reports
// "single" so clients and probes can tell it apart from a follower.
func TestReplStatusSingleNode(t *testing.T) {
	_, addr := newTestServer(t)
	c, err := client.Dial(addr, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	payload, _, err := c.ReplStatus()
	if err != nil || payload == nil || payload.Role != wire.RoleSingle {
		t.Fatalf("single-node replStatus = %+v, %v", payload, err)
	}
}

// TestChaosReplShutdownDrainsSubscribers is the drain contract for
// replication subscriber connections: Shutdown wakes a blocked subscribe
// long-poll, the subscriber receives one whole (empty) response — never a
// mid-record cut — and the connection then closes with a clean EOF, from
// which the follower resumes at its applied offset against the next
// primary incarnation.
func TestChaosReplShutdownDrainsSubscribers(t *testing.T) {
	srv, addr, pst := newPrimaryServer(t)
	if err := pst.Put("t", "k1", []byte("v1")); err != nil {
		t.Fatal(err)
	}
	epoch := pst.ReplicationEpoch()

	rc := dialRaw(t, addr)
	// First exchange drains the backlog, so the next subscribe long-polls.
	resp := rc.call(t, &wire.Request{Method: wire.MethodReplSubscribe, Seq: 1,
		Offset: 1, Epoch: epoch, MaxRecords: 64, WaitMillis: 60000})
	if resp.Repl == nil || len(resp.Repl.Records) != 1 {
		t.Fatalf("backlog subscribe = %+v, want 1 record", resp.Repl)
	}

	// Blocked long-poll from the caught-up offset.
	respCh := make(chan *wire.Response, 1)
	go func() {
		var r wire.Response
		rc.enc.Encode(&wire.Request{Method: wire.MethodReplSubscribe, Seq: 2,
			Offset: 2, Epoch: epoch, MaxRecords: 64, WaitMillis: 60000})
		if err := rc.dec.Decode(&r); err != nil {
			respCh <- nil
			return
		}
		respCh <- &r
	}()
	time.Sleep(50 * time.Millisecond) // let the long-poll block server-side

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		t.Fatalf("shutdown with a blocked subscriber: %v", err)
	}

	select {
	case r := <-respCh:
		if r == nil || !r.IsOK() || r.Repl == nil || len(r.Repl.Records) != 0 {
			t.Fatalf("drained subscribe answered %+v, want whole empty payload", r)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("blocked subscriber not woken by Shutdown")
	}
	// The drained connection ends in a clean EOF, not a reset mid-message.
	rc.conn.SetReadDeadline(time.Now().Add(2 * time.Second))
	var extra wire.Response
	if err := rc.dec.Decode(&extra); !errors.Is(err, io.EOF) {
		t.Fatalf("post-drain read = %v (%+v), want EOF", err, extra)
	}

	// Resume: a new primary incarnation over the same store serves the
	// follower from its applied offset with no gap.
	st2 := pst // store is still open; reuse it for the next server
	engine2, err := core.NewEngine(core.Config{Scheme: classification.SampleMSC(10), Store: nil})
	if err != nil {
		t.Fatal(err)
	}
	svc2 := service.New(engine2)
	svc2.Node = primaryNode(t, st2)
	srv2 := New(svc2, nil)
	addr2, err := srv2.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv2.Close()
	if err := st2.Put("t", "k2", []byte("v2")); err != nil {
		t.Fatal(err)
	}
	rc2 := dialRaw(t, addr2)
	resp = rc2.call(t, &wire.Request{Method: wire.MethodReplSubscribe, Seq: 1,
		Offset: 2, Epoch: epoch, MaxRecords: 64, WaitMillis: 1000})
	if resp.Repl == nil || resp.Repl.Reset || len(resp.Repl.Records) != 1 || resp.Repl.Records[0].Offset != 2 {
		t.Fatalf("resumed subscribe = %+v, want record at offset 2", resp.Repl)
	}
}

// A node deposed between applying a mutation and gathering its quorum must
// answer quorumUnavailable, never plain success: the write sits in the
// deposed primary's unshipped WAL suffix — exactly the records the fencing
// re-bootstrap will truncate — so a quorum-style OK would be a lie the
// client has no way to detect. The in-process demotion window is forced via
// the post-mutate test hook; the process-kill chaos matrix cannot hit it.
func TestQuorumAckRefusedAfterInProcessDemotion(t *testing.T) {
	st, err := storage.Open(t.TempDir(), storage.WithReplication())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { st.Close() })
	engine, err := core.NewEngine(core.Config{Scheme: classification.SampleMSC(10), Store: st})
	if err != nil {
		t.Fatal(err)
	}
	node, err := replication.NewNode(replication.NodeConfig{
		Self:  "self",
		Peers: []string{"peer"},
		Store: st,
		Dial: func(addr string) (replication.Peer, error) {
			return nil, errors.New("unreachable")
		},
		InitialPrimary: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(node.Stop)
	svc := service.New(engine)
	svc.Node, svc.QuorumAcks, svc.QuorumTimeout = node, 1, 5*time.Second
	srv := New(svc, nil)
	srv.testPostMutate = func(req *wire.Request) {
		// The new regime's announcement lands the instant the write applied.
		if err := node.HandleLead(99, ""); err != nil {
			t.Errorf("HandleLead: %v", err)
		}
	}

	resp := srv.Handle(&wire.Request{Method: wire.MethodAddDomain, Seq: 1,
		Domain: &corpus.Domain{Name: "planetmath.org", URLTemplate: "http://pm/{id}", Scheme: "msc"}})
	if resp.IsOK() {
		t.Fatal("write acked as success with zero follower confirmations after demotion")
	}
	if resp.Code != wire.CodeQuorumUnavailable {
		t.Fatalf("response code = %q (%s), want %q", resp.Code, resp.Error, wire.CodeQuorumUnavailable)
	}
	if node.Status().Role == replication.RolePrimary {
		t.Fatal("node still primary after HandleLead")
	}
}
