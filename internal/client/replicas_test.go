package client

// Routing tests: reads load-balance across caught-up followers, the
// staleness bound and stale flag exclude lagging ones, primary loss fails
// reads over to followers and surfaces ErrNoPrimary on writes, and a
// notPrimary rejection is followed to the leader exactly once, with or
// without WithReplicas.
//
// Each test stands up scripted fake nodes (concurrent, multi-connection —
// unlike fakeServer's one-handler-per-conn model) whose replStatus answers
// are controlled by the test, so every routing decision is deterministic.

import (
	"errors"
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"nnexus/internal/corpus"
	"nnexus/internal/wire"
)

// fakeNode is a scripted replication-aware server: it answers replStatus
// from test-controlled fields, serves routed reads, and — when playing a
// follower — rejects writes with a typed notPrimary redirect. It counts
// reads and writes so tests can assert who served what.
type fakeNode struct {
	t    *testing.T
	ln   net.Listener
	addr string

	role    atomic.Value // string; promotions mid-test flip it
	head    atomic.Uint64
	applied atomic.Uint64
	stale   atomic.Bool
	leader  atomic.Value // string
	vanish  atomic.Bool  // drop the connection on a write instead of answering
	code    atomic.Value // string; non-empty: a primary answers writes with this error code

	reads    atomic.Int64
	writes   atomic.Int64
	statuses atomic.Int64 // replStatus probes answered

	mu    sync.Mutex
	conns map[net.Conn]struct{}
	down  bool
}

func startFakeNode(t *testing.T, role string) *fakeNode {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	n := &fakeNode{t: t, ln: ln, addr: ln.Addr().String(),
		conns: make(map[net.Conn]struct{})}
	n.role.Store(role)
	n.leader.Store("")
	n.code.Store("")
	t.Cleanup(n.kill)
	go n.acceptLoop()
	return n
}

// kill closes the listener and every live connection: the node is gone.
func (n *fakeNode) kill() {
	n.mu.Lock()
	if n.down {
		n.mu.Unlock()
		return
	}
	n.down = true
	cs := make([]net.Conn, 0, len(n.conns))
	for c := range n.conns {
		cs = append(cs, c)
	}
	n.conns = nil
	n.mu.Unlock()
	n.ln.Close()
	for _, c := range cs {
		c.Close()
	}
}

func (n *fakeNode) acceptLoop() {
	for {
		conn, err := n.ln.Accept()
		if err != nil {
			return
		}
		n.mu.Lock()
		if n.down {
			n.mu.Unlock()
			conn.Close()
			return
		}
		n.conns[conn] = struct{}{}
		n.mu.Unlock()
		go n.serve(conn)
	}
}

func (n *fakeNode) serve(conn net.Conn) {
	defer conn.Close()
	dec, enc := wire.NewDecoder(conn), wire.NewEncoder(conn)
	for {
		var req wire.Request
		if err := dec.Decode(&req); err != nil {
			return
		}
		var resp *wire.Response
		role := n.role.Load().(string)
		switch {
		case req.Method == wire.MethodReplStatus:
			n.statuses.Add(1)
			resp = wire.OK(&req)
			resp.Repl = &wire.ReplPayload{
				Role:    role,
				Epoch:   1,
				Head:    n.head.Load(),
				Applied: n.applied.Load(),
				Stale:   n.stale.Load(),
			}
			resp.Leader = n.leader.Load().(string)
		case wire.Mutating(req.Method) && n.vanish.Load():
			// The request reached the node and then the connection died:
			// the client cannot know whether it executed.
			n.writes.Add(1)
			conn.Close()
			return
		case wire.Mutating(req.Method) && role == wire.RoleFollower:
			n.writes.Add(1)
			resp = wire.ErrCoded(&req, wire.CodeNotPrimary, errors.New("not primary"))
			resp.Leader = n.leader.Load().(string)
		case wire.Mutating(req.Method) && n.code.Load().(string) != "":
			n.writes.Add(1)
			resp = wire.ErrCoded(&req, n.code.Load().(string), errors.New("scripted answer"))
		case wire.Mutating(req.Method):
			n.writes.Add(1)
			resp = wire.OK(&req)
			resp.Object = n.writes.Load()
		case req.Method == wire.MethodGetEntry:
			n.reads.Add(1)
			resp = wire.OK(&req)
			resp.Entry = &corpus.Entry{
				ID: req.Object, Domain: "d", Title: n.addr, Classes: []string{"05C10"},
			}
		default:
			if wire.Methods[req.Method] == wire.KindRead {
				n.reads.Add(1)
			}
			resp = wire.OK(&req)
		}
		if err := enc.Encode(resp); err != nil {
			return
		}
	}
}

// caughtUp scripts the node as a fully synced follower at the given head.
func (n *fakeNode) caughtUp(head uint64) {
	n.head.Store(head)
	n.applied.Store(head)
}

// waitProbe polls until the routing layer's probe state satisfies pred.
func waitProbe(t *testing.T, pred func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !pred() {
		if time.Now().After(deadline) {
			t.Fatal("probe state never reached the expected condition")
		}
		time.Sleep(2 * time.Millisecond)
	}
}

func replicaOpts(addrs ...string) []Option {
	return fastOpts(
		WithReplicas(addrs...),
		WithReplicaProbeInterval(5*time.Millisecond),
	)
}

// Routed reads spread round-robin across caught-up followers; the primary
// serves none of them.
func TestRoutedReadsLoadBalanceAcrossReplicas(t *testing.T) {
	p := startFakeNode(t, wire.RolePrimary)
	f1 := startFakeNode(t, wire.RoleFollower)
	f2 := startFakeNode(t, wire.RoleFollower)
	f1.caughtUp(10)
	f2.caughtUp(10)

	c, err := Dial(p.addr, time.Second, replicaOpts(f1.addr, f2.addr)...)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	waitProbe(t, func() bool {
		return c.replicas[0].routable(c.staleness) &&
			c.replicas[1].routable(c.staleness)
	})

	for i := 0; i < 10; i++ {
		if _, err := c.GetEntry(int64(i)); err != nil {
			t.Fatal(err)
		}
	}
	if got := p.reads.Load(); got != 0 {
		t.Errorf("primary served %d routed reads, want 0", got)
	}
	if f1.reads.Load() == 0 || f2.reads.Load() == 0 {
		t.Errorf("reads not balanced: f1=%d f2=%d", f1.reads.Load(), f2.reads.Load())
	}
	if total := f1.reads.Load() + f2.reads.Load(); total != 10 {
		t.Errorf("replicas served %d reads, want 10", total)
	}

	// Writes pin to the primary even with healthy replicas attached.
	if _, err := c.AddEntry(&corpus.Entry{Domain: "d", Title: "t", Classes: []string{"05C10"}}); err != nil {
		t.Fatal(err)
	}
	if p.writes.Load() != 1 || f1.writes.Load() != 0 || f2.writes.Load() != 0 {
		t.Errorf("write routing: primary=%d f1=%d f2=%d, want 1/0/0",
			p.writes.Load(), f1.writes.Load(), f2.writes.Load())
	}
}

// A follower beyond the staleness bound is skipped; one within it serves.
func TestStalenessBoundExcludesLaggingReplica(t *testing.T) {
	p := startFakeNode(t, wire.RolePrimary)
	fresh := startFakeNode(t, wire.RoleFollower)
	lagging := startFakeNode(t, wire.RoleFollower)
	fresh.caughtUp(1000)
	lagging.head.Store(1000)
	lagging.applied.Store(400) // 600 records behind

	c, err := Dial(p.addr, time.Second,
		append(replicaOpts(fresh.addr, lagging.addr), WithStalenessBound(100))...)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	waitProbe(t, func() bool {
		return c.replicas[0].alive.Load() && c.replicas[1].alive.Load()
	})

	for i := 0; i < 6; i++ {
		if _, err := c.GetEntry(int64(i)); err != nil {
			t.Fatal(err)
		}
	}
	if got := lagging.reads.Load(); got != 0 {
		t.Errorf("lagging replica served %d reads, want 0", got)
	}
	if got := fresh.reads.Load(); got != 6 {
		t.Errorf("fresh replica served %d reads, want 6", got)
	}

	// The lagging replica catching up restores its routing eligibility.
	lagging.applied.Store(1000)
	waitProbe(t, func() bool { return c.replicas[1].routable(100) })
	for i := 0; i < 6; i++ {
		if _, err := c.GetEntry(int64(i)); err != nil {
			t.Fatal(err)
		}
	}
	if got := lagging.reads.Load(); got == 0 {
		t.Error("caught-up replica still excluded from routing")
	}
}

// A replica that lost contact with its primary (stale) is skipped for
// normal reads — its lag figure cannot be trusted — so reads fall back to
// the primary.
func TestStaleReplicaFallsBackToPrimary(t *testing.T) {
	p := startFakeNode(t, wire.RolePrimary)
	f := startFakeNode(t, wire.RoleFollower)
	f.caughtUp(10)
	f.stale.Store(true)

	c, err := Dial(p.addr, time.Second, replicaOpts(f.addr)...)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	waitProbe(t, func() bool { return c.replicas[0].alive.Load() })

	for i := 0; i < 4; i++ {
		if _, err := c.GetEntry(int64(i)); err != nil {
			t.Fatal(err)
		}
	}
	if f.reads.Load() != 0 {
		t.Errorf("stale replica served %d reads, want 0", f.reads.Load())
	}
	if p.reads.Load() != 4 {
		t.Errorf("primary served %d reads, want 4", p.reads.Load())
	}
}

// On primary loss, reads fail over to a follower even when it is stale
// (a dead primary means nobody can catch up), while writes surface the
// typed ErrNoPrimary instead of a generic connection error.
func TestPrimaryLossFailsReadsOverAndWritesFail(t *testing.T) {
	p := startFakeNode(t, wire.RolePrimary)
	f := startFakeNode(t, wire.RoleFollower)
	f.caughtUp(10)
	f.stale.Store(true) // lost contact with its (about to die) primary

	c, err := Dial(p.addr, time.Second, replicaOpts(f.addr)...)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	waitProbe(t, func() bool { return c.replicas[0].alive.Load() })

	p.kill()

	// Reads: the stale-but-answering follower picks up the read surface.
	if _, err := c.GetEntry(1); err != nil {
		t.Fatalf("read after primary loss: %v", err)
	}
	if f.reads.Load() == 0 {
		t.Error("failover read did not reach the follower")
	}

	// Writes: clean, typed failure.
	_, err = c.AddEntry(&corpus.Entry{Domain: "d", Title: "t", Classes: []string{"05C10"}})
	if !errors.Is(err, ErrNoPrimary) {
		t.Fatalf("write after primary loss = %v, want ErrNoPrimary", err)
	}
}

// A write that lands on a follower follows the notPrimary redirect's leader
// hint exactly once per call, and the leader is remembered: later writes go
// straight to it.
func TestWriteFollowsNotPrimaryRedirect(t *testing.T) {
	p := startFakeNode(t, wire.RolePrimary)
	f := startFakeNode(t, wire.RoleFollower)
	f.leader.Store(p.addr)

	// The client is (mis)pointed at the follower, with no replica set at all:
	// redirect handling is part of the base write path.
	c, err := Dial(f.addr, time.Second, fastOpts()...)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	for i := 0; i < 2; i++ {
		if _, err := c.AddEntry(&corpus.Entry{Domain: "d", Title: "t", Classes: []string{"05C10"}}); err != nil {
			t.Fatalf("redirected write %d: %v", i, err)
		}
	}
	if got := p.writes.Load(); got != 2 {
		t.Errorf("leader executed %d writes, want 2", got)
	}
	if got := f.writes.Load(); got != 1 {
		t.Errorf("follower was sent %d writes, want 1: the leader hint was not remembered", got)
	}

	// A follower that cannot name its leader yields the typed rejection
	// rather than a redirect loop.
	orphan := startFakeNode(t, wire.RoleFollower)
	c2, err := Dial(orphan.addr, time.Second, fastOpts()...)
	if err != nil {
		t.Fatal(err)
	}
	defer c2.Close()
	_, err = c2.AddEntry(&corpus.Entry{Domain: "d", Title: "t", Classes: []string{"05C10"}})
	if !isNotPrimary(err) {
		t.Fatalf("write to leaderless follower = %v, want notPrimary", err)
	}
}

// Writers sharing one client dialed at a follower share its leader hint:
// each goroutine's writes after its first go straight to the leader.
func TestConcurrentWritersShareLeaderHint(t *testing.T) {
	p := startFakeNode(t, wire.RolePrimary)
	f := startFakeNode(t, wire.RoleFollower)
	f.leader.Store(p.addr)
	c, err := Dial(f.addr, time.Second, fastOpts()...)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	const writers, each = 8, 10
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < each; i++ {
				if _, err := c.AddEntry(&corpus.Entry{Domain: "d", Title: "t", Classes: []string{"05C10"}}); err != nil {
					t.Errorf("concurrent redirected write: %v", err)
					return
				}
			}
		}()
	}
	wg.Wait()
	if got := p.writes.Load(); got != writers*each {
		t.Errorf("leader executed %d writes, want %d", got, writers*each)
	}
	if got := f.writes.Load(); got < 1 || got > writers {
		t.Errorf("follower was sent %d writes, want 1..%d (at most each writer's first)", got, writers)
	}
}

// A replica dying mid-stream is marked dead on the first failed read (which
// transparently falls back to the primary) and resumes serving after it
// comes back and a probe sees it.
func TestReplicaDeathFallsBackToPrimary(t *testing.T) {
	p := startFakeNode(t, wire.RolePrimary)
	f := startFakeNode(t, wire.RoleFollower)
	f.caughtUp(5)

	c, err := Dial(p.addr, time.Second, replicaOpts(f.addr)...)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	waitProbe(t, func() bool { return c.replicas[0].routable(c.staleness) })

	f.kill()
	// Every read still succeeds: conn failures against the replica fall
	// back to the primary within the same call.
	for i := 0; i < 4; i++ {
		if _, err := c.GetEntry(int64(i)); err != nil {
			t.Fatalf("read during replica outage: %v", err)
		}
	}
	if p.reads.Load() == 0 {
		t.Error("primary served no reads during replica outage")
	}
}

// A redirected write that reached the hinted leader must not be re-issued at
// any other address the client can discover, and must not come back as the
// follower's pre-execution notPrimary either (callers are documented to treat
// that as rejected-before-execution and may retry it). When the leader's
// connection dies after the request was sent (it may well have executed), the
// only honest answer is the typed ErrNoPrimary for the caller to reconcile;
// when the leader answers (quorumUnavailable: the write applied), its verdict
// is the caller's. Both hold with and without replicas.
func TestUnknownFateWriteNotReissued(t *testing.T) {
	for _, tc := range []struct {
		name     string
		replicas bool
		code     string // the leader's answer; "" = it vanishes mid-write
	}{
		{"replicas/vanish", true, ""},
		{"direct/vanish", false, ""},
		{"replicas/quorumUnavailable", true, wire.CodeQuorumUnavailable},
		{"direct/quorumUnavailable", false, wire.CodeQuorumUnavailable},
	} {
		t.Run(tc.name, func(t *testing.T) {
			f := startFakeNode(t, wire.RoleFollower)
			v := startFakeNode(t, wire.RolePrimary) // the hinted leader
			v.vanish.Store(tc.code == "")
			v.code.Store(tc.code)
			f.leader.Store(v.addr)
			d := startFakeNode(t, wire.RoleFollower) // promoted below: discoverable
			d.caughtUp(5)

			opts := fastOpts()
			if tc.replicas {
				opts = fastOpts(
					WithReplicas(d.addr),
					WithReplicaProbeInterval(time.Hour), // only the initial probe runs
				)
			}
			c, err := Dial(f.addr, time.Second, opts...)
			if err != nil {
				t.Fatal(err)
			}
			defer c.Close()
			if tc.replicas {
				waitProbe(t, func() bool { return c.replicas[0].alive.Load() })
			}
			// After the initial probe (which saw a follower and cached no
			// hint), d is promoted: discoverLeader would happily name it.
			d.role.Store(wire.RolePrimary)

			_, err = c.AddEntry(&corpus.Entry{Domain: "d", Title: "t", Classes: []string{"05C10"}})
			if tc.code == "" && !errors.Is(err, ErrNoPrimary) {
				t.Fatalf("unknown-fate write = %v, want ErrNoPrimary", err)
			}
			var se *ServerError
			if tc.code != "" && (!errors.As(err, &se) || se.Code != tc.code) {
				t.Fatalf("write the leader answered %s = %v, want that code", tc.code, err)
			}
			if isNotPrimary(err) {
				t.Fatalf("write surfaced as notPrimary (%v): callers would retry a possibly-executed mutation", err)
			}
			if got := v.writes.Load(); got != 1 {
				t.Fatalf("hinted leader saw %d writes, want 1", got)
			}
			if got := d.writes.Load(); got != 0 {
				t.Fatalf("write was re-issued at the discovered leader (%d executions)", got)
			}
		})
	}
}

// WithStalenessBound and WithReplicaProbeInterval take effect on either side
// of WithReplicas.
func TestReplicaTuningBeforeWithReplicas(t *testing.T) {
	p := startFakeNode(t, wire.RolePrimary)
	fresh := startFakeNode(t, wire.RoleFollower)
	lagging := startFakeNode(t, wire.RoleFollower)
	fresh.caughtUp(1000)
	lagging.head.Store(1000)
	lagging.applied.Store(400) // 600 records behind

	start := time.Now()
	c, err := Dial(p.addr, time.Second, fastOpts(
		WithStalenessBound(100),
		WithReplicaProbeInterval(time.Millisecond),
		WithReplicas(fresh.addr, lagging.addr),
	)...)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	waitProbe(t, func() bool { return lagging.statuses.Load() >= 3 })
	if d := time.Since(start); d >= DefaultReplicaProbeInterval {
		t.Errorf("three probe rounds took %v: the 1ms interval was ignored", d)
	}
	waitProbe(t, func() bool {
		return c.replicas[0].alive.Load() && c.replicas[1].alive.Load()
	})

	for i := 0; i < 6; i++ {
		if _, err := c.GetEntry(int64(i)); err != nil {
			t.Fatal(err)
		}
	}
	if got := lagging.reads.Load(); got != 0 {
		t.Errorf("replica 600 records behind served %d reads under a bound of 100, want 0", got)
	}
	if got := fresh.reads.Load(); got != 6 {
		t.Errorf("fresh replica served %d reads, want 6", got)
	}
}

// The discovery path itself stays intact: a write rejected pre-execution by a
// leaderless follower re-discovers a promoted replica and executes there.
func TestNotPrimaryWriteDiscoversPromotedReplica(t *testing.T) {
	f := startFakeNode(t, wire.RoleFollower) // names no leader
	d := startFakeNode(t, wire.RoleFollower)
	d.caughtUp(5)

	c, err := Dial(f.addr, time.Second, fastOpts(
		WithReplicas(d.addr),
		WithReplicaProbeInterval(time.Hour),
	)...)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	waitProbe(t, func() bool { return c.replicas[0].alive.Load() })
	d.role.Store(wire.RolePrimary)

	if _, err := c.AddEntry(&corpus.Entry{Domain: "d", Title: "t", Classes: []string{"05C10"}}); err != nil {
		t.Fatalf("write after discovery: %v", err)
	}
	if got := d.writes.Load(); got != 1 {
		t.Fatalf("discovered leader executed %d writes, want 1", got)
	}
}

// isNotPrimary reports whether err is a follower's typed rejection of a
// mutating method.
func isNotPrimary(err error) bool {
	var se *ServerError
	return errors.As(err, &se) && se.Code == wire.CodeNotPrimary
}
