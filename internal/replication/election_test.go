package replication

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"nnexus/internal/clock"
	"nnexus/internal/storage"
	"nnexus/internal/telemetry"
	"nnexus/internal/wire"
)

// fabric is an in-process cluster wire: every node registers under its
// address, and fabricPeer routes peer calls to the registered node exactly
// like the server layer would. Marking an address down simulates a crashed
// or partitioned process (every call to it fails).
type fabric struct {
	mu    sync.Mutex
	nodes map[string]*Node
	down  map[string]bool
}

func newFabric() *fabric {
	return &fabric{nodes: make(map[string]*Node), down: make(map[string]bool)}
}

func (fb *fabric) register(addr string, n *Node) {
	fb.mu.Lock()
	fb.nodes[addr] = n
	fb.mu.Unlock()
}

func (fb *fabric) setDown(addr string, down bool) {
	fb.mu.Lock()
	fb.down[addr] = down
	fb.mu.Unlock()
}

// target resolves a call from one node to another; a down node neither
// answers nor initiates (a crash or full partition, not a half-open link).
func (fb *fabric) target(from, addr string) (*Node, error) {
	fb.mu.Lock()
	defer fb.mu.Unlock()
	if fb.down[from] {
		return nil, fmt.Errorf("fabric: caller %s is down", from)
	}
	if fb.down[addr] {
		return nil, fmt.Errorf("fabric: %s is down", addr)
	}
	n, ok := fb.nodes[addr]
	if !ok {
		return nil, fmt.Errorf("fabric: %s not registered", addr)
	}
	return n, nil
}

// fabricPeer implements Peer over the fabric (the dial itself is lazy and
// never fails, like client.New).
type fabricPeer struct {
	fb   *fabric
	from string
	addr string
}

func (p fabricPeer) ReplSubscribe(from, epoch uint64, max, waitMillis int, follower string) (*wire.ReplPayload, error) {
	n, err := p.fb.target(p.from, p.addr)
	if err != nil {
		return nil, err
	}
	prim := n.CurrentPrimary()
	if prim == nil {
		return nil, errors.New("fabric: not a primary")
	}
	pay, err := prim.Subscribe(from, epoch, max, time.Duration(waitMillis)*time.Millisecond)
	if err != nil {
		return nil, err
	}
	// A partition severs in-flight long-polls too: a response to a call
	// dispatched before the cut never arrives.
	if _, err := p.fb.target(p.from, p.addr); err != nil {
		return nil, err
	}
	return pay, nil
}

func (p fabricPeer) ReplSnapshot() (*wire.ReplPayload, error) {
	n, err := p.fb.target(p.from, p.addr)
	if err != nil {
		return nil, err
	}
	prim := n.CurrentPrimary()
	if prim == nil {
		return nil, errors.New("fabric: not a primary")
	}
	pay, err := prim.Snapshot()
	if err != nil {
		return nil, err
	}
	if _, err := p.fb.target(p.from, p.addr); err != nil {
		return nil, err
	}
	return pay, nil
}

func (p fabricPeer) ReplAck(follower string, offset, epoch uint64) error {
	n, err := p.fb.target(p.from, p.addr)
	if err != nil {
		return err
	}
	if prim := n.CurrentPrimary(); prim != nil {
		prim.Ack(follower, offset)
	}
	return nil
}

func (p fabricPeer) ReplVote(epoch, offset uint64, candidate string) (*wire.ReplPayload, error) {
	n, err := p.fb.target(p.from, p.addr)
	if err != nil {
		return nil, err
	}
	return n.HandleVote(epoch, offset, candidate), nil
}

func (p fabricPeer) ReplLead(epoch uint64, leader string) error {
	n, err := p.fb.target(p.from, p.addr)
	if err != nil {
		return err
	}
	return n.HandleLead(epoch, leader)
}

func (p fabricPeer) ReplStatus() (*wire.ReplPayload, string, error) {
	n, err := p.fb.target(p.from, p.addr)
	if err != nil {
		return nil, "", err
	}
	st := n.Status()
	return &wire.ReplPayload{Role: st.Role, Epoch: st.Term, Head: st.Head, Applied: st.Applied, Stale: !st.Synced},
		st.Leader, nil
}

func (p fabricPeer) Close() error { return nil }

const testElectionTimeout = 150 * time.Millisecond

// manualClock installs a manual clock for the rest of the test. Call it
// before booting a node, so that the cleanups stopping nodes run before the
// one restoring the clock; a test that installs it steps it (waitNode,
// stepWhile) whenever a node may be waiting on a timer, stopping included.
func manualClock(t *testing.T) *clock.Manual {
	t.Helper()
	clk := clock.NewManual(time.Unix(1_000_000, 0))
	t.Cleanup(clock.Install(clk))
	return clk
}

// waitNode polls cond every 5 ms of real time, first advancing clk by an
// eighth of the election timeout each time (at most one tick of a node's
// election loop), and fails the test when cond has not held within 15 s.
func waitNode(t *testing.T, clk *clock.Manual, what string, cond func() bool) {
	t.Helper()
	for deadline := time.Now().Add(15 * time.Second); !cond(); time.Sleep(5 * time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		clk.Advance(testElectionTimeout / 8)
	}
}

// stepWhile runs fn, stepping clk as waitNode does until fn returns: a node
// stopping may wait for a long-poll or a backoff to end.
func stepWhile(t *testing.T, clk *clock.Manual, what string, fn func()) {
	t.Helper()
	done := make(chan struct{})
	go func() {
		defer close(done)
		fn()
	}()
	waitNode(t, clk, what, func() bool {
		select {
		case <-done:
			return true
		default:
			return false
		}
	})
}

// waitWindows steps clk through n election timeouts as waitNode does.
func waitWindows(t *testing.T, clk *clock.Manual, n int) {
	t.Helper()
	end := clk.Now().Add(time.Duration(n) * testElectionTimeout)
	waitNode(t, clk, "the clock to advance", func() bool { return !clk.Now().Before(end) })
}

// newClusterNode builds and registers one cluster member. The returned store
// outlives the node (tests restart nodes against the same directory).
func newClusterNode(t *testing.T, fb *fabric, dir, self string, peers []string, initialPrimary bool, initialLeader string) (*Node, *storage.Store) {
	t.Helper()
	st, err := storage.Open(dir, storage.WithReplication())
	if err != nil {
		t.Fatal(err)
	}
	n, err := NewNode(NodeConfig{
		Self:            self,
		Peers:           peers,
		Store:           st,
		Dial:            func(addr string) (Peer, error) { return fabricPeer{fb: fb, from: self, addr: addr}, nil },
		InitialPrimary:  initialPrimary,
		InitialLeader:   initialLeader,
		ElectionTimeout: testElectionTimeout,
		FollowerOpts: []FollowerOption{
			WithFollowerName(self),
			WithFollowerWait(50 * time.Millisecond),
		},
	})
	if err != nil {
		st.Close()
		t.Fatal(err)
	}
	fb.register(self, n)
	return n, st
}

// threeNodeCluster boots n1 as primary with n2, n3 following it on a manual
// clock, writes `writes` records, and waits for both followers to apply
// them.
func threeNodeCluster(t *testing.T, fb *fabric, writes int) (clk *clock.Manual, nodes map[string]*Node, stores map[string]*storage.Store, dirs map[string]string) {
	t.Helper()
	clk = manualClock(t)
	addrs := []string{"n1", "n2", "n3"}
	nodes = make(map[string]*Node)
	stores = make(map[string]*storage.Store)
	dirs = make(map[string]string)
	others := func(self string) []string {
		var out []string
		for _, a := range addrs {
			if a != self {
				out = append(out, a)
			}
		}
		return out
	}
	for _, a := range addrs {
		dirs[a] = t.TempDir()
	}
	nodes["n1"], stores["n1"] = newClusterNode(t, fb, dirs["n1"], "n1", others("n1"), true, "")
	nodes["n2"], stores["n2"] = newClusterNode(t, fb, dirs["n2"], "n2", others("n2"), false, "n1")
	nodes["n3"], stores["n3"] = newClusterNode(t, fb, dirs["n3"], "n3", others("n3"), false, "n1")
	for _, a := range addrs {
		if err := nodes[a].Start(); err != nil {
			t.Fatal(err)
		}
	}
	t.Cleanup(func() {
		stepWhile(t, clk, "the nodes stopped", func() {
			for _, a := range addrs {
				nodes[a].Stop()
			}
		})
		for _, a := range addrs {
			stores[a].Close()
		}
	})
	for i := 0; i < writes; i++ {
		if err := stores["n1"].Put("t", fmt.Sprintf("k%d", i), []byte("v")); err != nil {
			t.Fatal(err)
		}
	}
	head := stores["n1"].ReplicationHead()
	for _, a := range []string{"n2", "n3"} {
		a := a
		waitNode(t, clk, a+" caught up", func() bool {
			st := nodes[a].Status()
			return st.Role == RoleFollower && st.Applied == head && st.Synced
		})
	}
	return clk, nodes, stores, dirs
}

// TestElectionAfterPrimaryLoss is the core failover path: the primary dies,
// the two remaining followers (who may well time out simultaneously) elect
// exactly one of themselves, the winner serves the replication surface, and
// the loser retargets its stream to the winner. Simultaneous candidacies
// split the vote; the jittered re-arm must resolve the split within a few
// rounds.
func TestElectionAfterPrimaryLoss(t *testing.T) {
	fb := newFabric()
	clk, nodes, stores, _ := threeNodeCluster(t, fb, 5)

	// The survivors' Status is read throughout while the election flips
	// their roles: under -race this checks that it reads every part under
	// the lock guarding it, and each snapshot is of one role.
	stop := make(chan struct{})
	var readers sync.WaitGroup
	for _, a := range []string{"n2", "n3"} {
		n := nodes[a]
		readers.Add(1)
		go func() {
			defer readers.Done()
			for {
				select {
				case <-stop:
					return
				case <-time.After(100 * time.Microsecond):
				}
				st := n.Status()
				e := st.Election
				switch {
				case e == nil || e.Role != st.Role || e.Term != st.Term || e.Leader != st.Leader:
					t.Errorf("election part %+v does not match %+v", e, st)
				case st.Lag != st.Head-st.Applied:
					t.Errorf("lag %d is not head %d - applied %d", st.Lag, st.Head, st.Applied)
				case st.Role == RolePrimary && (st.Followers == nil || !st.Synced || st.Leader != a):
					t.Errorf("primary snapshot without its primary's part: %+v", st)
				case st.Role != RolePrimary && st.Followers != nil:
					t.Errorf("%s snapshot with a primary's followers: %+v", st.Role, st)
				default:
					continue
				}
				return
			}
		}()
	}
	defer func() {
		close(stop)
		readers.Wait()
	}()

	fb.setDown("n1", true)
	nodes["n1"].Stop()

	var winner, loser string
	waitNode(t, clk, "a follower won the election", func() bool {
		for _, a := range []string{"n2", "n3"} {
			if nodes[a].Status().Role == RolePrimary {
				winner = a
				return true
			}
		}
		return false
	})
	for _, a := range []string{"n2", "n3"} {
		if a != winner {
			loser = a
		}
	}
	if epoch := nodes[winner].Status().Term; epoch == 0 {
		t.Fatalf("winner's election epoch = 0, want > 0")
	}
	if nodes[winner].CurrentPrimary() == nil {
		t.Fatal("winner has no primary surface")
	}
	if head := stores[winner].ReplicationHead(); head != 5 {
		t.Fatalf("winner's head = %d, want 5 (no acknowledged record lost)", head)
	}

	// The loser hears the announcement (or re-bootstraps) and follows the
	// winner; new writes reach it through the retargeted stream.
	if err := stores[winner].Put("t", "post-failover", []byte("v")); err != nil {
		t.Fatal(err)
	}
	waitNode(t, clk, "loser follows the winner", func() bool {
		if nodes[loser].Status().Role == RolePrimary {
			t.Fatal("both followers became primary — split brain")
		}
		st := nodes[loser].Status()
		return st.Role == RoleFollower && st.Leader == winner &&
			st.Applied == stores[winner].ReplicationHead() && st.Synced
	})
	if l := nodes[loser].Status().Leader; l != winner {
		t.Fatalf("loser's leader = %q, want %q", l, winner)
	}
	sameState(t, stores[loser], stores[winner], "after failover")

	// Exactly one primary, stably: re-check after two more timeout windows.
	waitWindows(t, clk, 2)
	if w, l := nodes[winner].Status().Role, nodes[loser].Status().Role; w != RolePrimary || l == RolePrimary {
		t.Fatalf("roles unstable: winner %s, loser %s", w, l)
	}
}

// TestOldPrimaryFencedAndTruncated is the fencing contract: a primary that
// keeps writing while partitioned from every follower, dies, and later
// returns must (1) discover the higher epoch on its first probe and demote
// without human help, and (2) lose its unshipped WAL suffix, converging on
// the new primary's history.
func TestOldPrimaryFencedAndTruncated(t *testing.T) {
	fb := newFabric()
	clk, nodes, stores, dirs := threeNodeCluster(t, fb, 5)

	// Partition both followers, then write records only n1 ever sees.
	fb.setDown("n2", true)
	fb.setDown("n3", true)
	for i := 0; i < 3; i++ {
		if err := stores["n1"].Put("t", fmt.Sprintf("unshipped%d", i), []byte("v")); err != nil {
			t.Fatal(err)
		}
	}
	if head := stores["n1"].ReplicationHead(); head != 8 {
		t.Fatalf("old primary head = %d, want 8", head)
	}

	// Kill the old primary; heal the followers; they elect among themselves.
	fb.setDown("n1", true)
	nodes["n1"].Stop()
	if err := stores["n1"].Close(); err != nil {
		t.Fatal(err)
	}
	fb.setDown("n2", false)
	fb.setDown("n3", false)
	var winner string
	waitNode(t, clk, "failover election", func() bool {
		for _, a := range []string{"n2", "n3"} {
			if nodes[a].Status().Role == RolePrimary {
				winner = a
				return true
			}
		}
		return false
	})
	// The new regime writes history of its own past the divergence point.
	for i := 0; i < 2; i++ {
		if err := stores[winner].Put("t", fmt.Sprintf("newreign%d", i), []byte("v")); err != nil {
			t.Fatal(err)
		}
	}

	// The deposed primary restarts believing it still leads. Its startup
	// watchdog probe must fence it before the election timeout elapses.
	fb.setDown("n1", false)
	n1b, st1b := newClusterNode(t, fb, dirs["n1"], "n1", []string{"n2", "n3"}, true, "")
	defer func() {
		stepWhile(t, clk, "the returned primary stopped", n1b.Stop)
		st1b.Close()
	}()
	if err := n1b.Start(); err != nil {
		t.Fatal(err)
	}
	waitNode(t, clk, "returning primary fenced", func() bool {
		st := n1b.Status()
		return st.Role != RolePrimary && st.Election.Fenced
	})
	if got, want := n1b.Status().Leader, winner; got != want {
		t.Fatalf("fenced node's leader = %q, want %q", got, want)
	}
	// Its unshipped suffix is truncated by the re-bootstrap: state converges
	// on the winner's 7-record history, not the old 8-record one.
	waitNode(t, clk, "fenced node converged on the new history", func() bool {
		st := n1b.Status()
		return st.Role == RoleFollower && st.Applied == stores[winner].ReplicationHead() && st.Synced
	})
	sameState(t, st1b, stores[winner], "after fencing re-bootstrap")
	if _, ok := st1b.Get("t", "unshipped0"); ok {
		t.Fatal("unshipped record survived fencing — old primary's suffix must be truncated")
	}
	if _, ok := st1b.Get("t", "newreign0"); !ok {
		t.Fatal("fenced node is missing the new primary's history")
	}
}

// TestHandleVoteRules pins the voter state machine: one vote per epoch,
// idempotent re-grants, freshness refusal, epoch adoption on rejection, and
// stale-candidate fencing.
func TestHandleVoteRules(t *testing.T) {
	fb := newFabric()
	dir := t.TempDir()
	st, err := storage.Open(dir, storage.WithReplication())
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	for i := 0; i < 4; i++ {
		if err := st.Put("t", fmt.Sprintf("k%d", i), []byte("v")); err != nil {
			t.Fatal(err)
		}
	}
	n, err := NewNode(NodeConfig{
		Self:  "voter",
		Peers: []string{"a", "b"},
		Store: st,
		Dial:  func(addr string) (Peer, error) { return fabricPeer{fb: fb, from: "voter", addr: addr}, nil },
	})
	if err != nil {
		t.Fatal(err)
	}
	defer n.Stop()

	if pay := n.HandleVote(1, 2, "a"); pay.Granted {
		t.Fatal("granted a vote to a candidate behind this node's applied offset")
	}
	if pay := n.HandleVote(1, 4, "a"); !pay.Granted || pay.Epoch != 1 {
		t.Fatalf("fresh candidate refused: %+v", pay)
	}
	if pay := n.HandleVote(1, 4, "b"); pay.Granted {
		t.Fatal("second vote granted in the same epoch")
	}
	if pay := n.HandleVote(1, 4, "a"); !pay.Granted {
		t.Fatal("idempotent re-grant refused (retries must be safe)")
	}
	if pay := n.HandleVote(2, 4, "b"); !pay.Granted || pay.Epoch != 2 {
		t.Fatalf("new-epoch candidate refused: %+v", pay)
	}
	// A stale candidate is fenced, and the rejection names the newer epoch.
	if pay := n.HandleVote(1, 99, "c"); pay.Granted || pay.Epoch != 2 {
		t.Fatalf("stale candidate: %+v, want rejection carrying epoch 2", pay)
	}
	// Rejection on freshness at a newer epoch still adopts the epoch.
	if pay := n.HandleVote(5, 1, "c"); pay.Granted || pay.Epoch != 5 {
		t.Fatalf("unfresh high-epoch candidate: %+v, want rejection carrying epoch 5", pay)
	}
	if got := n.Status().Term; got != 5 {
		t.Fatalf("node epoch = %d, want 5 (adopted from rejected candidate)", got)
	}
}

// TestVotePersistsAcrossRestart: the persist-before-reply contract — a
// restarted voter must not grant a second vote in an epoch it already spent.
func TestVotePersistsAcrossRestart(t *testing.T) {
	fb := newFabric()
	dir := t.TempDir()
	build := func() (*Node, *storage.Store) {
		st, err := storage.Open(dir, storage.WithReplication())
		if err != nil {
			t.Fatal(err)
		}
		n, err := NewNode(NodeConfig{
			Self:  "voter",
			Peers: []string{"a", "b"},
			Store: st,
			Dial:  func(addr string) (Peer, error) { return fabricPeer{fb: fb, from: "voter", addr: addr}, nil },
		})
		if err != nil {
			st.Close()
			t.Fatal(err)
		}
		return n, st
	}
	n1, st1 := build()
	if pay := n1.HandleVote(3, 10, "a"); !pay.Granted {
		t.Fatalf("vote refused: %+v", pay)
	}
	n1.Stop()
	st1.Close()

	n2, st2 := build()
	defer func() {
		n2.Stop()
		st2.Close()
	}()
	if got := n2.Status().Term; got != 3 {
		t.Fatalf("restarted epoch = %d, want 3", got)
	}
	if pay := n2.HandleVote(3, 10, "b"); pay.Granted {
		t.Fatal("restarted voter granted a second vote in epoch 3")
	}
	if pay := n2.HandleVote(3, 10, "a"); !pay.Granted {
		t.Fatal("restarted voter refused its own recorded vote (retries must be safe)")
	}
}

// TestHandleLeadFencesStaleClaims: leadership claims below the node's epoch
// answer ErrStaleEpoch; current ones adopt the leader.
func TestHandleLeadFencesStaleClaims(t *testing.T) {
	fb := newFabric()
	dir := t.TempDir()
	st, err := storage.Open(dir, storage.WithReplication())
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	n, err := NewNode(NodeConfig{
		Self:  "voter",
		Peers: []string{"a", "b"},
		Store: st,
		Dial:  func(addr string) (Peer, error) { return fabricPeer{fb: fb, from: "voter", addr: addr}, nil },
	})
	if err != nil {
		t.Fatal(err)
	}
	defer n.Stop()

	if pay := n.HandleVote(4, 0, "a"); !pay.Granted {
		t.Fatalf("setup vote refused: %+v", pay)
	}
	if err := n.HandleLead(3, "b"); !errors.Is(err, ErrStaleEpoch) {
		t.Fatalf("stale leadership claim = %v, want ErrStaleEpoch", err)
	}
	if err := n.HandleLead(4, "a"); err != nil {
		t.Fatalf("current leadership claim rejected: %v", err)
	}
	if got := n.Status().Leader; got != "a" {
		t.Fatalf("leader = %q, want %q", got, "a")
	}
	if err := n.HandleLead(6, "b"); err != nil {
		t.Fatalf("newer leadership claim rejected: %v", err)
	}
	if st := n.Status(); st.Leader != "b" || st.Term != 6 {
		t.Fatalf("leader/epoch = %q/%d, want b/6", st.Leader, st.Term)
	}
}

// TestTornWALTailVotesTruncatedOffset: a follower that crashed mid-append
// reopens with the torn record dropped, and must campaign (and judge
// candidates) with the truncated offset — the records it actually holds,
// not the bytes it once buffered.
func TestTornWALTailVotesTruncatedOffset(t *testing.T) {
	dir := t.TempDir()
	st, err := storage.Open(dir, storage.WithReplication())
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		if err := st.Put("t", fmt.Sprintf("k%d", i), []byte("v")); err != nil {
			t.Fatal(err)
		}
	}
	fullHead := st.ReplicationHead()
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	// Tear the WAL tail: chop bytes off the last record.
	walPath := filepath.Join(dir, "wal.log")
	wal, err := os.ReadFile(walPath)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(walPath, wal[:len(wal)-7], 0o644); err != nil {
		t.Fatal(err)
	}
	st2, err := storage.Open(dir, storage.WithReplication())
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	tornHead := st2.ReplicationHead()
	if tornHead >= fullHead {
		t.Fatalf("torn head = %d, want < %d", tornHead, fullHead)
	}

	fb := newFabric()
	n, err := NewNode(NodeConfig{
		Self:  "torn",
		Peers: []string{"a", "b"},
		Store: st2,
		Dial:  func(addr string) (Peer, error) { return fabricPeer{fb: fb, from: "torn", addr: addr}, nil },
	})
	if err != nil {
		t.Fatal(err)
	}
	defer n.Stop()

	// As a voter it must NOT refuse a candidate that holds everything it
	// (still) holds, even though that candidate is behind the pre-crash head.
	if pay := n.HandleVote(1, tornHead, "a"); !pay.Granted {
		t.Fatalf("candidate at the torn node's own offset refused: %+v", pay)
	}
	if got := n.Status().Applied; got != tornHead {
		t.Fatalf("status applied = %d, want truncated %d", got, tornHead)
	}
}

// TestWaitQuorum pins the quorum-acknowledgement primitive the server's
// quorum-ack write path is built on: satisfied by follower acks, typed
// failure on timeout, woken by drain.
func TestWaitQuorum(t *testing.T) {
	clk := manualClock(t)
	pst, p := newPrimary(t)
	if err := pst.Put("t", "k", []byte("v")); err != nil {
		t.Fatal(err)
	}
	head := p.Head()

	// k=0 never waits.
	if err := p.WaitQuorum(head, 0, time.Nanosecond); err != nil {
		t.Fatalf("k=0 wait = %v, want nil", err)
	}
	// timedOut waits for k acks nobody sends: the wait ends once the clock
	// has passed its timeout, whenever the waiter armed it.
	timedOut := func(k int) error {
		done := make(chan error, 1)
		go func() { done <- p.WaitQuorum(head, k, 30*time.Millisecond) }()
		var err error
		waitNode(t, clk, "the quorum wait timed out", func() bool {
			select {
			case err = <-done:
				return true
			default:
				return false
			}
		})
		return err
	}
	// Timeout path: nobody acks.
	if err := timedOut(1); !errors.Is(err, ErrQuorumUnavailable) {
		t.Fatalf("unacked wait = %v, want ErrQuorumUnavailable", err)
	}
	// Ack path: a follower confirms the offset mid-wait.
	done := make(chan error, 1)
	go func() { done <- p.WaitQuorum(head, 1, 5*time.Second) }()
	time.Sleep(10 * time.Millisecond)
	p.Ack("f1", head)
	if err := <-done; err != nil {
		t.Fatalf("acked wait = %v, want nil", err)
	}
	// Already-acked offsets satisfy immediately.
	if err := p.WaitQuorum(head, 1, time.Nanosecond); err != nil {
		t.Fatalf("post-ack wait = %v, want nil", err)
	}
	// Two followers needed, only one acked.
	if err := timedOut(2); !errors.Is(err, ErrQuorumUnavailable) {
		t.Fatalf("k=2 with one ack = %v, want ErrQuorumUnavailable", err)
	}
	// Drain wakes blocked waiters with a typed error.
	go func() { done <- p.WaitQuorum(head, 2, 5*time.Second) }()
	time.Sleep(10 * time.Millisecond)
	p.Drain()
	if err := <-done; !errors.Is(err, ErrQuorumUnavailable) {
		t.Fatalf("drained wait = %v, want ErrQuorumUnavailable", err)
	}
}

// A serving primary that receives a vote request for a higher epoch has been
// outlived — some majority tolerated its silence long enough to elect past
// it. Merely adopting the epoch while continuing to serve would leave two
// primaries at one epoch whenever the winner's replLead announcement is
// lost; the primary must instead step down before voting, exactly as a Raft
// leader does on seeing a higher term.
func TestHandleVoteStepsDownServingPrimary(t *testing.T) {
	fb := newFabric()
	dir := t.TempDir()
	n, st := newClusterNode(t, fb, dir, "n1", []string{"n2", "n3"}, true, "")
	defer st.Close()
	defer n.Stop()
	if err := st.Put("t", "k", []byte("v")); err != nil {
		t.Fatal(err)
	}

	pay := n.HandleVote(5, st.ReplicationHead()+10, "n2")
	if !pay.Granted {
		t.Fatalf("fresh higher-epoch candidate was refused: %+v", pay)
	}
	if got := n.Status().Role; got != RoleFollower {
		t.Fatalf("primary kept serving after granting a higher-epoch vote (role %q)", got)
	}
	if n.CurrentPrimary() != nil {
		t.Fatal("demoted node still exposes a primary surface")
	}
	if got := n.Status().Term; got != 5 {
		t.Fatalf("epoch = %d, want 5", got)
	}
	if !n.Status().Election.Fenced {
		t.Error("stepped-down primary not marked fenced")
	}
	// The vote was persisted atomically: the final file parses, no temp file
	// lingers.
	data, err := os.ReadFile(filepath.Join(dir, voteFileName))
	if err != nil {
		t.Fatal(err)
	}
	if string(data) != "5\nn2\n" {
		t.Fatalf("persisted vote = %q, want %q", data, "5\nn2\n")
	}
	if _, err := os.Stat(filepath.Join(dir, voteFileName+".tmp")); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("vote temp file left behind (stat err %v)", err)
	}

	// A candidate refused on freshness does NOT depose the leader: it cannot
	// assemble a majority without the records this node holds, so stepping
	// down would only let a flapping, behind follower disrupt a healthy
	// leadership. The primary adopts the higher epoch and keeps serving.
	n2, st2 := newClusterNode(t, fb, t.TempDir(), "m1", []string{"m2", "m3"}, true, "")
	defer st2.Close()
	defer n2.Stop()
	for i := 0; i < 3; i++ {
		if err := st2.Put("t", fmt.Sprintf("k%d", i), []byte("v")); err != nil {
			t.Fatal(err)
		}
	}
	pay = n2.HandleVote(4, 0, "m2") // candidate far behind: no vote
	if pay.Granted {
		t.Fatal("vote granted to a candidate behind the voter")
	}
	if got := n2.Status().Role; got != RolePrimary {
		t.Fatalf("primary deposed by a stale candidate it refused (role %q)", got)
	}
	if got := n2.Status().Term; got != 4 {
		t.Fatalf("refusing voter did not adopt the higher epoch: %d, want 4", got)
	}
}

// Two nodes both claiming the primary role at the same epoch (a dual primary
// however it arose — misconfiguration, a lost demotion) must resolve to
// exactly one: each watchdog sees a peer claiming leadership at an epoch it
// never won and fences itself, and the follow-up election elects one winner.
func TestDualPrimarySameEpochResolves(t *testing.T) {
	fb := newFabric()
	addrs := []string{"n1", "n2", "n3"}
	others := func(self string) []string {
		var out []string
		for _, a := range addrs {
			if a != self {
				out = append(out, a)
			}
		}
		return out
	}
	clk := manualClock(t)
	nodes := make(map[string]*Node)
	stores := make(map[string]*storage.Store)
	nodes["n1"], stores["n1"] = newClusterNode(t, fb, t.TempDir(), "n1", others("n1"), true, "")
	nodes["n2"], stores["n2"] = newClusterNode(t, fb, t.TempDir(), "n2", others("n2"), true, "") // the impostor
	nodes["n3"], stores["n3"] = newClusterNode(t, fb, t.TempDir(), "n3", others("n3"), false, "n1")
	for _, a := range addrs {
		if err := nodes[a].Start(); err != nil {
			t.Fatal(err)
		}
	}
	defer func() {
		stepWhile(t, clk, "the nodes stopped", func() {
			for _, a := range addrs {
				nodes[a].Stop()
			}
		})
		for _, a := range addrs {
			stores[a].Close()
		}
	}()

	waitNode(t, clk, "exactly one primary with unanimous followers", func() bool {
		var primaries []string
		for _, a := range addrs {
			if nodes[a].Status().Role == RolePrimary {
				primaries = append(primaries, a)
			}
		}
		if len(primaries) != 1 {
			return false
		}
		for _, a := range addrs {
			if nodes[a].Status().Leader != primaries[0] {
				return false
			}
		}
		return true
	})
}

// An existing but unparsable vote file must refuse to start the node: the
// persisted vote is the only thing standing between a restart and a double
// vote, so silently resetting to (0, "") would re-enable exactly the
// two-leaders-in-one-epoch split the persistence exists to prevent.
func TestCorruptVoteFileRefusesStart(t *testing.T) {
	fb := newFabric()
	for _, body := range []string{"garbage\n", "12"} {
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, voteFileName), []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
		st, err := storage.Open(dir, storage.WithReplication())
		if err != nil {
			t.Fatal(err)
		}
		_, err = NewNode(NodeConfig{
			Self:  "n1",
			Peers: []string{"n2"},
			Store: st,
			Dial:  func(addr string) (Peer, error) { return fabricPeer{fb: fb, from: "n1", addr: addr}, nil },
		})
		st.Close()
		if err == nil {
			t.Fatalf("NewNode accepted corrupt vote file %q", body)
		}
	}

	// An absent file stays a clean fresh start.
	dir := t.TempDir()
	st, err := storage.Open(dir, storage.WithReplication())
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	n, err := NewNode(NodeConfig{
		Self:  "n1",
		Peers: []string{"n2"},
		Store: st,
		Dial:  func(addr string) (Peer, error) { return fabricPeer{fb: fb, from: "n1", addr: addr}, nil },
	})
	if err != nil {
		t.Fatalf("fresh node refused to start: %v", err)
	}
	n.Stop()
}

// A node without peers keeps the role it booted in: over ten election
// timeouts a follower whose primary is unreachable never stands, a primary
// never probes, neither dials anyone but the follower its one leader, and
// both refuse the election exchanges.
func TestNodeWithoutPeersIdles(t *testing.T) {
	for _, primary := range []bool{true, false} {
		name := map[bool]string{true: "primary", false: "follower"}[primary]
		t.Run(name, func(t *testing.T) {
			clk := manualClock(t)
			reg := telemetry.NewRegistry()
			fb := newFabric()
			dir := t.TempDir()
			st, err := storage.Open(dir, storage.WithReplication())
			if err != nil {
				t.Fatal(err)
			}
			defer st.Close()
			var dialMu sync.Mutex
			var dialed []string
			cfg := NodeConfig{
				Store: st,
				Dial: func(addr string) (Peer, error) {
					dialMu.Lock()
					dialed = append(dialed, addr)
					dialMu.Unlock()
					return fabricPeer{fb: fb, from: name, addr: addr}, nil
				},
				InitialPrimary:  primary,
				ElectionTimeout: testElectionTimeout,
				Telemetry:       reg,
			}
			wantDialed := 0
			if !primary {
				cfg.InitialLeader, wantDialed = "gone", 1 // nothing registered: every exchange fails
			}
			n, err := NewNode(cfg)
			if err != nil {
				t.Fatal(err)
			}
			if err := n.Start(); err != nil {
				t.Fatal(err)
			}
			defer n.Stop()
			waitWindows(t, clk, 10)

			if got := reg.Snapshot()["nnexus_elections_total"]; got != float64(0) {
				t.Errorf("nnexus_elections_total = %v after 10 election timeouts, want 0", got)
			}
			dialMu.Lock()
			if len(dialed) != wantDialed {
				t.Errorf("dialed %q, want %d address(es)", dialed, wantDialed)
			}
			dialMu.Unlock()
			if st := n.Status(); (st.Role == RolePrimary) != primary || st.Term != 0 {
				t.Errorf("role %s epoch %d, want the boot role under epoch 0", st.Role, st.Term)
			}
			if _, err := n.Elector(); err == nil {
				t.Error("a node without peers offered to answer the election exchanges")
			}
			if st := n.Status(); st.Election != nil {
				t.Errorf("Status().Election = %+v, want nil", st.Election)
			}
		})
	}
}

// NewNode asks for a replication log and an address only of a node that can
// ever serve the log or stand: a read replica's store retains no record log.
func TestNewNodeRequirements(t *testing.T) {
	plain, err := storage.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer plain.Close()
	dial := func(addr string) (Peer, error) { return fabricPeer{fb: newFabric(), addr: addr}, nil }

	for name, cfg := range map[string]NodeConfig{
		"peers over a store without a log":   {Self: "a", Peers: []string{"b"}, Store: plain, Dial: dial, InitialLeader: "b"},
		"primary over a store without a log": {Store: plain, InitialPrimary: true},
		"peers without a self address":       {Peers: []string{"b"}, Store: plain, Dial: dial, InitialLeader: "b"},
		"a leader and no dial function":      {Store: plain, InitialLeader: "b"},
		"no store":                           {InitialLeader: "b", Dial: dial},
	} {
		if n, err := NewNode(cfg); err == nil {
			n.Stop()
			t.Errorf("%s: accepted", name)
		}
	}

	n, err := NewNode(NodeConfig{Store: plain, Dial: dial, InitialLeader: "b"})
	if err != nil {
		t.Fatalf("a follower without peers over a store without a log: %v", err)
	}
	defer n.Stop()
	if err := n.CheckWritable(); err == nil || n.Status().Leader != "b" {
		t.Errorf("CheckWritable = %v, leader %q; want a refusal naming b", err, n.Status().Leader)
	}
}
