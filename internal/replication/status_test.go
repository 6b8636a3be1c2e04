package replication

import (
	"fmt"
	"reflect"
	"testing"
	"time"

	"nnexus/internal/clock"
	"nnexus/internal/storage"
)

// idleNode builds, registers and starts a node on clk, which the test never
// advances but to stop a node: its election loop never fires, so that what
// Status reports holds still.
func idleNode(t *testing.T, clk *clock.Manual, fb *fabric, self string, peers []string, primary bool, leader string) (*Node, *storage.Store) {
	t.Helper()
	st, err := storage.Open(t.TempDir(), storage.WithReplication())
	if err != nil {
		t.Fatal(err)
	}
	n, err := NewNode(NodeConfig{
		Self:           self,
		Peers:          peers,
		Store:          st,
		Dial:           func(addr string) (Peer, error) { return fabricPeer{fb: fb, from: self, addr: addr}, nil },
		InitialPrimary: primary,
		InitialLeader:  leader,
		Name:           self,
		Wait:           20 * time.Millisecond,
	})
	if err != nil {
		st.Close()
		t.Fatal(err)
	}
	fb.register(self, n)
	if err := n.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		stepWhile(t, clk, self+" stopped", n.Stop)
		st.Close()
	})
	return n, st
}

// Status reports each kind of node whole: its role and leader, the election
// term and the history epoch apart, its place in the WAL, its followers' lag
// on a primary, and the election part only in a failover cluster.
func TestNodeStatus(t *testing.T) {
	fb := newFabric()
	clk := manualClock(t)

	// A primary without peers and one follower of it: three records the
	// follower applies, then two more after it stops, which it lags by.
	prim, pst := idleNode(t, clk, fb, "p", nil, true, "")
	fol, _ := idleNode(t, clk, fb, "f", nil, false, "p")
	put := func(k int) {
		if err := pst.Put("t", fmt.Sprintf("k%d", k), []byte("v")); err != nil {
			t.Fatal(err)
		}
	}
	for k := 0; k < 3; k++ {
		put(k)
	}
	waitNode(t, clk, "the follower applied 3 records", func() bool {
		st := fol.Status()
		return st.Applied == 3 && st.Synced
	})
	histEpoch := pst.ReplicationEpoch()
	follower := fol.Status()
	stepWhile(t, clk, "the follower stopped", fol.Stop)
	put(3)
	put(4)

	// A primary of a failover cluster, and another told of a newer term
	// whose winner is not yet known: it steps down to no role object.
	clustered, _ := idleNode(t, clk, fb, "c1", []string{"c2", "c3"}, true, "")
	between, bst := idleNode(t, clk, fb, "d1", []string{"d2", "d3"}, true, "")
	if err := between.HandleLead(9, ""); err != nil {
		t.Fatal(err)
	}

	var single *Node
	for _, row := range []struct {
		name string
		got  Status
		want Status
	}{
		{"single node", single.Status(), Status{Role: RoleSingle, Synced: true}},
		{"primary with one follower", prim.Status(), Status{Role: RolePrimary, Leader: "p", Epoch: histEpoch,
			Head: 5, Applied: 5, Synced: true, Followers: map[string]uint64{"f": 2}, MaxLag: 2}},
		{"follower", follower, Status{Role: RoleFollower, Leader: "p", Epoch: histEpoch,
			Head: 3, Applied: 3, Synced: true}},
		{"clustered node", clustered.Status(), Status{Role: RolePrimary, Leader: "c1", Epoch: 1,
			Synced: true, Followers: map[string]uint64{},
			Election: &ElectionStatus{Role: RolePrimary, Leader: "c1", Peers: 2}}},
		{"between roles", between.Status(), Status{Role: RoleFollower, Term: 9, Epoch: bst.ReplicationEpoch(),
			Election: &ElectionStatus{Role: RoleFollower, Term: 9, Fenced: true, Peers: 2}}},
	} {
		if e := row.got.Election; e != nil {
			if e.LastLeaderContactSeconds < 0 || e.LastLeaderContactSeconds > 60 {
				t.Errorf("%s: last leader contact %v s ago", row.name, e.LastLeaderContactSeconds)
			}
			e.LastLeaderContactSeconds = 0
		}
		if !reflect.DeepEqual(row.got, row.want) {
			t.Errorf("%s:\n got %+v %+v\nwant %+v %+v", row.name, row.got, row.got.Election, row.want, row.want.Election)
		}
	}
}
