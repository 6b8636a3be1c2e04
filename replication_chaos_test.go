package nnexus_test

// Cluster chaos: one primary and two read replicas assembled entirely from
// the public facade, with each follower's replication stream routed through
// a netsim link so the test can partition, drop, and heal it. Verifies the
// acceptance scenario end to end: bounded-staleness reads under partition,
// convergence after heal, and read failover + typed write errors after
// primary loss.

import (
	"errors"
	"fmt"
	"testing"
	"time"

	"nnexus"
	"nnexus/internal/cluster"
	"nnexus/internal/netsim"
)

const chaosClasses = "05C10"

func waitFor(t *testing.T, what string, pred func() bool) {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for !pred() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// startCluster boots n nodes through the one cluster fixture and stops them
// when the test ends.
func startCluster(t testing.TB, n int, config func(i int, addrs []string, dir string) nnexus.Config) *cluster.Cluster {
	t.Helper()
	cl, err := cluster.Start(n, config)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(cl.Close)
	return cl
}

// startReplicas boots a primary without peers (node 0) and n read replicas of
// it (nodes 1..n, named f1..fn), each replica's replication stream running
// through a netsim link of its own: links[i] is node i's, links[0] is nil.
func startReplicas(t *testing.T, n int) (*cluster.Cluster, []*netsim.Link) {
	t.Helper()
	links := make([]*netsim.Link, n+1)
	cl := startCluster(t, n+1, func(i int, addrs []string, dir string) nnexus.Config {
		cfg := nnexus.Config{Scheme: nnexus.SampleMSC(10), DataDir: dir, ReplicationPrimary: i == 0}
		if i > 0 {
			link, err := netsim.NewLink(addrs[0], time.Millisecond)
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(link.Close)
			links[i] = link
			cfg.FollowPrimary, cfg.ReplicaName = link.Addr(), fmt.Sprintf("f%d", i)
		}
		return cfg
	})
	return cl, links
}

func TestChaosReplClusterPartitionHealFailover(t *testing.T) {
	// A primary and two followers, each streaming through its own
	// partitionable link.
	cl, links := startReplicas(t, 2)
	pEngine, f1Engine, f2Engine := cl.Engines[0], cl.Engines[1], cl.Engines[2]
	pAddr, f1Addr, f2Addr := cl.Addrs[0], cl.Addrs[1], cl.Addrs[2]
	link1 := links[1]

	primaryHead := func() uint64 {
		return pEngine.Replication().Head
	}
	applied := func(e *nnexus.Engine) uint64 {
		return e.Replication().Applied
	}
	synced := func(e *nnexus.Engine) bool {
		return e.Replication().Synced
	}

	// The replica-aware client: writes pin to the primary, reads spread
	// across caught-up followers within a 4-record staleness bound.
	c, err := nnexus.Dial(pAddr,
		nnexus.WithReplicas(f1Addr, f2Addr),
		nnexus.WithStalenessBound(4),
		nnexus.WithReplicaProbeInterval(20*time.Millisecond))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	// Seed through the client (lands on the primary), then wait for both
	// followers to mirror it.
	if err := c.AddDomain(nnexus.Domain{
		Name: "planetmath.org", URLTemplate: "http://pm/{id}", Scheme: "msc", Priority: 1,
	}); err != nil {
		t.Fatal(err)
	}
	ids := make([]int64, 0, 15)
	titles := make(map[int64]string)
	addEntry := func(i int) {
		t.Helper()
		title := fmt.Sprintf("concept %d", i)
		id, err := c.AddEntry(&nnexus.Entry{
			Domain: "planetmath.org", Title: title, Classes: []string{chaosClasses},
		})
		if err != nil {
			t.Fatalf("add %q: %v", title, err)
		}
		ids = append(ids, id)
		titles[id] = title
	}
	for i := 0; i < 10; i++ {
		addEntry(i)
	}
	waitFor(t, "both followers caught up", func() bool {
		h := primaryHead()
		return applied(f1Engine) == h && applied(f2Engine) == h &&
			synced(f1Engine) && synced(f2Engine)
	})

	// Steady state: every entry readable through the routed client.
	for _, id := range ids {
		e, err := c.GetEntry(id)
		if err != nil || e.Title != titles[id] {
			t.Fatalf("steady-state read %d = %+v, %v", id, e, err)
		}
	}

	// --- Partition follower 1 from the primary (client links stay up). ---
	link1.Partition(true)
	link1.DropConnections() // kill the in-flight subscribe so f1 notices now
	waitFor(t, "f1 marked unsynced", func() bool { return !synced(f1Engine) })

	// Writes keep flowing; follower 2 keeps up, follower 1 falls behind.
	for i := 10; i < 15; i++ {
		addEntry(i)
	}
	waitFor(t, "f2 caught up past the partition", func() bool {
		return applied(f2Engine) == primaryHead() && synced(f2Engine)
	})
	if a := applied(f1Engine); a >= primaryHead() {
		t.Fatalf("partitioned follower applied %d of %d — partition leaked", a, primaryHead())
	}

	// Give the routing probe a few cycles to observe f1's staleness, then
	// read the new entries repeatedly: every read must see them (a read
	// landing on stale f1 would miss them — the staleness bound plus the
	// stale flag must keep it out of rotation).
	time.Sleep(100 * time.Millisecond)
	for round := 0; round < 3; round++ {
		for _, id := range ids[10:] {
			e, err := c.GetEntry(id)
			if err != nil || e.Title != titles[id] {
				t.Fatalf("read of %d under partition = %+v, %v", id, e, err)
			}
		}
	}

	// --- Heal: follower 1 catches up and the cluster reconverges. ---
	link1.Heal()
	waitFor(t, "f1 reconverged after heal", func() bool {
		return applied(f1Engine) == primaryHead() && synced(f1Engine)
	})
	for name, addr := range map[string]string{"f1": f1Addr, "f2": f2Addr} {
		direct, err := nnexus.Dial(addr)
		if err != nil {
			t.Fatal(err)
		}
		for _, id := range ids {
			e, err := direct.GetEntry(id)
			if err != nil || e.Title != titles[id] {
				t.Fatalf("%s diverged on entry %d: %+v, %v", name, id, e, err)
			}
		}
		linked, err := direct.LinkText("concept 12 is a concept", nil, "", "", "")
		if err != nil || len(linked.Links) == 0 {
			t.Fatalf("%s linkText from replicated state = %+v, %v", name, linked, err)
		}
		direct.Close()
	}

	// --- Primary loss: reads fail over, writes fail typed. ---
	cl.Kill(0)
	waitFor(t, "followers noticed the dead primary", func() bool {
		return !synced(f1Engine) && !synced(f2Engine)
	})
	for _, id := range ids {
		e, err := c.GetEntry(id)
		if err != nil || e.Title != titles[id] {
			t.Fatalf("failover read %d = %+v, %v", id, e, err)
		}
	}
	_, err = c.AddEntry(&nnexus.Entry{
		Domain: "planetmath.org", Title: "doomed", Classes: []string{chaosClasses},
	})
	if !errors.Is(err, nnexus.ErrNoPrimary) {
		t.Fatalf("write after primary loss = %v, want ErrNoPrimary", err)
	}
}

// TestChaosReplFollowerRestartResumes kills a read replica and restarts it
// against its data directory and address: it replays its own WAL, rejoins the
// stream at its applied offset, and the primary serves it no second snapshot.
func TestChaosReplFollowerRestartResumes(t *testing.T) {
	cl := startCluster(t, 2, func(i int, addrs []string, dir string) nnexus.Config {
		cfg := nnexus.Config{Scheme: nnexus.SampleMSC(10), DataDir: dir, ReplicationPrimary: i == 0}
		if i > 0 {
			cfg.FollowPrimary, cfg.ReplicaName = addrs[0], "f1"
		}
		return cfg
	})
	primary := cl.Engines[0]
	if err := primary.AddDomain(nnexus.Domain{
		Name: "planetmath.org", URLTemplate: "http://pm/{id}", Scheme: "msc", Priority: 1,
	}); err != nil {
		t.Fatal(err)
	}
	add := func(title string) int64 {
		t.Helper()
		id, err := primary.AddEntry(&nnexus.Entry{Domain: "planetmath.org", Title: title, Classes: []string{chaosClasses}})
		if err != nil {
			t.Fatal(err)
		}
		return id
	}
	add("before the restart")
	if _, err := cl.WaitCaughtUp(0, 30*time.Second); err != nil {
		t.Fatal(err)
	}
	const snapshotsServed = `nnexus_tcp_requests_total{method="replSnapshot"}`
	bootstraps := scrapeMetric(t, primary, snapshotsServed)
	if bootstraps != 1 {
		t.Fatalf("the first contact took %v snapshots, want 1", bootstraps)
	}

	cl.Kill(1)
	missed := add("while it was down")
	if err := cl.Restart(1); err != nil {
		t.Fatal(err)
	}
	if _, err := cl.WaitCaughtUp(0, 30*time.Second); err != nil {
		t.Fatal(err)
	}
	if e, ok := cl.Engines[1].Entry(missed); !ok || e.Title != "while it was down" {
		t.Fatalf("the restarted replica lacks the entry written while it was down: %+v", e)
	}
	if got := scrapeMetric(t, primary, snapshotsServed); got != bootstraps {
		t.Fatalf("the restarted replica re-bootstrapped: %v snapshots served, want still %v", got, bootstraps)
	}
}
