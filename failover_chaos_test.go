package nnexus_test

// Failover chaos: a three-node cluster assembled entirely from the public
// facade, with the primary killed abruptly at every WAL record boundary
// while concurrent quorum-acknowledged writes are in flight. The acceptance
// bar: no quorum-acked write is ever lost, exactly one primary exists after
// convergence, writes resume through the same client within a bounded
// window, and a restarted old primary fences itself — all with no human in
// the loop.

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"nnexus"
	"nnexus/internal/clock"
	"nnexus/internal/cluster"
)

// failoverElectionTimeout keeps detection fast without racing the follower
// long-poll (the facade sizes the poll to a quarter of this).
const failoverElectionTimeout = time.Second

type failoverCluster struct {
	*cluster.Cluster
	clk *clock.Manual // nil on the wall clock
}

// startFailoverCluster boots node 0 as the initial primary and nodes 1, 2
// as followers, every node election-enabled with quorum-acked writes, on a
// manual clock that the test steps (fc.step) whenever it waits for a node.
// The clock is installed before the nodes boot, so that the cleanups stopping
// them run before the one restoring it; they stop while the clock steps.
func startFailoverCluster(t *testing.T) failoverCluster {
	t.Helper()
	clk := clock.NewManual(time.Now())
	t.Cleanup(clock.Install(clk))
	fc := startFailoverClusterAcks(t, 1)
	fc.clk = clk
	t.Cleanup(func() {
		stopped := make(chan struct{})
		go func() {
			defer close(stopped)
			fc.Close()
		}()
		fc.step(t, "the cluster stopped", func() bool {
			select {
			case <-stopped:
				return true
			default:
				return false
			}
		})
	})
	return fc
}

// startFailoverClusterAcks is startFailoverCluster with an explicit write
// acknowledgement level (0 = primary durability only), on the wall clock.
func startFailoverClusterAcks(t testing.TB, quorumAcks int) failoverCluster {
	t.Helper()
	return failoverCluster{Cluster: startCluster(t, 3, func(i int, addrs []string, dir string) nnexus.Config {
		cfg := nnexus.Config{
			Scheme:          nnexus.SampleMSC(10),
			DataDir:         dir,
			ClusterPeers:    cluster.Peers(addrs, i),
			AdvertiseAddr:   addrs[i],
			ElectionTimeout: failoverElectionTimeout,
			QuorumAcks:      quorumAcks,
			QuorumTimeout:   5 * time.Second,
			ReplicaName:     fmt.Sprintf("node%d", i),
		}
		if i == 0 {
			cfg.ReplicationPrimary = true
		} else {
			cfg.FollowPrimary = addrs[0]
		}
		return cfg
	})}
}

func (fc failoverCluster) role(i int) string {
	if fc.Engines[i] == nil {
		return "dead"
	}
	st := fc.Engines[i].Replication()
	if st.Election == nil {
		return "none"
	}
	return st.Role
}

// step polls pred every 10 ms of real time, advancing the cluster's clock by
// an eighth of the election timeout before each poll (about one tick of a
// node's election loop), and fails the test when pred has not held within
// 30 s.
func (fc failoverCluster) step(t *testing.T, what string, pred func() bool) {
	t.Helper()
	for deadline := time.Now().Add(30 * time.Second); !pred(); time.Sleep(10 * time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		fc.clk.Advance(failoverElectionTimeout / 8)
	}
}

// awaitSinglePrimary waits for the surviving followers to elect exactly one
// primary and for that leadership to be stable, returning the winner index.
func (fc failoverCluster) awaitSinglePrimary(t *testing.T, among []int) int {
	t.Helper()
	winner := -1
	fc.step(t, "a single primary after failover", func() bool {
		winner = -1
		for _, i := range among {
			if fc.role(i) == "primary" {
				if winner != -1 {
					return false // split — must resolve
				}
				winner = i
			}
		}
		return winner != -1
	})
	// Stability: still exactly one primary after two more election windows.
	end := fc.clk.Now().Add(2 * failoverElectionTimeout)
	fc.step(t, "two election windows", func() bool { return !fc.clk.Now().Before(end) })
	n := 0
	for _, i := range among {
		if fc.role(i) == "primary" {
			n++
		}
	}
	if n != 1 || fc.role(winner) != "primary" {
		t.Fatalf("leadership unstable: %d primaries, winner role %q", n, fc.role(winner))
	}
	return winner
}

// ackedWrites is the concurrent record of quorum-acknowledged entries: only
// a write whose AddEntry call returned success (meaning the server gathered
// the quorum) may be asserted durable.
type ackedWrites struct {
	mu     sync.Mutex
	ids    map[int64]string // id -> title
	firstA time.Time        // first ack after the kill, on the node clock
	kill   time.Time        // on the node clock
}

func (a *ackedWrites) record(id int64, title string) {
	a.mu.Lock()
	defer a.mu.Unlock()
	a.ids[id] = title
	if !a.kill.IsZero() && a.firstA.IsZero() {
		a.firstA = clock.Now()
	}
}

func (a *ackedWrites) markKill() {
	a.mu.Lock()
	a.kill = clock.Now()
	a.mu.Unlock()
}

func (a *ackedWrites) postKillAcks() int {
	a.mu.Lock()
	defer a.mu.Unlock()
	if a.firstA.IsZero() {
		return 0
	}
	n := 0
	for range a.ids {
		n++
	}
	return n
}

func (a *ackedWrites) availabilityGap() time.Duration {
	a.mu.Lock()
	defer a.mu.Unlock()
	if a.kill.IsZero() || a.firstA.IsZero() {
		return -1
	}
	return a.firstA.Sub(a.kill)
}

// TestChaosFailover kills the primary at every WAL record boundary of a
// short history, each time with a concurrent quorum-write burst in flight,
// and asserts the full failover contract on what remains.
func TestChaosFailover(t *testing.T) {
	if testing.Short() {
		t.Skip("failover chaos matrix is not -short")
	}
	// Boundary k: the primary dies when its WAL head sits exactly at the
	// record written by seed entry k-1 (the domain registration is record 1;
	// each entry appends one record carrying the entry, the nextID counter
	// and the invalidation flags it set, so seeding walks heads 1, 2, 3,
	// ...). One mutation is one record, so those are every boundary there
	// is; the concurrent burst plus the abrupt kill lands the teardown
	// inside an append. Every boundary gets its own fresh cluster.
	for k := 1; k <= 5; k++ {
		k := k
		t.Run(fmt.Sprintf("kill_at_boundary_%d", k), func(t *testing.T) {
			fc := startFailoverCluster(t)
			c, err := nnexus.Dial(fc.Addrs[0],
				nnexus.WithReplicas(fc.Addrs[1], fc.Addrs[2]),
				nnexus.WithReplicaProbeInterval(25*time.Millisecond),
				nnexus.WithCallTimeout(3*time.Second),
				nnexus.WithMaxRetries(1))
			if err != nil {
				t.Fatal(err)
			}
			defer c.Close()
			if err := c.AddDomain(nnexus.Domain{
				Name: "planetmath.org", URLTemplate: "http://planetmath.org/{id}", Scheme: "msc",
			}); err != nil {
				t.Fatal(err)
			}

			acked := &ackedWrites{ids: make(map[int64]string)}
			// Seed sequentially up to exactly the kill boundary.
			for i := 0; i < k-1; i++ {
				title := fmt.Sprintf("seed %d %d", k, i)
				id, err := c.AddEntry(&nnexus.Entry{
					Domain: "planetmath.org", Title: title, Classes: []string{chaosClasses},
				})
				if err != nil {
					t.Fatal(err)
				}
				acked.record(id, title)
			}
			wantHead := uint64(k)
			if head := fc.Engines[0].Replication().Head; head != wantHead {
				t.Fatalf("head before kill = %d, want %d", head, wantHead)
			}

			// Concurrent quorum-write burst; the kill lands inside it.
			var wg sync.WaitGroup
			stop := make(chan struct{})
			for g := 0; g < 3; g++ {
				wg.Add(1)
				go func(g int) {
					defer wg.Done()
					for i := 0; ; i++ {
						select {
						case <-stop:
							return
						default:
						}
						title := fmt.Sprintf("burst %d %d %d", k, g, i)
						id, err := c.AddEntry(&nnexus.Entry{
							Domain: "planetmath.org", Title: title, Classes: []string{chaosClasses},
						})
						if err == nil {
							acked.record(id, title)
						}
						// Failures are legitimate mid-failover (ErrNoPrimary,
						// quorumUnavailable, fate-unknown): such writes are
						// simply not in the acked set.
					}
				}(g)
			}
			time.Sleep(5 * time.Millisecond) // let the burst reach the wire
			acked.markKill()
			fc.Kill(0)

			// The cluster must recover with no human in the loop: writes
			// resume through the SAME client against the elected primary.
			fc.step(t, "writes resumed after the kill", func() bool {
				return acked.postKillAcks() > 0
			})
			deadline := time.Now().Add(2 * time.Second)
			fc.step(t, "more writes", func() bool {
				return acked.postKillAcks() >= 5 || time.Now().After(deadline)
			})
			close(stop)
			wg.Wait()

			// The gap is node time (20 election timeouts), which the step
			// helper advances; a write acked between markKill and the kill
			// can close it at 0.
			if gap := acked.availabilityGap(); gap < 0 || gap > 20*time.Second {
				t.Fatalf("availability gap = %v, want bounded [0, 20s] of node time", gap)
			}
			winner := fc.awaitSinglePrimary(t, []int{1, 2})

			// Zero quorum-acked writes lost: every acked entry is readable,
			// with its exact content, from the new primary.
			direct, err := nnexus.Dial(fc.Addrs[winner])
			if err != nil {
				t.Fatal(err)
			}
			defer direct.Close()
			acked.mu.Lock()
			snapshot := make(map[int64]string, len(acked.ids))
			for id, title := range acked.ids {
				snapshot[id] = title
			}
			acked.mu.Unlock()
			for id, title := range snapshot {
				e, err := direct.GetEntry(id)
				if err != nil || e == nil || e.Title != title {
					t.Fatalf("acked entry %d lost after failover: %+v, %v", id, e, err)
				}
			}
			t.Logf("boundary %d: %d acked writes survived, availability gap %v, winner node%d",
				k, len(snapshot), acked.availabilityGap(), winner)
		})
	}
}

// TestChaosFailoverOldPrimaryFenced restarts a deposed primary against its
// original data directory and address: it must discover the higher epoch on
// its own, demote without serving a single divergent write, and converge on
// the new primary's history.
func TestChaosFailoverOldPrimaryFenced(t *testing.T) {
	if testing.Short() {
		t.Skip("failover chaos is not -short")
	}
	fc := startFailoverCluster(t)
	c, err := nnexus.Dial(fc.Addrs[0],
		nnexus.WithReplicas(fc.Addrs[1], fc.Addrs[2]),
		nnexus.WithReplicaProbeInterval(25*time.Millisecond),
		nnexus.WithCallTimeout(3*time.Second),
		nnexus.WithMaxRetries(1))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := c.AddDomain(nnexus.Domain{
		Name: "planetmath.org", URLTemplate: "http://planetmath.org/{id}", Scheme: "msc",
	}); err != nil {
		t.Fatal(err)
	}
	titles := make(map[int64]string)
	for i := 0; i < 5; i++ {
		title := fmt.Sprintf("pre-kill %d", i)
		id, err := c.AddEntry(&nnexus.Entry{
			Domain: "planetmath.org", Title: title, Classes: []string{chaosClasses},
		})
		if err != nil {
			t.Fatal(err)
		}
		titles[id] = title
	}

	fc.Kill(0)
	winner := fc.awaitSinglePrimary(t, []int{1, 2})

	// The new regime keeps writing (transparently, via the same client).
	fc.step(t, "writes resumed on the new primary", func() bool {
		title := fmt.Sprintf("post-kill %d", len(titles))
		id, err := c.AddEntry(&nnexus.Entry{
			Domain: "planetmath.org", Title: title, Classes: []string{chaosClasses},
		})
		if err != nil {
			return false
		}
		titles[id] = title
		return true
	})

	// Resurrect the old primary: same data dir, same address, still
	// believing it leads. Its first peer contact must fence it.
	if err := fc.Restart(0); err != nil {
		t.Fatal(err)
	}
	fc.step(t, "old primary fenced itself", func() bool {
		st := fc.Engines[0].Replication()
		return st.Role == "follower" && st.Election.Fenced
	})
	if got := fc.Engines[0].Replication().Leader; got != fc.Addrs[winner] {
		t.Fatalf("fenced node's leader = %q, want %q", got, fc.Addrs[winner])
	}
	// Exactly one primary across the WHOLE cluster, including the returnee.
	if n := fc.awaitSinglePrimary(t, []int{0, 1, 2}); n != winner {
		t.Fatalf("leadership moved to node%d after the old primary returned", n)
	}

	// The fenced node converges on the winner's history and serves it.
	winnerHead := func() uint64 { return fc.Engines[winner].Replication().Head }
	fc.step(t, "fenced node converged", func() bool {
		st := fc.Engines[0].Replication()
		return st.Role == "follower" && st.Applied == winnerHead() && st.Synced
	})
	direct, err := nnexus.Dial(fc.Addrs[0])
	if err != nil {
		t.Fatal(err)
	}
	defer direct.Close()
	for id, title := range titles {
		e, err := direct.GetEntry(id)
		if err != nil || e == nil || e.Title != title {
			t.Fatalf("entry %d missing on the re-joined node: %+v, %v", id, e, err)
		}
	}
}
