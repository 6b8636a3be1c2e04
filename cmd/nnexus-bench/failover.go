package main

// The failover availability experiment (-exp openloop -kill-primary): a
// 3-node election-enabled cluster assembled from the public facade takes
// open-loop write-heavy traffic, the primary is killed abruptly halfway
// through the window, and the measurement is the availability gap — the
// wall time between the kill and the first write acknowledged by the
// automatically elected successor, with no operator in the loop. Unlike
// -kill-replica (which degrades a read replica behind the static
// primary/follower topology), this runs the full election + fencing +
// client-re-discovery machinery end to end.

import (
	"errors"
	"fmt"
	"strings"
	"sync/atomic"
	"time"

	"nnexus"
	"nnexus/internal/cluster"
	"nnexus/internal/loadgen"
	"nnexus/internal/workload"
)

const failoverSeedEntries = 60

// availabilityGap times a primary kill: from the moment it starts to the
// first write acknowledged afterwards. A write counts as resumed only if it
// was issued after the kill returned — one issued earlier may have been
// acknowledged by the dying primary before its server closed, which would
// read as a near-zero gap. All times are UnixNano; zero means not yet.
type availabilityGap struct {
	killStart, killDone, resumed atomic.Int64
}

// kill runs kill, recording when it started and when it returned.
func (g *availabilityGap) kill(kill func()) {
	g.killStart.Store(time.Now().UnixNano())
	kill()
	g.killDone.Store(time.Now().UnixNano())
}

// write records the outcome of a write issued at issued.
func (g *availabilityGap) write(issued time.Time, err error) {
	if done := g.killDone.Load(); err == nil && done != 0 && issued.UnixNano() > done {
		g.resumed.CompareAndSwap(0, time.Now().UnixNano())
	}
}

// gap returns the availability gap, or -1 if writes never resumed.
func (g *availabilityGap) gap() time.Duration {
	if r := g.resumed.Load(); r != 0 {
		return time.Duration(r - g.killStart.Load())
	}
	return -1
}

// runOpenLoopFailover is the -kill-primary variant of the open-loop
// experiment. It uses the first rate of the -rates ladder (the kill makes
// later steps meaningless: the cluster under test changes mid-sweep) and
// stretches short -duration windows so the election has room to complete
// inside the measured window.
func runOpenLoopFailover(c *workload.Corpus, opt openLoopOptions) error {
	rates, err := parseRates(opt.rates)
	if err != nil {
		return err
	}
	rate := rates[0]
	dur := opt.duration
	if dur < 8*time.Second {
		dur = 8 * time.Second
	}
	electionTimeout := time.Second

	fmt.Println("Failover availability: 3-node election-enabled cluster, primary killed")
	fmt.Println("abruptly mid-window under open-loop write-heavy traffic")
	fmt.Printf("(%.0f req/s Poisson, 70%% reads / 30%% writes, %v window, kill at %v,\n",
		rate, dur, dur/2)
	fmt.Printf(" election timeout %v, quorum acks 1)\n", electionTimeout)
	fmt.Println(strings.Repeat("-", 78))

	nodes, err := cluster.Start(3, func(i int, addrs []string, dir string) nnexus.Config {
		cfg := nnexus.Config{
			Scheme:          c.Scheme,
			DataDir:         dir,
			ClusterPeers:    cluster.Peers(addrs, i),
			AdvertiseAddr:   addrs[i],
			ElectionTimeout: electionTimeout,
			QuorumAcks:      1,
			QuorumTimeout:   5 * time.Second,
			ReplicaName:     fmt.Sprintf("node%d", i),
		}
		if i == 0 {
			cfg.ReplicationPrimary = true
		} else {
			cfg.FollowPrimary = addrs[0]
		}
		return cfg
	})
	if err != nil {
		return err
	}
	defer nodes.Close()
	addrs, engines := nodes.Addrs, nodes.Engines

	// Seed the corpus through the wire so it replicates to the followers.
	seedClient, err := nnexus.Dial(addrs[0], nnexus.WithCallTimeout(5*time.Second))
	if err != nil {
		return err
	}
	defer seedClient.Close()
	if err := seedClient.AddDomain(nnexus.Domain{
		Name: "planetmath.org", URLTemplate: "http://planetmath.org/{id}", Scheme: "msc",
	}); err != nil {
		return err
	}
	classes := c.Entries[len(c.Entries)/3].Entry.Classes
	ids := make([]int64, 0, failoverSeedEntries)
	for i := 0; i < failoverSeedEntries && i < len(c.Entries); i++ {
		id, err := seedClient.AddEntry(&nnexus.Entry{
			Domain:  "planetmath.org",
			Title:   fmt.Sprintf("%s (%d)", c.Entries[i].Entry.Title, i),
			Classes: classes,
		})
		if err != nil {
			return err
		}
		ids = append(ids, id)
	}
	fmt.Printf("cluster ready: %d entries seeded, primary %s\n\n", len(ids), addrs[0])

	// Replica-aware clients: reads route across followers, writes follow
	// the leader hint and re-discover the primary on failure.
	clients := make([]*nnexus.Client, opt.conns)
	for i := range clients {
		cl, err := nnexus.Dial(addrs[0],
			nnexus.WithReplicas(addrs[1], addrs[2]),
			nnexus.WithReplicaProbeInterval(50*time.Millisecond),
			nnexus.WithCallTimeout(3*time.Second),
			nnexus.WithMaxRetries(1))
		if err != nil {
			return err
		}
		defer cl.Close()
		clients[i] = cl
	}

	var (
		avail    availabilityGap // the headline number
		writeSeq atomic.Int64
	)
	target := func(w int, ev loadgen.Event) error {
		cl := clients[w%len(clients)]
		switch ev.Kind {
		case loadgen.OpWrite:
			n := writeSeq.Add(1)
			issued := time.Now()
			_, err := cl.AddEntry(&nnexus.Entry{
				Domain:  "planetmath.org",
				Title:   fmt.Sprintf("failover write %d", n),
				Classes: classes,
			})
			avail.write(issued, err)
			return err
		default:
			_, err := cl.GetEntry(ids[ev.Key%len(ids)])
			return err
		}
	}
	classify := func(err error) string {
		if errors.Is(err, nnexus.ErrNoPrimary) {
			return "no-primary"
		}
		return "other"
	}
	script := []loadgen.ScriptEvent{{
		At: dur / 2, Name: "primary-kill",
		Fire: func() {
			go avail.kill(func() { nodes.Kill(0) }) // teardown can block; the schedule must not
		},
	}}

	events := loadgen.Generate(loadgen.Params{
		Seed:     opt.seed,
		Schedule: loadgen.NewPoisson(rate),
		Duration: dur,
		Mix:      loadgen.Mix{Read: 0.7, Write: 0.3},
		Keys:     len(ids),
		ZipfS:    1.2,
	})
	res, err := loadgen.Run{
		Events:   events,
		Script:   script,
		Duration: dur,
		Workers:  opt.conns * opt.window,
		Target:   target,
		Classify: classify,
		Drain:    5 * time.Second,
	}.Do()
	if err != nil {
		return err
	}

	// Post-run: exactly one surviving primary must exist, the one the
	// resumed writes landed on.
	winner := -1
	deadline := time.Now().Add(15 * time.Second)
	for time.Now().Before(deadline) {
		winner = -1
		n := 0
		for _, i := range []int{1, 2} {
			if engines[i].Replication().Role == "primary" {
				n++
				winner = i
			}
		}
		if n == 1 {
			break
		}
		winner = -1
		time.Sleep(50 * time.Millisecond)
	}
	if winner == -1 {
		return fmt.Errorf("no single primary emerged within 15s of the kill")
	}
	epoch := engines[winner].Replication().Term

	p, gap := res.Point(), avail.gap()
	fmt.Printf("%9s %9s %8s %10s %10s %7s %12s\n",
		"offered", "achieved", "ratio", "p50", "p99", "errors", "avail gap")
	fmt.Printf("%9.0f %9.0f %7.1f%% %10v %10v %7d %12v\n",
		p.Offered, p.Achieved, 100*res.AchievedRatio(),
		p.P50.Round(100*time.Microsecond), p.P99.Round(100*time.Microsecond),
		res.Failed(), gap.Round(time.Millisecond))
	for class, n := range res.Errors {
		fmt.Printf("  errors[%s] = %d\n", class, n)
	}
	if gap < 0 {
		return fmt.Errorf("writes never resumed after the kill")
	}
	fmt.Printf("\nprimary killed at t=%v; writes resumed %v later on node%d (epoch %v)\n",
		dur/2, gap.Round(time.Millisecond), winner, epoch)
	fmt.Println("(the gap spans failure detection, the election, promotion, and the")
	fmt.Println(" client's re-discovery of the new primary — no operator involved)")
	return nil
}
