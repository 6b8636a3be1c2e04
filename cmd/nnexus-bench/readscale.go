package main

// The read-scaling experiment: one primary and two WAL-shipped read
// replicas, every node behind a simulated-RTT link, driven by the
// replica-aware client. The baseline is the same workload against the
// primary alone. On a wire where the round trip (not the CPU) bounds a
// single connection's throughput — the regime netsim models — routed reads
// add the followers' connections to the aggregate window, so read QPS
// scales with the number of caught-up replicas while writes still pin to
// the one primary.

import (
	"fmt"
	"math/rand"
	"strings"
	"time"

	"nnexus/internal/client"
	"nnexus/internal/loadgen"
	"nnexus/internal/workload"
)

func runReadScale(c *workload.Corpus, dur, rtt time.Duration) error {
	const (
		window  = 4  // in-flight calls per connection: the per-node capacity
		workers = 24 // closed-loop drivers, enough to keep every window full
	)
	fmt.Println("Read scaling: 1 primary vs 1 primary + 2 WAL-shipped read replicas")
	fmt.Printf("(simulated RTT %v per node, pipeline window %d per connection,\n", rtt, window)
	fmt.Printf(" %d closed-loop readers, %v per configuration)\n", workers, dur)
	fmt.Println(strings.Repeat("-", 72))

	sub := c
	if len(c.Entries) > 400 {
		sub = c.Subset(400)
	}

	cl, err := startReplicaCluster(sub, rtt)
	if err != nil {
		return err
	}
	defer cl.close()
	links := cl.links
	fmt.Printf("corpus replicated: %d entries, %d WAL records on all 3 nodes\n\n",
		len(sub.Entries), cl.head)
	ids := cl.nodes.Engines[0].Entries()

	configs := []struct {
		name string
		opts []client.Option
	}{
		{"single", nil},
		{"replicated-2f", []client.Option{
			client.WithReplicas(links[1].Addr(), links[2].Addr()),
			client.WithReplicaProbeInterval(100 * time.Millisecond),
		}},
	}

	fmt.Printf("%-16s %10s %10s %10s %10s %9s\n", "config", "reads", "QPS", "avg lat", "p99", "speedup")
	var baseline float64
	for _, cfg := range configs {
		opts := append([]client.Option{
			client.WithPipelineWindow(window),
			client.WithCallTimeout(30 * time.Second),
		}, cfg.opts...)
		res, err := readConfig(links[0].Addr(), opts, len(cfg.opts) > 0, ids, workers, dur)
		if err != nil {
			return fmt.Errorf("%s: %w", cfg.name, err)
		}
		qps := res.AchievedRate()
		if baseline == 0 {
			baseline = qps
		}
		fmt.Printf("%-16s %10d %10.0f %10v %10v %8.2fx\n", cfg.name, res.Completed, qps,
			res.Service.Mean().Round(time.Microsecond), res.Service.Quantile(0.99).Round(time.Microsecond), qps/baseline)
	}
	fmt.Println("\n(QPS is aggregate getEntry throughput through the replica-aware client;")
	fmt.Println(" the replicated rows route reads across both followers while writes")
	fmt.Println(" would still pin to the primary)")
	return nil
}

// readConfig measures one client configuration: workers closed-loop
// readers issuing getEntry for random entries through one client dialed at
// the primary with opts (routed: with replicas to route reads to).
func readConfig(primary string, opts []client.Option, routed bool, ids []int64, workers int, dur time.Duration) (*loadgen.Result, error) {
	cl, err := client.Dial(primary, time.Second, opts...)
	if err != nil {
		return nil, err
	}
	defer cl.Close()
	if routed {
		// Let the lag probe mark both replicas routable before measuring.
		time.Sleep(400 * time.Millisecond)
	}
	if _, err := cl.GetEntry(ids[0]); err != nil { // warm the path
		return nil, err
	}
	rngs := make([]*rand.Rand, workers)
	for w := range rngs {
		rngs[w] = rand.New(rand.NewSource(int64(w) + 1))
	}
	return closedLoop(workers, dur, func(w int) error {
		_, err := cl.GetEntry(ids[rngs[w].Intn(len(ids))])
		return err
	})
}

// closedLoop runs workers closed-loop callers of target for dur and fails
// unless every call succeeded: a QPS only counts as capacity when nothing
// was refused. Each error's text is its class.
func closedLoop(workers int, dur time.Duration, target func(worker int) error) (*loadgen.Result, error) {
	res, err := loadgen.Closed{
		Workers:  workers,
		Duration: dur,
		Target:   target,
		Classify: error.Error,
	}.Do()
	if err != nil {
		return nil, err
	}
	if res.Failed() > 0 || res.Completed == 0 {
		return nil, fmt.Errorf("%d of %d calls failed: %v", res.Failed(), res.Issued, res.Errors)
	}
	return res, nil
}
