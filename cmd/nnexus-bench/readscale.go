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
	"runtime"
	"strings"
	"sync"
	"time"

	"nnexus/internal/benchfmt"
	"nnexus/internal/client"
	"nnexus/internal/workload"
)

func runReadScale(c *workload.Corpus, dur, rtt time.Duration, jsonOut string) error {
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

	fmt.Printf("%-16s %12s %12s %12s %9s\n", "config", "reads", "QPS", "avg lat", "speedup")
	var results []benchfmt.Benchmark
	var baseline float64
	for _, cfg := range configs {
		opts := append([]client.Option{
			client.WithPipelineWindow(window),
			client.WithCallTimeout(30 * time.Second),
		}, cfg.opts...)
		cl, err := client.Dial(links[0].Addr(), time.Second, opts...)
		if err != nil {
			return err
		}
		if len(cfg.opts) > 0 {
			// Let the lag probe mark both replicas routable before measuring.
			time.Sleep(400 * time.Millisecond)
		}
		if _, err := cl.GetEntry(ids[0]); err != nil { // warm the path
			cl.Close()
			return err
		}
		calls, elapsed, err := driveReads(cl, ids, workers, dur)
		cl.Close()
		if err != nil {
			return fmt.Errorf("%s: %w", cfg.name, err)
		}
		qps := float64(calls) / elapsed.Seconds()
		if baseline == 0 {
			baseline = qps
		}
		// Per-call latency as one closed-loop worker experiences it.
		nsPerOp := elapsed.Seconds() / float64(calls) * 1e9 * float64(workers)
		fmt.Printf("%-16s %12d %12.0f %12s %8.2fx\n", cfg.name, calls, qps,
			time.Duration(nsPerOp).Round(time.Microsecond), qps/baseline)
		metrics := map[string]float64{"qps": qps}
		if cfg.name != "single" {
			metrics["speedup_vs_single"] = qps / baseline
		}
		results = append(results, benchfmt.Benchmark{
			Name:       "ReadScale/" + cfg.name,
			Procs:      runtime.GOMAXPROCS(0),
			Iterations: calls,
			NsPerOp:    nsPerOp,
			BytesPerOp: -1, AllocsPerOp: -1,
			Metrics: metrics,
		})
	}
	fmt.Println("\n(QPS is aggregate getEntry throughput through the replica-aware client;")
	fmt.Println(" the replicated rows route reads across both followers while writes")
	fmt.Println(" would still pin to the primary)")

	if jsonOut != "" {
		if err := (benchfmt.File{Benchmarks: results}).Write(jsonOut); err != nil {
			return err
		}
		fmt.Printf("wrote %s\n", jsonOut)
	}
	return nil
}

// driveReads issues closed-loop getEntry calls from `workers` goroutines
// against cl until dur elapses, returning the number of completed calls and
// the measured wall time.
func driveReads(cl *client.Client, ids []int64, workers int, dur time.Duration) (int64, time.Duration, error) {
	var (
		wg       sync.WaitGroup
		mu       sync.Mutex
		total    int64
		firstErr error
	)
	deadline := time.Now().Add(dur)
	start := time.Now()
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			var n int64
			for time.Now().Before(deadline) {
				if _, err := cl.GetEntry(ids[rng.Intn(len(ids))]); err != nil {
					mu.Lock()
					if firstErr == nil {
						firstErr = err
					}
					mu.Unlock()
					return
				}
				n++
			}
			mu.Lock()
			total += n
			mu.Unlock()
		}(int64(w) + 1)
	}
	wg.Wait()
	elapsed := time.Since(start)
	if firstErr != nil {
		return 0, 0, firstErr
	}
	if total == 0 {
		return 0, 0, fmt.Errorf("no reads completed")
	}
	return total, elapsed, nil
}
