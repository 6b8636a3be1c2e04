package main

// The shard-scaling experiment: the same write workload against 1, 2, and 4
// consistent-hash shards, each shard a real TCP server behind a
// simulated-RTT link, driven through the scatter-gather router. Every
// benchmark entry carries a single-word title, so its one label has exactly
// one home shard and each putEntry touches exactly one primary (the
// best-case routed-write workload; multi-label entries fan to every home
// shard and scale sublinearly — EXPERIMENTS.md discloses this). On a wire
// where the round trip bounds a single connection's throughput — the regime
// netsim models, as in the readscale experiment — each extra shard adds its
// own primary connection to the aggregate write window, so write QPS scales
// near-linearly with the shard count.

import (
	"fmt"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"nnexus"
	"nnexus/internal/benchfmt"
	"nnexus/internal/cluster"
	"nnexus/internal/experiments"
	"nnexus/internal/netsim"
	"nnexus/internal/workload"
)

// shardWords generates deterministic letter-only pseudo-words (guaranteed
// single-token labels) bucketed by owning shard, `per` words per shard.
func shardWords(ring *nnexus.ShardRing, per int) [][]string {
	syllables := []string{"ka", "ze", "mo", "ri", "tu", "la", "pe", "so", "ni", "da"}
	buckets := make([][]string, ring.NumShards())
	remaining := ring.NumShards()
	for i := 0; remaining > 0; i++ {
		var sb strings.Builder
		sb.WriteString("xq") // avoid colliding with real corpus labels
		for n := i; ; n /= len(syllables) {
			sb.WriteString(syllables[n%len(syllables)])
			if n < len(syllables) {
				break
			}
		}
		w := sb.String()
		owner := ring.OwnerLabel(w)
		if len(buckets[owner]) < per {
			buckets[owner] = append(buckets[owner], w)
			if len(buckets[owner]) == per {
				remaining--
			}
		}
	}
	return buckets
}

func runShardScale(c *workload.Corpus, dur, rtt time.Duration, jsonOut string) error {
	const (
		window  = 4  // in-flight calls per shard connection
		workers = 24 // closed-loop writers, enough to keep every window full
	)
	fmt.Println("Shard scaling: aggregate write QPS at 1, 2, and 4 consistent-hash shards")
	fmt.Printf("(simulated RTT %v per shard, pipeline window %d per connection,\n", rtt, window)
	fmt.Printf(" %d closed-loop single-label writers, %v per configuration)\n", workers, dur)
	fmt.Println(strings.Repeat("-", 72))

	sub := c
	if len(c.Entries) > 400 {
		sub = c.Subset(400)
	}

	fmt.Printf("%-12s %12s %12s %12s %9s\n", "shards", "writes", "QPS", "avg lat", "speedup")
	var results []benchfmt.Benchmark
	var baseline float64
	for _, n := range []int{1, 2, 4} {
		qps, calls, nsPerOp, err := shardScaleConfig(sub, n, window, workers, dur, rtt)
		if err != nil {
			return fmt.Errorf("shards=%d: %w", n, err)
		}
		if baseline == 0 {
			baseline = qps
		}
		fmt.Printf("%-12d %12d %12.0f %12s %8.2fx\n", n, calls, qps,
			time.Duration(nsPerOp).Round(time.Microsecond), qps/baseline)
		metrics := map[string]float64{"qps": qps, "shards": float64(n)}
		if n > 1 {
			metrics["speedup_vs_1shard"] = qps / baseline
		}
		results = append(results, benchfmt.Benchmark{
			Name:       fmt.Sprintf("ShardScale/%dshard", n),
			Procs:      runtime.GOMAXPROCS(0),
			Iterations: calls,
			NsPerOp:    nsPerOp,
			BytesPerOp: -1, AllocsPerOp: -1,
			Metrics: metrics,
		})
	}
	fmt.Println("\n(QPS is aggregate putEntry throughput through the scatter-gather")
	fmt.Println(" router; each shard's primary serializes its own writes, so spreading")
	fmt.Println(" single-label entries over N shards multiplies the write window)")

	if jsonOut != "" {
		// Merge, don't overwrite: BENCH_PR9.json also carries committed
		// go-test rows.
		if err := (benchfmt.File{Benchmarks: results}).MergeInto(jsonOut); err != nil {
			return err
		}
		fmt.Printf("merged into %s\n", jsonOut)
	}
	return nil
}

// shardScaleConfig runs one shard-count configuration end to end: n
// shard-mode nodes behind real TCP servers and simulated-RTT links, corpus
// preloaded over the bare loopback, then a closed-loop routed write storm.
func shardScaleConfig(sub *workload.Corpus, n, window, workers int, dur, rtt time.Duration) (qps float64, calls int64, nsPerOp float64, err error) {
	// Two maps of the same fleet: the nodes' own addresses, and each behind
	// its own wire.
	direct := &nnexus.ShardMap{Version: 1, Shards: make([]nnexus.ShardSpec, n)}
	wired := &nnexus.ShardMap{Version: 1, Shards: make([]nnexus.ShardSpec, n)}
	ring := direct.Ring()
	fleet, err := cluster.Start(n, func(i int, _ []string, _ string) nnexus.Config {
		return nnexus.Config{Scheme: sub.Scheme, LaTeX: sub.Params.LaTeX, ShardRing: ring, ShardID: i}
	})
	if err != nil {
		return 0, 0, 0, err
	}
	defer fleet.Close()
	for i, addr := range fleet.Addrs {
		link, err := netsim.NewLink(addr, rtt/2)
		if err != nil {
			return 0, 0, 0, err
		}
		defer link.Close()
		direct.Shards[i] = nnexus.ShardSpec{ID: i, Addrs: []string{addr}}
		wired.Shards[i] = nnexus.ShardSpec{ID: i, Addrs: []string{link.Addr()}}
	}

	// Preload the corpus through a router without the simulated round trip,
	// so the measured window contains only the routed write storm.
	local, err := nnexus.DialSharded(direct)
	if err != nil {
		return 0, 0, 0, err
	}
	err = experiments.Load(sub, local)
	local.Close()
	if err != nil {
		return 0, 0, 0, err
	}
	router, err := nnexus.DialSharded(wired,
		nnexus.WithPipelineWindow(window), nnexus.WithCallTimeout(30*time.Second))
	if err != nil {
		return 0, 0, 0, err
	}
	defer router.Close()

	// Deterministic single-word titles, equal counts per owning shard; the
	// storm wraps around if it outruns the pool (re-defining a label is a
	// legal upsert).
	per := int(dur/time.Millisecond)*2 + 64
	buckets := shardWords(ring, per)
	var next atomic.Int64
	class := sub.Entries[0].Entry.Classes[0]
	write := func() error {
		i := next.Add(1) - 1
		bucket := buckets[int(i)%n]
		title := bucket[int(i/int64(n))%len(bucket)]
		_, err := router.AddEntry(&nnexus.Entry{
			Domain:  experiments.DomainName,
			Title:   title,
			Classes: []string{class},
		})
		return err
	}
	if err := write(); err != nil { // warm every path before timing
		return 0, 0, 0, err
	}

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
		go func() {
			defer wg.Done()
			var done int64
			for time.Now().Before(deadline) {
				if err := write(); err != nil {
					mu.Lock()
					if firstErr == nil {
						firstErr = err
					}
					mu.Unlock()
					return
				}
				done++
			}
			mu.Lock()
			total += done
			mu.Unlock()
		}()
	}
	wg.Wait()
	elapsed := time.Since(start)
	if firstErr != nil {
		return 0, 0, 0, firstErr
	}
	if total == 0 {
		return 0, 0, 0, fmt.Errorf("no writes completed")
	}

	// Sanity: the routed deployment still links like one engine — a written
	// label resolves to exactly one link through the scatter-gather read.
	res, err := router.LinkText(buckets[0][0], nnexus.LinkOptions{})
	if err != nil {
		return 0, 0, 0, fmt.Errorf("post-storm LinkText: %w", err)
	}
	if len(res.Links) != 1 || res.Links[0].Label != buckets[0][0] {
		return 0, 0, 0, fmt.Errorf("post-storm LinkText(%q) = %+v, want 1 link", buckets[0][0], res.Links)
	}

	qps = float64(total) / elapsed.Seconds()
	nsPerOp = elapsed.Seconds() / float64(total) * 1e9 * float64(workers)
	return qps, total, nsPerOp, nil
}
