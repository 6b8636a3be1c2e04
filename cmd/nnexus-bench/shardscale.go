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
	"strings"
	"sync/atomic"
	"time"

	"nnexus"
	"nnexus/internal/cluster"
	"nnexus/internal/experiments"
	"nnexus/internal/loadgen"
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

func runShardScale(c *workload.Corpus, dur, rtt time.Duration) error {
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

	fmt.Printf("%-12s %10s %10s %10s %10s %9s\n", "shards", "writes", "QPS", "avg lat", "p99", "speedup")
	var baseline float64
	for _, n := range []int{1, 2, 4} {
		res, err := shardScaleConfig(sub, n, window, workers, dur, rtt)
		if err != nil {
			return fmt.Errorf("shards=%d: %w", n, err)
		}
		qps := res.AchievedRate()
		if baseline == 0 {
			baseline = qps
		}
		fmt.Printf("%-12d %10d %10.0f %10v %10v %8.2fx\n", n, res.Completed, qps,
			res.Service.Mean().Round(time.Microsecond), res.Service.Quantile(0.99).Round(time.Microsecond), qps/baseline)
	}
	fmt.Println("\n(QPS is aggregate putEntry throughput through the scatter-gather")
	fmt.Println(" router; each shard's primary serializes its own writes, so spreading")
	fmt.Println(" single-label entries over N shards multiplies the write window)")
	return nil
}

// shardScaleConfig runs one shard-count configuration end to end: n
// shard-mode nodes behind real TCP servers and simulated-RTT links, corpus
// preloaded over the bare loopback, then a closed-loop routed write storm,
// whose result it returns.
func shardScaleConfig(sub *workload.Corpus, n, window, workers int, dur, rtt time.Duration) (*loadgen.Result, error) {
	// Two maps of the same fleet: the nodes' own addresses, and each behind
	// its own wire.
	direct := &nnexus.ShardMap{Version: 1, Shards: make([]nnexus.ShardSpec, n)}
	wired := &nnexus.ShardMap{Version: 1, Shards: make([]nnexus.ShardSpec, n)}
	ring := direct.Ring()
	fleet, err := cluster.Start(n, func(i int, _ []string, _ string) nnexus.Config {
		return nnexus.Config{Scheme: sub.Scheme, LaTeX: sub.Params.LaTeX, ShardRing: ring, ShardID: i}
	})
	if err != nil {
		return nil, err
	}
	defer fleet.Close()
	for i, addr := range fleet.Addrs {
		link, err := netsim.NewLink(addr, rtt/2)
		if err != nil {
			return nil, err
		}
		defer link.Close()
		direct.Shards[i] = nnexus.ShardSpec{ID: i, Addrs: []string{addr}}
		wired.Shards[i] = nnexus.ShardSpec{ID: i, Addrs: []string{link.Addr()}}
	}

	// Preload the corpus through a router without the simulated round trip,
	// so the measured window contains only the routed write storm.
	local, err := nnexus.DialSharded(direct)
	if err != nil {
		return nil, err
	}
	err = experiments.Load(sub, local)
	local.Close()
	if err != nil {
		return nil, err
	}
	router, err := nnexus.DialSharded(wired,
		nnexus.WithPipelineWindow(window), nnexus.WithCallTimeout(30*time.Second))
	if err != nil {
		return nil, err
	}
	defer router.Close()

	// Deterministic single-word titles, equal counts per owning shard; the
	// storm wraps around if it outruns the pool (re-defining a label is a
	// legal upsert).
	per := int(dur/time.Millisecond)*2 + 64
	buckets := shardWords(ring, per)
	var next atomic.Int64
	class := sub.Entries[0].Entry.Classes[0]
	write := func(int) error {
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
	if err := write(0); err != nil { // warm every path before timing
		return nil, err
	}
	res, err := closedLoop(workers, dur, write)
	if err != nil {
		return nil, err
	}

	// Sanity: the routed deployment still links like one engine — a written
	// label resolves to exactly one link through the scatter-gather read.
	linked, err := router.LinkText(buckets[0][0], nnexus.LinkOptions{})
	if err != nil {
		return nil, fmt.Errorf("post-storm LinkText: %w", err)
	}
	if len(linked.Links) != 1 || linked.Links[0].Label != buckets[0][0] {
		return nil, fmt.Errorf("post-storm LinkText(%q) = %+v, want 1 link", buckets[0][0], linked.Links)
	}
	return res, nil
}
