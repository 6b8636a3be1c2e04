package main

// The tenant-isolation (noisy-neighbor) experiment: two corpora live in one
// engine behind the tenant gate — a bystander with no limits and a hot
// tenant boxed by a token bucket. Three phases measure the bystander's link
// latency: alone (baseline), with the hot tenant offering exactly its
// allowance (legitimate sharing — every request admitted), and with the hot
// tenant offering several times its allowance (the noisy neighbor — the
// excess is rejected with typed rateLimited errors before execution).
//
// The isolation claim the tenant gate makes is about the third phase
// relative to the second: a tenant blowing through its limit must cost the
// bystander no more than the same tenant behaving, because everything past
// the bucket is admission-control work only, never pipeline work. The PR
// acceptance bound is ≤10% bystander p99 degradation over-limit vs
// within-limit. (Within-limit vs alone is legitimate CPU sharing between
// paying tenants — reported, but not an isolation violation.)

import (
	"fmt"
	"math/rand"
	"runtime"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"nnexus"
	"nnexus/internal/benchfmt"
	"nnexus/internal/client"
	"nnexus/internal/cluster"
	"nnexus/internal/experiments"
	"nnexus/internal/workload"
)

func runTenantIso(c *workload.Corpus, dur time.Duration, jsonOut string) error {
	// Rates are sized for a small (single-core) box: clients, flooders, and
	// the server share the machine, so the combined offered load has to
	// leave CPU headroom or every phase just measures run-queue depth.
	const (
		bystanderWorkers = 4
		bystanderRate    = 100.0 // aggregate bystander req/s, paced
		flooders         = 4
		hotRate          = 50.0          // tokens/s the hot tenant is allowed
		offeredRate      = 5.0 * hotRate // what its clients actually offer
		rounds           = 6             // alternating within/over rounds; p99 = median of rounds
	)
	fmt.Println("Tenant isolation: bystander link latency while a hot tenant is")
	fmt.Println("driven past its token-bucket rate limit (noisy neighbor)")
	fmt.Printf("(%d bystander readers paced to %.0f req/s; hot tenant limited to %.0f req/s,\n",
		bystanderWorkers, bystanderRate, hotRate)
	fmt.Printf(" offered %.0f then %.0f req/s", hotRate, offeredRate)
	fmt.Printf(" by %d paced clients; %d rounds of %v per phase)\n", flooders, rounds, dur)
	fmt.Println(strings.Repeat("-", 72))

	sub := c
	if len(c.Entries) > 400 {
		sub = c.Subset(400)
	}

	node, err := cluster.Start(1, func(int, []string, string) nnexus.Config {
		return nnexus.Config{Scheme: sub.Scheme, LaTeX: sub.Params.LaTeX,
			Domains: []nnexus.Domain{{
				Name:        experiments.DomainName,
				URLTemplate: "http://" + experiments.DomainName + "/?op=getobj&id={id}",
				Scheme:      sub.Scheme.Name(),
				Priority:    1,
			}},
			Tenants: nnexus.NewTenantRegistry(nnexus.TenantConfig{Corpora: map[string]*nnexus.TenantPolicy{
				"hot": {RatePerSec: hotRate, Burst: hotRate},
			}})}
	})
	if err != nil {
		return err
	}
	defer node.Close()
	engine, addr := node.Engines[0], node.Addrs[0]
	// The same generated collection lives once per tenant, in disjoint
	// namespaces, so both corpora do identical linking work when admitted.
	for _, cp := range []string{"bystander", "hot"} {
		for _, ge := range sub.Entries {
			entry := *ge.Entry
			entry.Domain = experiments.DomainName
			entry.Corpus = cp
			if _, err := engine.AddEntry(&entry); err != nil {
				return err
			}
		}
	}

	texts := make([]string, 0, len(sub.Entries))
	for _, ge := range sub.Entries {
		if ge.Entry.Body != "" {
			texts = append(texts, ge.Entry.Body)
		}
	}
	if len(texts) == 0 {
		return fmt.Errorf("tenantiso: generated corpus has no bodies to link")
	}

	// measure runs paced bystander linkText traffic — a fixed offered rate,
	// not a closed loop — and returns the per-request latencies. Pacing
	// keeps the server below saturation so p99 reflects queueing inflicted
	// by the hot tenant, not the bystander racing itself for every core.
	measure := func() ([]time.Duration, error) {
		var (
			mu       sync.Mutex
			samples  []time.Duration
			firstErr error
			wg       sync.WaitGroup
		)
		deadline := time.Now().Add(dur)
		for w := 0; w < bystanderWorkers; w++ {
			wg.Add(1)
			go func(seed int64) {
				defer wg.Done()
				cl, err := client.Dial(addr, time.Second, client.WithMaxRetries(0))
				if err != nil {
					mu.Lock()
					if firstErr == nil {
						firstErr = err
					}
					mu.Unlock()
					return
				}
				defer cl.Close()
				rng := rand.New(rand.NewSource(seed))
				interval := time.Duration(float64(bystanderWorkers) / bystanderRate * float64(time.Second))
				// Stagger the pacers: workers starting in lockstep would
				// deliver phase-locked request bursts and measure their own
				// convoys, not the server.
				time.Sleep(time.Duration(rng.Int63n(int64(interval))))
				tick := time.NewTicker(interval)
				defer tick.Stop()
				var local []time.Duration
				for time.Now().Before(deadline) {
					<-tick.C
					start := time.Now()
					_, err := cl.LinkTextIn("bystander", nil, texts[rng.Intn(len(texts))], nil, "", "", "")
					if err != nil {
						mu.Lock()
						if firstErr == nil {
							firstErr = fmt.Errorf("bystander: %w", err)
						}
						mu.Unlock()
						return
					}
					local = append(local, time.Since(start))
				}
				mu.Lock()
				samples = append(samples, local...)
				mu.Unlock()
			}(int64(w) + 1)
		}
		wg.Wait()
		if firstErr != nil {
			return nil, firstErr
		}
		return samples, nil
	}

	// flood starts paced clients offering the hot tenant the given aggregate
	// rate, with client retries off so every past-the-bucket request surfaces
	// as a pre-execution rateLimited reject (the steady state of an
	// over-offered tenant; an unpaced tight loop would be a socket-level DoS,
	// which is the load shedder's department, not the tenant gate's). The
	// returned stop function tears the flooders down and reports admitted and
	// rejected counts.
	flood := func(offered float64) func() (ok, limited int64, err error) {
		var (
			hotOK, hotLimited atomic.Int64
			stop              = make(chan struct{})
			floodErr          atomic.Value
			wg                sync.WaitGroup
		)
		interval := time.Duration(float64(flooders) / offered * float64(time.Second))
		for w := 0; w < flooders; w++ {
			wg.Add(1)
			go func(seed int64) {
				defer wg.Done()
				cl, err := client.Dial(addr, time.Second, client.WithMaxRetries(0))
				if err != nil {
					floodErr.Store(err)
					return
				}
				defer cl.Close()
				rng := rand.New(rand.NewSource(seed))
				// Staggered like the bystander pacers, for the same reason.
				time.Sleep(time.Duration(rng.Int63n(int64(interval))))
				tick := time.NewTicker(interval)
				defer tick.Stop()
				for {
					select {
					case <-stop:
						return
					case <-tick.C:
					}
					_, err := cl.LinkTextIn("hot", nil, texts[rng.Intn(len(texts))], nil, "", "", "")
					switch {
					case err == nil:
						hotOK.Add(1)
					case client.IsRateLimited(err):
						hotLimited.Add(1)
					default:
						floodErr.Store(err)
						return
					}
				}
			}(int64(100 + w))
		}
		return func() (int64, int64, error) {
			close(stop)
			wg.Wait()
			if e := floodErr.Load(); e != nil {
				return 0, 0, fmt.Errorf("hot flooder saw a non-rateLimited error: %w", e.(error))
			}
			return hotOK.Load(), hotLimited.Load(), nil
		}
	}

	// Warm the path, then the three phases.
	warm, err := client.Dial(addr, time.Second)
	if err != nil {
		return err
	}
	if _, err := warm.LinkTextIn("bystander", nil, texts[0], nil, "", "", ""); err != nil {
		warm.Close()
		return err
	}
	warm.Close()

	// At these paced rates nothing the server can do legitimately holds a
	// bystander request for hundreds of milliseconds — the token bucket
	// answers in microseconds and queue depth is bounded by the pacing. A
	// sample beyond stallThreshold therefore means the host froze under the
	// whole process (hypervisor steal, memory pressure): the frozen round is
	// discarded and re-measured, within a disclosed retry budget, instead of
	// letting an environmental artifact set either phase's p99.
	const stallThreshold = 100 * time.Millisecond
	stallBudget := rounds * 2
	stalled := func(s []time.Duration) bool {
		for _, d := range s {
			if d > stallThreshold {
				return true
			}
		}
		return false
	}
	discarded := 0
	measureClean := func() ([]time.Duration, error) {
		for {
			s, err := measure()
			if err != nil {
				return nil, err
			}
			if !stalled(s) {
				return s, nil
			}
			discarded++
			stallBudget--
			if stallBudget < 0 {
				return nil, fmt.Errorf("tenantiso: host stalled >%v in %d measurement rounds; machine too noisy for a p99 comparison", stallThreshold, discarded)
			}
		}
	}

	quiet, err := measureClean()
	if err != nil {
		return err
	}

	// The within/over phases alternate for several rounds and the samples
	// pool per phase: interleaving cancels slow drift (thermal, page
	// cache) that a strict A-then-B order would book against one phase,
	// and pooling gives the p99 enough tail samples to be a measurement
	// rather than a dice roll — read off one short phase it would ride on
	// a couple of dozen samples and a single OS stall would swing the
	// comparison far past the bound in either direction.
	var (
		within, over                                 [][]time.Duration
		withinOK, withinLimited, overOK, overLimited int64
	)
	for r := 0; r < rounds; r++ {
		for _, phase := range []struct {
			offered float64
			samples *[][]time.Duration
			ok, lim *int64
		}{
			{hotRate, &within, &withinOK, &withinLimited},
			{offeredRate, &over, &overOK, &overLimited},
		} {
			stop := flood(phase.offered)
			s, err := measureClean()
			ok, lim, ferr := stop()
			if err != nil {
				return err
			}
			if ferr != nil {
				return ferr
			}
			*phase.samples = append(*phase.samples, s)
			*phase.ok += ok
			*phase.lim += lim
		}
	}
	if overLimited == 0 {
		return fmt.Errorf("hot tenant was never rate limited (ok=%d): the storm did not saturate", overOK)
	}

	quantile := func(d []time.Duration, q float64) time.Duration {
		sorted := append([]time.Duration(nil), d...)
		sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
		return sorted[int(q*float64(len(sorted)-1))]
	}
	stats := func(roundSamples [][]time.Duration) (n int, p50, p99 time.Duration) {
		var pooled []time.Duration
		for _, s := range roundSamples {
			pooled = append(pooled, s...)
		}
		return len(pooled), quantile(pooled, 0.50), quantile(pooled, 0.99)
	}
	nq, q50, q99 := stats([][]time.Duration{quiet})
	nw, w50, w99 := stats(within)
	no, o50, o99 := stats(over)
	degradation := (float64(o99) - float64(w99)) / float64(w99)

	fmt.Printf("%-26s %10s %12s %12s\n", "bystander phase", "requests", "p50", "p99")
	fmt.Printf("%-26s %10d %12s %12s\n", "alone", nq,
		q50.Round(time.Microsecond), q99.Round(time.Microsecond))
	fmt.Printf("%-26s %10d %12s %12s\n", "hot within limit (base)", nw,
		w50.Round(time.Microsecond), w99.Round(time.Microsecond))
	fmt.Printf("%-26s %10d %12s %12s\n", "hot over limit", no,
		o50.Round(time.Microsecond), o99.Round(time.Microsecond))
	if discarded > 0 {
		fmt.Printf("(%d measurement rounds discarded and re-run: host stall >%v detected)\n",
			discarded, stallThreshold)
	}
	fmt.Printf("hot tenant within limit: %d admitted, %d rate limited\n", withinOK, withinLimited)
	fmt.Printf("hot tenant over limit:   %d admitted, %d rate limited (%.1f%% rejected)\n",
		overOK, overLimited, 100*float64(overLimited)/float64(overOK+overLimited))
	fmt.Printf("bystander p99 degradation vs quiet baseline (hot within limit): %+.1f%% (acceptance bound: <= 10%%)\n",
		100*degradation)
	if degradation > 0.10 {
		fmt.Println("WARNING: bystander p99 degraded past the 10% isolation bound")
	}

	if jsonOut != "" {
		mk := func(name string, n int, p50, p99 time.Duration, extra map[string]float64) benchfmt.Benchmark {
			m := map[string]float64{"p50_ns": float64(p50), "p99_ns": float64(p99)}
			for k, v := range extra {
				m[k] = v
			}
			return benchfmt.Benchmark{
				Name:       name,
				Procs:      runtime.GOMAXPROCS(0),
				Iterations: int64(n),
				NsPerOp:    float64(p99),
				BytesPerOp: -1, AllocsPerOp: -1,
				Metrics: m,
			}
		}
		results := []benchfmt.Benchmark{
			mk("TenantIso/bystander-alone", nq, q50, q99, nil),
			mk("TenantIso/bystander-hot-within-limit", nw, w50, w99, map[string]float64{
				"hot_admitted":     float64(withinOK),
				"hot_rate_limited": float64(withinLimited),
			}),
			mk("TenantIso/bystander-hot-over-limit", no, o50, o99, map[string]float64{
				"p99_degradation_pct": 100 * degradation,
				"hot_admitted":        float64(overOK),
				"hot_rate_limited":    float64(overLimited),
			}),
		}
		if err := (benchfmt.File{Benchmarks: results}).Write(jsonOut); err != nil {
			return err
		}
		fmt.Printf("wrote %s\n", jsonOut)
	}
	return nil
}
