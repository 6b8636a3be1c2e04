package main

// The tenant-isolation (noisy-neighbor) experiment: two corpora live in one
// engine behind the tenant gate — a bystander with no limits and a hot
// tenant boxed by a token bucket. Three phases measure the bystander's link
// latency: alone (baseline), with the hot tenant offering exactly its
// allowance (legitimate sharing — admitted but for the odd Poisson burst
// past the bucket), and with the hot tenant offering several times its
// allowance (the noisy neighbor — the excess is rejected with typed
// rateLimited errors before execution).
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
	"strings"
	"sync"
	"time"

	"nnexus"
	"nnexus/internal/client"
	"nnexus/internal/cluster"
	"nnexus/internal/experiments"
	"nnexus/internal/loadgen"
	"nnexus/internal/workload"
)

func runTenantIso(c *workload.Corpus, dur time.Duration) error {
	// Rates are sized for a small (single-core) box: clients, flooders, and
	// the server share the machine, so the combined offered load has to
	// leave CPU headroom or every phase just measures run-queue depth.
	const (
		bystanderWorkers = 4
		bystanderRate    = 100.0 // aggregate bystander req/s, open loop
		flooders         = 4
		hotRate          = 50.0          // tokens/s the hot tenant is allowed
		offeredRate      = 5.0 * hotRate // what its clients actually offer
		rounds           = 6             // alternating within/over rounds, pooled per phase
	)
	fmt.Println("Tenant isolation: bystander link latency while a hot tenant is")
	fmt.Println("driven past its token-bucket rate limit (noisy neighbor)")
	fmt.Printf("(%d bystander readers offered %.0f req/s; hot tenant limited to %.0f req/s,\n",
		bystanderWorkers, bystanderRate, hotRate)
	fmt.Printf(" offered %.0f then %.0f req/s", hotRate, offeredRate)
	fmt.Printf(" by %d workers; Poisson arrivals; %d rounds of %v per phase)\n", flooders, rounds, dur)
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

	// One connection per worker, client retries off so every past-the-bucket
	// request surfaces as a pre-execution rateLimited reject (the steady state
	// of an over-offered tenant). Both sides are open loops at fixed rates: a
	// closed loop would have the bystander racing itself for every core, and
	// an unpaced flood would be a socket-level DoS, which is the load
	// shedder's department, not the tenant gate's.
	conns := make([]*client.Client, bystanderWorkers+flooders)
	for i := range conns {
		cl, err := client.Dial(addr, time.Second, client.WithMaxRetries(0))
		if err != nil {
			return err
		}
		defer cl.Close()
		if _, err := cl.LinkTextIn("bystander", nil, texts[0], nil, "", "", ""); err != nil { // warm the path
			return err
		}
		conns[i] = cl
	}
	bystanders, hot := conns[:bystanderWorkers], conns[bystanderWorkers:]
	drive := func(corpusName string, clients []*client.Client, rate float64, seed int64, classify loadgen.Classifier) (*loadgen.Result, error) {
		return loadgen.Run{
			Events: loadgen.Generate(loadgen.Params{
				Seed:     seed,
				Schedule: loadgen.NewPoisson(rate),
				Duration: dur,
				Mix:      loadgen.Mix{Link: 1},
				Keys:     len(texts),
			}),
			Duration: dur,
			Workers:  len(clients),
			Target: func(w int, ev loadgen.Event) error {
				_, err := clients[w].LinkTextIn(corpusName, nil, texts[ev.Key], nil, "", "", "")
				return err
			},
			Classify: classify,
		}.Do()
	}
	hotClass := func(err error) string {
		if client.IsRateLimited(err) {
			return "rateLimited"
		}
		return err.Error()
	}

	// round drives the bystander for one window, beside the hot tenant at
	// hotOffered req/s unless that is 0, and fails on any error other than
	// the hot tenant's rateLimited rejections.
	seed := c.Params.Seed
	round := func(hotOffered float64) (by, flood *loadgen.Result, err error) {
		seed += 2
		var (
			wg       sync.WaitGroup
			floodErr error
		)
		if hotOffered > 0 {
			wg.Add(1)
			go func(seed int64) {
				defer wg.Done()
				flood, floodErr = drive("hot", hot, hotOffered, seed, hotClass)
			}(seed + 1)
		}
		by, err = drive("bystander", bystanders, bystanderRate, seed, error.Error)
		wg.Wait()
		switch {
		case err != nil:
			return nil, nil, fmt.Errorf("bystander: %w", err)
		case floodErr != nil:
			return nil, nil, fmt.Errorf("hot tenant: %w", floodErr)
		case by.Failed() > 0 || by.Unfinished > 0:
			return nil, nil, fmt.Errorf("bystander: %d failed, %d unfinished: %v", by.Failed(), by.Unfinished, by.Errors)
		case flood != nil && flood.Failed() != flood.Errors["rateLimited"]:
			return nil, nil, fmt.Errorf("hot tenant saw a non-rateLimited error: %v", flood.Errors)
		}
		return by, flood, nil
	}

	// At these rates nothing the server can do legitimately holds a
	// bystander request for hundreds of milliseconds — the token bucket
	// answers in microseconds and queue depth is bounded by the offered
	// load. A sample beyond stallThreshold therefore means the host froze
	// under the whole process (hypervisor steal, memory pressure): the frozen
	// round is discarded and re-measured, within a disclosed retry budget,
	// instead of letting an environmental artifact set either phase's p99.
	// The bystander's numbers are its call latency (Result.Service), not
	// latency from the intended start: at 100 req/s the pacer's own timer
	// overshoot, ~0.6 ms per arrival on a 2-core VM, would be most of a
	// sub-millisecond link and hide the difference between phases.
	const stallThreshold = 100 * time.Millisecond
	discarded := 0
	clean := func(hotOffered float64) (by, flood *loadgen.Result, err error) {
		for {
			by, flood, err = round(hotOffered)
			if err != nil || by.Service.Max() <= stallThreshold {
				return by, flood, err
			}
			if discarded++; discarded > rounds*2 {
				return nil, nil, fmt.Errorf("tenantiso: host stalled >%v in %d measurement rounds; machine too noisy for a p99 comparison", stallThreshold, discarded)
			}
		}
	}

	quiet, _, err := clean(0)
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
		within, over                                 = loadgen.NewHist(), loadgen.NewHist()
		withinOK, withinLimited, overOK, overLimited int
	)
	for r := 0; r < rounds; r++ {
		for _, phase := range []struct {
			offered float64
			pooled  *loadgen.Hist
			ok, lim *int
		}{
			{hotRate, within, &withinOK, &withinLimited},
			{offeredRate, over, &overOK, &overLimited},
		} {
			by, flood, err := clean(phase.offered)
			if err != nil {
				return err
			}
			phase.pooled.Merge(by.Service)
			*phase.ok += flood.Completed
			*phase.lim += flood.Errors["rateLimited"]
		}
	}
	if overLimited == 0 {
		return fmt.Errorf("hot tenant was never rate limited (ok=%d): the storm did not saturate", overOK)
	}

	w99, o99 := within.Quantile(0.99), over.Quantile(0.99)
	degradation := (float64(o99) - float64(w99)) / float64(w99)
	fmt.Printf("%-26s %10s %12s %12s\n", "bystander phase", "requests", "p50", "p99")
	for _, row := range []struct {
		name string
		h    *loadgen.Hist
	}{
		{"alone", quiet.Service},
		{"hot within limit (base)", within},
		{"hot over limit", over},
	} {
		fmt.Printf("%-26s %10d %12s %12s\n", row.name, row.h.Count(),
			row.h.Quantile(0.50).Round(time.Microsecond), row.h.Quantile(0.99).Round(time.Microsecond))
	}
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
	return nil
}
