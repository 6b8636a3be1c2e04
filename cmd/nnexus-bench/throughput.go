package main

// The closed-loop throughput experiment: a live TCP server and a fleet of
// client connections driving it as hard as acknowledgements allow, at
// several pipeline window sizes. window=1 is the pre-pipelining
// stop-and-wait wire pattern; each larger window lets that many requests
// share a connection's round trip. QPS and latency percentiles per
// configuration; the before/after table in EXPERIMENTS.md comes from here.

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"time"

	"nnexus"
	"nnexus/internal/client"
	"nnexus/internal/cluster"
	"nnexus/internal/experiments"
	"nnexus/internal/netsim"
	"nnexus/internal/workload"
)

func runThroughput(c *workload.Corpus, conns int, dur time.Duration, rtt time.Duration) error {
	fmt.Println("Closed-loop TCP throughput: stop-and-wait vs pipelined wire")
	fmt.Printf("(%d connections, %v per configuration; window=1 is stop-and-wait,\n", conns, dur)
	fmt.Println(" window=w keeps w requests in flight per connection)")
	fmt.Println(strings.Repeat("-", 72))

	sub := c
	if len(c.Entries) > 1500 {
		sub = c.Subset(1500)
	}
	node, err := cluster.Start(1, func(int, []string, string) nnexus.Config {
		return nnexus.Config{Scheme: sub.Scheme, LaTeX: sub.Params.LaTeX}
	})
	if err != nil {
		return err
	}
	defer node.Close()
	engine, addr := node.Engines[0], node.Addrs[0]
	if err := experiments.Load(sub, engine); err != nil {
		return err
	}

	notes := "These lecture notes discuss " + sub.Entries[100].Entry.Title +
		" and " + sub.Entries[200].Entry.Title + " with respect to " +
		sub.Entries[300].Entry.Title + ", among considerable other prose."
	classes := sub.Entries[100].Entry.Classes

	methods := []struct {
		name string
		call func(*client.Client) error
	}{
		{"ping", func(cl *client.Client) error { return cl.Ping() }},
		{"linkText", func(cl *client.Client) error {
			_, err := cl.LinkText(notes, classes, "", "", "")
			return err
		}},
	}
	windows := []int{1, 8, 32}
	transports := []struct {
		name string
		rtt  time.Duration
	}{{"loopback", 0}}
	if rtt > 0 {
		transports = append(transports, struct {
			name string
			rtt  time.Duration
		}{fmt.Sprintf("rtt=%v", rtt), rtt})
	}

	fmt.Printf("%-10s %-10s %8s %10s %10s %10s %10s %9s\n",
		"transport", "method", "window", "QPS", "p50", "p90", "p99", "speedup")
	for _, tr := range transports {
		target := addr
		if tr.rtt > 0 {
			proxied, stop, err := netsim.Proxy(addr, tr.rtt/2)
			if err != nil {
				return err
			}
			defer stop()
			target = proxied
		}
		for _, m := range methods {
			var baseline float64
			for _, w := range windows {
				res, err := closedLoop(target, w, conns, dur, m.call)
				if err != nil {
					return fmt.Errorf("%s %s window=%d: %w", tr.name, m.name, w, err)
				}
				if w == 1 {
					baseline = res.qps
				}
				fmt.Printf("%-10s %-10s %8d %10.0f %10v %10v %10v %8.2fx\n",
					tr.name, m.name, w, res.qps,
					res.p50.Round(time.Microsecond), res.p90.Round(time.Microsecond),
					res.p99.Round(time.Microsecond), res.qps/baseline)
			}
		}
	}
	fmt.Println("(speedup is QPS relative to the same transport and method at window=1;")
	fmt.Println(" the simulated-RTT rows isolate what pipelining reclaims from the wire)")
	return nil
}

type loopResult struct {
	qps           float64
	p50, p90, p99 time.Duration
}

// closedLoop drives addr with conns connections × window workers each; every
// worker issues one call, waits for the acknowledgement, and immediately
// issues the next, until the duration elapses.
func closedLoop(addr string, window, conns int, dur time.Duration, call func(*client.Client) error) (loopResult, error) {
	clients := make([]*client.Client, conns)
	for i := range clients {
		cl, err := client.Dial(addr, time.Second,
			client.WithPipelineWindow(window),
			client.WithCallTimeout(30*time.Second),
			client.WithMaxRetries(2))
		if err != nil {
			return loopResult{}, err
		}
		defer cl.Close()
		if err := call(cl); err != nil { // warm the connection and the path
			return loopResult{}, err
		}
		clients[i] = cl
	}

	var (
		wg       sync.WaitGroup
		mu       sync.Mutex
		lats     []time.Duration
		firstErr error
	)
	deadline := time.Now().Add(dur)
	for _, cl := range clients {
		for w := 0; w < window; w++ {
			wg.Add(1)
			go func(cl *client.Client) {
				defer wg.Done()
				local := make([]time.Duration, 0, 4096)
				for time.Now().Before(deadline) {
					start := time.Now()
					if err := call(cl); err != nil {
						mu.Lock()
						if firstErr == nil {
							firstErr = err
						}
						mu.Unlock()
						return
					}
					local = append(local, time.Since(start))
				}
				mu.Lock()
				lats = append(lats, local...)
				mu.Unlock()
			}(cl)
		}
	}
	start := time.Now()
	wg.Wait()
	elapsed := time.Since(start)
	if firstErr != nil {
		return loopResult{}, firstErr
	}
	if len(lats) == 0 {
		return loopResult{}, fmt.Errorf("no calls completed")
	}
	sort.Slice(lats, func(i, j int) bool { return lats[i] < lats[j] })
	pct := func(p float64) time.Duration {
		i := int(p * float64(len(lats)-1))
		return lats[i]
	}
	return loopResult{
		qps: float64(len(lats)) / elapsed.Seconds(),
		p50: pct(0.50), p90: pct(0.90), p99: pct(0.99),
	}, nil
}
