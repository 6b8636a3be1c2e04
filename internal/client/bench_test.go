package client

// BenchmarkPipelinedClient measures closed-loop call throughput against a
// live TCP server at several pipeline window sizes, for two methods (ping:
// the wire alone; linkText: a short note linked against a 1,500-entry
// generated corpus) over two transports: raw loopback (round trips cost
// scheduling, not wire time) and a simulated 1ms-RTT link (netsim), where
// the round trip dominates and pipelining pays it once per window instead
// of once per call. window=1 reproduces the pre-pipelining stop-and-wait
// wire pattern. Run with -cpu 1,2,4,8; the recorded numbers live in
// EXPERIMENTS.md.

import (
	"fmt"
	"testing"
	"time"

	"nnexus/internal/core"
	"nnexus/internal/experiments"
	"nnexus/internal/netsim"
	"nnexus/internal/server"
	"nnexus/internal/service"
	"nnexus/internal/workload"
)

func BenchmarkPipelinedClient(b *testing.B) {
	c, err := workload.Generate(workload.DefaultParams(1500))
	if err != nil {
		b.Fatal(err)
	}
	engine, err := core.NewEngine(core.Config{Scheme: c.Scheme, LaTeX: c.Params.LaTeX})
	if err != nil {
		b.Fatal(err)
	}
	if err := experiments.Load(c, engine); err != nil {
		b.Fatal(err)
	}
	srv := server.New(service.New(engine), nil)
	backend, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { srv.Close() })

	notes := "These lecture notes discuss " + c.Entries[100].Entry.Title +
		" and " + c.Entries[200].Entry.Title + " with respect to " +
		c.Entries[300].Entry.Title + ", among considerable other prose."
	classes := c.Entries[100].Entry.Classes
	methods := []struct {
		name string
		call func(*Client) error
	}{
		{"ping", (*Client).Ping},
		{"linkText", func(cl *Client) error {
			_, err := cl.LinkText(notes, classes, "", "", "")
			return err
		}},
	}
	transports := []struct {
		name string
		rtt  time.Duration
	}{
		{"loopback", 0},
		{"rtt=1ms", time.Millisecond},
	}
	for _, tr := range transports {
		addr := backend
		if tr.rtt > 0 {
			l, err := netsim.NewLink(backend, tr.rtt/2)
			if err != nil {
				b.Fatal(err)
			}
			b.Cleanup(l.Close)
			addr = l.Addr()
		}
		for _, m := range methods {
			for _, window := range []int{1, 8, 32} {
				b.Run(fmt.Sprintf("%s/%s/window=%d", tr.name, m.name, window), func(b *testing.B) {
					cl, err := Dial(addr, time.Second,
						WithPipelineWindow(window),
						WithCallTimeout(30*time.Second),
						WithMaxRetries(2))
					if err != nil {
						b.Fatal(err)
					}
					defer cl.Close()
					if err := m.call(cl); err != nil {
						b.Fatal(err)
					}
					// Enough concurrent callers to fill the largest window even
					// at -cpu 1; with window=1 they queue on the single slot.
					b.SetParallelism(2 * DefaultPipelineWindow)
					b.ReportAllocs()
					b.ResetTimer()
					b.RunParallel(func(pb *testing.PB) {
						for pb.Next() {
							if err := m.call(cl); err != nil {
								b.Error(err)
								return
							}
						}
					})
				})
			}
		}
	}
}
