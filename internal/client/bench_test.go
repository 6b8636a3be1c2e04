package client

// BenchmarkPipelinedClient measures closed-loop call throughput against a
// live TCP server at several pipeline window sizes, over two transports:
// raw loopback (round trips cost scheduling, not wire time) and a simulated
// 1ms-RTT link (netsim), where the round trip dominates and pipelining pays
// it once per window instead of once per call. window=1 reproduces the
// pre-pipelining stop-and-wait wire pattern. Run with -cpu 1,2,4,8; the
// recorded numbers live in EXPERIMENTS.md.

import (
	"fmt"
	"testing"
	"time"

	"nnexus/internal/classification"
	"nnexus/internal/core"
	"nnexus/internal/netsim"
	"nnexus/internal/server"
	"nnexus/internal/service"
)

func benchAddr(b *testing.B) string {
	b.Helper()
	engine, err := core.NewEngine(core.Config{Scheme: classification.SampleMSC(10)})
	if err != nil {
		b.Fatal(err)
	}
	srv := server.New(service.New(engine), nil)
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { srv.Close() })
	return addr
}

func BenchmarkPipelinedClient(b *testing.B) {
	backend := benchAddr(b)
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
			a, stop, err := netsim.Proxy(backend, tr.rtt/2)
			if err != nil {
				b.Fatal(err)
			}
			b.Cleanup(stop)
			addr = a
		}
		for _, window := range []int{1, 8, 32} {
			b.Run(fmt.Sprintf("%s/window=%d", tr.name, window), func(b *testing.B) {
				c, err := Dial(addr, time.Second,
					WithPipelineWindow(window),
					WithCallTimeout(30*time.Second),
					WithMaxRetries(2))
				if err != nil {
					b.Fatal(err)
				}
				defer c.Close()
				if err := c.Ping(); err != nil {
					b.Fatal(err)
				}
				// Enough concurrent callers to fill the largest window even
				// at -cpu 1; with window=1 they queue on the single slot.
				b.SetParallelism(2 * DefaultPipelineWindow)
				b.ReportAllocs()
				b.ResetTimer()
				b.RunParallel(func(pb *testing.PB) {
					for pb.Next() {
						if err := c.Ping(); err != nil {
							b.Fatal(err)
						}
					}
				})
			})
		}
	}
}
