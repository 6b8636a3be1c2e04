package nnexus_test

// BenchmarkQuorumWrite prices the write acknowledgement ladder on a live
// 3-node election-enabled cluster: acks=0 returns on primary durability
// alone (the record can still be lost with the primary), acks=1 waits for
// one follower's WAL to confirm the offset (the record survives any single
// node), acks=2 waits for both. The deltas are the cost of each durability
// step, driven by the follower long-poll turnaround rather than the fsync.

import (
	"fmt"
	"testing"
	"time"

	"nnexus"
)

func BenchmarkQuorumWrite(b *testing.B) {
	for _, acks := range []int{0, 1, 2} {
		b.Run(fmt.Sprintf("acks=%d", acks), func(b *testing.B) {
			fc := startFailoverClusterAcks(b, acks)
			c, err := nnexus.Dial(fc.Addrs[0], nnexus.WithCallTimeout(10*time.Second))
			if err != nil {
				b.Fatal(err)
			}
			defer c.Close()
			if err := c.AddDomain(nnexus.Domain{
				Name: "planetmath.org", URLTemplate: "http://planetmath.org/{id}", Scheme: "msc",
			}); err != nil {
				b.Fatal(err)
			}
			// Both followers must be in contact before timing: a write that
			// beats the first subscribe would charge bootstrap, not the ack.
			deadline := time.Now().Add(30 * time.Second)
			for {
				st := fc.Engines[0].Replication()
				if len(st.Followers) >= 2 {
					break
				}
				if time.Now().After(deadline) {
					b.Fatalf("followers never connected: %+v", st)
				}
				time.Sleep(10 * time.Millisecond)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := c.AddEntry(&nnexus.Entry{
					Domain:  "planetmath.org",
					Title:   fmt.Sprintf("quorum bench %d %d", acks, i),
					Classes: []string{chaosClasses},
				}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
