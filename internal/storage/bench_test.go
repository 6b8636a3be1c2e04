package storage

// BenchmarkGroupCommit measures acknowledged-durable write cost under three
// shapes: one writer fsyncing eagerly (the pre-group-commit behavior, one
// fsync per op), many concurrent writers sharing commit rounds (the leader
// fsyncs once per round), and PutBatch amortizing one record + one fsync
// over many ops. fsyncs/op is reported beside ns/op: how many writers share
// a round depends on how long the disk's fsync takes. Recorded in
// EXPERIMENTS.md.

import (
	"fmt"
	"sync/atomic"
	"testing"
)

func BenchmarkGroupCommit(b *testing.B) {
	val := []byte("value-of-plausible-size-for-a-link-record")

	b.Run("eager-serial", func(b *testing.B) {
		s, err := Open(b.TempDir(), WithSyncWrites())
		if err != nil {
			b.Fatal(err)
		}
		defer s.Close()
		base := s.Fsyncs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if err := s.Put("t", fmt.Sprintf("k%d", i), val); err != nil {
				b.Fatal(err)
			}
		}
		b.StopTimer()
		b.ReportMetric(float64(s.Fsyncs()-base)/float64(b.N), "fsyncs/op")
	})

	b.Run("group-commit-concurrent", func(b *testing.B) {
		s, err := Open(b.TempDir(), WithSyncWrites())
		if err != nil {
			b.Fatal(err)
		}
		defer s.Close()
		var next atomic.Int64
		base := s.Fsyncs()
		b.SetParallelism(8)
		b.ResetTimer()
		b.RunParallel(func(pb *testing.PB) {
			for pb.Next() {
				i := next.Add(1)
				if err := s.Put("t", fmt.Sprintf("k%d", i), val); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.StopTimer()
		b.ReportMetric(float64(s.Fsyncs()-base)/float64(b.N), "fsyncs/op")
	})

	b.Run("putbatch64", func(b *testing.B) {
		s, err := Open(b.TempDir(), WithSyncWrites())
		if err != nil {
			b.Fatal(err)
		}
		defer s.Close()
		const batch = 64
		base := s.Fsyncs()
		b.ResetTimer()
		for i := 0; i < b.N; i += batch {
			n := batch
			if rem := b.N - i; rem < n {
				n = rem
			}
			ops := make([]BatchOp, n)
			for j := range ops {
				ops[j] = BatchOp{Table: "t", Key: fmt.Sprintf("k%d", i+j), Value: val}
			}
			if err := s.PutBatch(ops); err != nil {
				b.Fatal(err)
			}
		}
		b.StopTimer()
		b.ReportMetric(float64(s.Fsyncs()-base)/float64(b.N), "fsyncs/op")
	})
}
