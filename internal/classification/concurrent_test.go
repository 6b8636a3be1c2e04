package classification

import (
	"math/rand"
	"sync"
	"testing"
)

// TestDistanceConcurrent hammers the lock-free memoized rows from many
// goroutines — including first-touch races on the same source row and an
// AllPairs installation mid-flight — and asserts every answer matches the
// sequentially computed ground truth.
func TestDistanceConcurrent(t *testing.T) {
	s := MSC2000(DefaultBaseWeight)
	classes := s.Classes()
	// Ground truth from a second, identical scheme, computed sequentially.
	ref := MSC2000(DefaultBaseWeight)
	type query struct {
		a, b string
		d    int64
	}
	rng := rand.New(rand.NewSource(42))
	queries := make([]query, 2000)
	for i := range queries {
		a := classes[rng.Intn(len(classes))]
		b := classes[rng.Intn(len(classes))]
		d, ok := ref.Distance(a, b)
		if !ok {
			t.Fatalf("ref distance %s→%s not ok", a, b)
		}
		queries[i] = query{a, b, d}
	}

	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i, q := range queries {
				d, ok := s.Distance(q.a, q.b)
				if !ok || d != q.d {
					t.Errorf("worker %d query %d: Distance(%s,%s) = %d,%v want %d", w, i, q.a, q.b, d, ok, q.d)
					return
				}
			}
		}(w)
	}
	// Install the all-pairs table while queries are in flight; answers must
	// stay identical through the switchover.
	wg.Add(1)
	go func() {
		defer wg.Done()
		if err := s.AllPairs(); err != nil {
			t.Errorf("AllPairs: %v", err)
		}
	}()
	wg.Wait()
}
