package cache

import (
	"fmt"
	"sync"
	"testing"
	"testing/quick"
)

func TestGetPut(t *testing.T) {
	c := NewLRU[int64, string](4)
	if _, ok := c.Get(1); ok {
		t.Error("empty cache hit")
	}
	c.Put(1, "one")
	if v, ok := c.Get(1); !ok || v != "one" {
		t.Errorf("Get = %q, %v", v, ok)
	}
	c.Put(1, "uno")
	if v, _ := c.Get(1); v != "uno" {
		t.Errorf("overwrite failed: %q", v)
	}
	if c.Len() != 1 {
		t.Errorf("len = %d", c.Len())
	}
}

func TestEvictionOrder(t *testing.T) {
	c := NewLRU[int, int](3)
	c.Put(1, 1)
	c.Put(2, 2)
	c.Put(3, 3)
	c.Get(1)    // 1 freshened; 2 is now oldest
	c.Put(4, 4) // evicts 2
	if _, ok := c.Get(2); ok {
		t.Error("2 should have been evicted")
	}
	for _, k := range []int{1, 3, 4} {
		if _, ok := c.Get(k); !ok {
			t.Errorf("%d evicted wrongly", k)
		}
	}
}

func TestInvalidate(t *testing.T) {
	c := NewLRU[int, string](8)
	c.Put(1, "a")
	c.Put(2, "b")
	c.Invalidate(1)
	c.Invalidate(99) // no-op
	if _, ok := c.Get(1); ok {
		t.Error("invalidated key still present")
	}
	if _, ok := c.Get(2); !ok {
		t.Error("unrelated key lost")
	}
}

func TestStats(t *testing.T) {
	c := NewLRU[int, int](2)
	c.Put(1, 1)
	c.Get(1)
	c.Get(2)
	hits, misses := c.Stats()
	if hits != 1 || misses != 1 {
		t.Errorf("hits=%d misses=%d, want 1/1", hits, misses)
	}
}

func TestMinimumCapacity(t *testing.T) {
	c := NewLRU[int, int](0)
	c.Put(1, 1)
	c.Put(2, 2)
	if c.Len() != 1 {
		t.Errorf("len = %d, want 1", c.Len())
	}
}

// Property: the cache never exceeds capacity, and a Get immediately after a
// Put always hits.
func TestCapacityInvariant(t *testing.T) {
	f := func(keys []uint8, capRaw uint8) bool {
		capacity := int(capRaw%16) + 1
		c := NewLRU[uint8, int](capacity)
		for i, k := range keys {
			c.Put(k, i)
			if v, ok := c.Get(k); !ok || v != i {
				return false
			}
			if c.Len() > capacity {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestConcurrentAccess(t *testing.T) {
	c := NewLRU[int, int](64)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				c.Put(i%100, i)
				c.Get((i + g) % 100)
				if i%37 == 0 {
					c.Invalidate(i % 100)
				}
			}
		}(g)
	}
	wg.Wait()
	if c.Len() > 64 {
		t.Errorf("len = %d", c.Len())
	}
}

func BenchmarkPutGet(b *testing.B) {
	c := NewLRU[string, int](1024)
	keys := make([]string, 2048)
	for i := range keys {
		keys[i] = fmt.Sprintf("entry-%d", i)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		k := keys[i%len(keys)]
		c.Put(k, i)
		c.Get(k)
	}
}
