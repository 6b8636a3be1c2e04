// Package cache provides the rendered-output cache table of the paper's
// §2.5: linked renderings of entries are kept until the invalidation index
// marks them stale ("the object IDs returned are updated (invalidated) in
// the cache table, which means they should be reanalyzed by the linker
// before being viewed").
//
// The cache is a bounded LRU so a huge corpus cannot exhaust memory; the
// deployed system kept this table in MySQL, but its semantics — get, put,
// invalidate — are identical.
package cache

import (
	"container/list"
	"sync"
)

// LRU is a bounded least-recently-used cache. All methods are safe for
// concurrent use.
type LRU[K comparable, V any] struct {
	mu    sync.Mutex
	cap   int
	order *list.List // front = most recently used
	items map[K]*list.Element
	hits  int64
	miss  int64
}

type lruEntry[K comparable, V any] struct {
	key   K
	value V
}

// NewLRU creates a cache holding at most capacity entries (minimum 1).
func NewLRU[K comparable, V any](capacity int) *LRU[K, V] {
	if capacity < 1 {
		capacity = 1
	}
	return &LRU[K, V]{
		cap:   capacity,
		order: list.New(),
		items: make(map[K]*list.Element),
	}
}

// Get returns the cached value and whether it was present, refreshing its
// recency.
func (c *LRU[K, V]) Get(key K) (V, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.items[key]; ok {
		c.order.MoveToFront(el)
		c.hits++
		return el.Value.(lruEntry[K, V]).value, true
	}
	c.miss++
	var zero V
	return zero, false
}

// Put stores a value, evicting the least recently used entry if full.
func (c *LRU[K, V]) Put(key K, value V) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.items[key]; ok {
		el.Value = lruEntry[K, V]{key: key, value: value}
		c.order.MoveToFront(el)
		return
	}
	el := c.order.PushFront(lruEntry[K, V]{key: key, value: value})
	c.items[key] = el
	if c.order.Len() > c.cap {
		oldest := c.order.Back()
		if oldest != nil {
			c.order.Remove(oldest)
			delete(c.items, oldest.Value.(lruEntry[K, V]).key)
		}
	}
}

// Invalidate removes a key (a no-op when absent).
func (c *LRU[K, V]) Invalidate(key K) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.items[key]; ok {
		c.order.Remove(el)
		delete(c.items, key)
	}
}

// Purge removes every key.
func (c *LRU[K, V]) Purge() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.order.Init()
	clear(c.items)
}

// Len returns the number of cached entries.
func (c *LRU[K, V]) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.order.Len()
}

// Stats returns cumulative hit and miss counts.
func (c *LRU[K, V]) Stats() (hits, misses int64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.hits, c.miss
}
