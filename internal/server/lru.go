package server

import (
	"container/list"
	"sync"
)

// lru is a bounded, thread-safe map that evicts its least recently used
// entry once it holds more than its capacity. The result, refine and
// prepared caches and the uploaded-dataset store are typed wrappers
// around it.
type lru[K comparable, V any] struct {
	mu    sync.Mutex
	cap   int
	order *list.List // front = most recently used
	items map[K]*list.Element
}

type lruEntry[K comparable, V any] struct {
	key K
	val V
}

// newLRU returns an empty cache holding at most capacity entries, or
// fallback entries when capacity ≤ 0.
func newLRU[K comparable, V any](capacity, fallback int) *lru[K, V] {
	if capacity <= 0 {
		capacity = fallback
	}
	return &lru[K, V]{cap: capacity, order: list.New(), items: make(map[K]*list.Element)}
}

// get returns the value stored under key and marks it most recently
// used.
func (c *lru[K, V]) get(key K) (val V, ok bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.items[key]
	if !ok {
		return val, false
	}
	c.order.MoveToFront(el)
	return el.Value.(*lruEntry[K, V]).val, true
}

// put stores val under key as the most recently used entry, evicting
// least recently used entries while over capacity. A key already present
// is only refreshed: its value is replaced unless keepFirst is set.
// existed reports whether the key was present; evicted counts the
// entries dropped to make room.
func (c *lru[K, V]) put(key K, val V, keepFirst bool) (existed bool, evicted int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.items[key]; ok {
		if !keepFirst {
			el.Value.(*lruEntry[K, V]).val = val
		}
		c.order.MoveToFront(el)
		return true, 0
	}
	c.items[key] = c.order.PushFront(&lruEntry[K, V]{key: key, val: val})
	for c.order.Len() > c.cap {
		oldest := c.order.Back()
		c.order.Remove(oldest)
		delete(c.items, oldest.Value.(*lruEntry[K, V]).key)
		evicted++
	}
	return false, evicted
}

// delete removes key, reporting whether it was present.
func (c *lru[K, V]) delete(key K) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.items[key]
	if !ok {
		return false
	}
	c.order.Remove(el)
	delete(c.items, key)
	return true
}

// len reports the number of stored entries.
func (c *lru[K, V]) len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.order.Len()
}

// values returns the stored values, most recently used first.
func (c *lru[K, V]) values() []V {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]V, 0, c.order.Len())
	for el := c.order.Front(); el != nil; el = el.Next() {
		out = append(out, el.Value.(*lruEntry[K, V]).val)
	}
	return out
}
