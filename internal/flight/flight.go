// Package flight provides Cache, a singleflight cache with an optional
// LRU bound on its completed entries: sim's cross-section solve cache,
// and oocd's response cache and parsed-spec memo.
//
// The goroutine whose lookup creates an entry runs the fill and closes
// the entry's done channel; every other goroutine that finds the entry
// waits on done. So N identical concurrent lookups fill once, and each
// unique key is a miss exactly once per cache generation, which keeps
// the hit/miss counters independent of the schedule.
package flight

import (
	"container/list"
	"context"
	"fmt"
	"sync"

	"ooc/internal/obs"
)

// Counters names the collector counters Do records: hits (a completed
// entry or a join), misses (fills) and join aborts. A join abort is a
// waiter whose context expired before the owner finished; it received
// nothing, and counting it as a hit used to inflate the hit rate and
// make the counters schedule-dependent under deadline pressure.
type Counters struct{ Hits, Misses, JoinAborts string }

// entry is one in-flight or completed slot. val and err are written
// once, under the cache's lock, when completed is set; done is closed
// after that, and is nil for the completed entries Put and Append
// install.
type entry[K comparable, V any] struct {
	key       K
	done      chan struct{}
	val       V
	err       error
	completed bool
}

// Cache is a singleflight cache keyed on K. Its capacity bounds the
// completed entries, evicting the least recently used first; in-flight
// entries are exempt, bounded by whoever runs the fills.
type Cache[K comparable, V any] struct {
	cap   int
	names Counters
	abort string
	keep  func(V, error) bool

	mu  sync.Mutex
	lru *list.List // of *entry[K, V]; front = most recently used
	m   map[K]*list.Element
}

// New returns an empty cache. capacity ≤ 0 means unbounded. names are
// the counters Do records, and abort prefixes the error a join abort
// returns. keep decides which completed fills stay cached; a nil keep
// keeps every fill that returned no error. A fill that is not kept
// still answers the waiters joined on it, but the next lookup fills
// again with a fresh budget.
func New[K comparable, V any](capacity int, names Counters, abort string, keep func(V, error) bool) *Cache[K, V] {
	if keep == nil {
		keep = func(_ V, err error) bool { return err == nil }
	}
	return &Cache[K, V]{
		cap:   capacity,
		names: names,
		abort: abort,
		keep:  keep,
		lru:   list.New(),
		m:     make(map[K]*list.Element),
	}
}

// Do returns the value for key, running fill at most once across all
// concurrent callers with the same key, and records the lookup in col.
// The second result is true when this caller did not run fill itself:
// a hit, a singleflight join, or a join abort, whose error wraps
// ctx.Err() behind the cache's abort prefix. The fill runs under its
// owner's budget; a waiter's ctx only bounds how long it waits.
func (c *Cache[K, V]) Do(ctx context.Context, col *obs.Collector, key K, fill func() (V, error)) (V, bool, error) {
	c.mu.Lock()
	if el, ok := c.m[key]; ok {
		e := el.Value.(*entry[K, V])
		c.lru.MoveToFront(el)
		completed := e.completed
		c.mu.Unlock()
		// A completed entry is a hit whatever the state of ctx: only a
		// join waits, so an expired context never turns a completed
		// entry into an abort and the hit/abort split stays
		// schedule-independent.
		if !completed {
			select {
			case <-e.done:
			case <-ctx.Done():
				col.Add(c.names.JoinAborts, 1)
				var zero V
				return zero, true, fmt.Errorf("%s: %w", c.abort, ctx.Err())
			}
		}
		col.Add(c.names.Hits, 1)
		return e.val, true, e.err
	}
	e := &entry[K, V]{key: key, done: make(chan struct{})}
	c.m[key] = c.lru.PushFront(e)
	c.evictLocked()
	c.mu.Unlock()
	col.Add(c.names.Misses, 1)

	val, err := fill()
	kept := c.keep(val, err)

	c.mu.Lock()
	e.val, e.err, e.completed = val, err, true
	if !kept {
		// Remove only our own slot: a concurrent Reset may have replaced
		// it. Nor is a kept slot ever reinstalled, so a fill that
		// outlives a Reset leaves the fresh generation alone.
		if el, ok := c.m[key]; ok && el.Value.(*entry[K, V]) == e {
			c.lru.Remove(el)
			delete(c.m, key)
		}
	}
	c.mu.Unlock()
	close(e.done)
	return val, false, err
}

// Get returns the completed value for key, refreshing its recency. It
// records nothing and never waits: an in-flight key is absent.
func (c *Cache[K, V]) Get(key K) (V, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.m[key]; ok {
		if e := el.Value.(*entry[K, V]); e.completed {
			c.lru.MoveToFront(el)
			return e.val, true
		}
	}
	var zero V
	return zero, false
}

// Put installs v for key as the most recently used entry, unless key
// is already present, completed or in flight.
func (c *Cache[K, V]) Put(key K, v V) {
	c.install(key, v, (*list.List).PushFront)
}

// Append installs v for key as the least recently used entry, unless
// key is already present, and reports whether it did. Appending
// entries in most-recently-used-first order rebuilds an exported
// recency order behind the live entries; beyond capacity the appended
// tail is evicted first.
func (c *Cache[K, V]) Append(key K, v V) bool {
	return c.install(key, v, (*list.List).PushBack)
}

func (c *Cache[K, V]) install(key K, v V, push func(*list.List, any) *list.Element) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, ok := c.m[key]; ok {
		return false
	}
	c.m[key] = push(c.lru, &entry[K, V]{key: key, val: v, completed: true})
	c.evictLocked()
	return true
}

// evictLocked drops the least recently used completed entries until
// the cache is back within capacity. Callers hold c.mu.
func (c *Cache[K, V]) evictLocked() {
	if c.cap <= 0 {
		return
	}
	over := c.lru.Len() - c.cap
	for el := c.lru.Back(); el != nil && over > 0; {
		prev := el.Prev()
		if e := el.Value.(*entry[K, V]); e.completed {
			c.lru.Remove(el)
			delete(c.m, e.key)
			over--
		}
		el = prev
	}
}

// Range calls fn for every completed entry, most recently used first.
// In-flight entries hold no value yet and are skipped. The entries are
// collected under the lock and visited after it is released, so fn may
// call back into the cache.
func (c *Cache[K, V]) Range(fn func(K, V)) {
	c.mu.Lock()
	completed := make([]*entry[K, V], 0, c.lru.Len())
	for el := c.lru.Front(); el != nil; el = el.Next() {
		if e := el.Value.(*entry[K, V]); e.completed {
			completed = append(completed, e)
		}
	}
	c.mu.Unlock()
	// A completed entry's key and value are never written again.
	for _, e := range completed {
		fn(e.key, e.val)
	}
}

// Len reports the number of entries, completed and in flight.
func (c *Cache[K, V]) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.lru.Len()
}

// Reset empties the cache. Fills in flight still answer their joined
// waiters, but their slots are not reinstalled.
func (c *Cache[K, V]) Reset() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.lru = list.New()
	c.m = make(map[K]*list.Element)
}
