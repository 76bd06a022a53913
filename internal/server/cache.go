package server

import (
	"container/list"
	"context"
	"fmt"
	"sync"

	"ooc/internal/cachesnap"
	"ooc/internal/obs"
)

// response is one fully rendered HTTP response: everything the cache
// must retain to replay a request without re-solving.
type response struct {
	status      int
	contentType string
	body        []byte
}

// cacheEntry is one in-flight or completed response slot. Like the
// cross-section solve cache in internal/sim, the goroutine that
// creates the entry runs the fill, stores the result and closes done;
// every other goroutine that finds the entry waits on done. This
// singleflight design means N identical concurrent requests perform
// exactly one solve and the hit/miss counters are deterministic: each
// unique key is a miss exactly once per cache generation.
type cacheEntry struct {
	key  string
	done chan struct{}
	resp response
	err  error
	// cacheable records whether the completed response may be served
	// to future requests (successful responses only — errors are never
	// cached, mirroring the discipline of the cross-section cache).
	cacheable bool
	// completed guards eviction: in-flight entries are never evicted.
	completed bool
}

// respCache is the singleflight + LRU response cache, keyed on
// canonicalized spec bytes (plus endpoint/model/rendering, assembled
// by the caller). Capacity bounds completed entries; in-flight entries
// are exempt from eviction (their population is already bounded by the
// admission controller).
type respCache struct {
	mu      sync.Mutex
	cap     int
	lru     *list.List // of *cacheEntry; front = most recently used
	entries map[string]*list.Element
}

func newRespCache(capacity int) *respCache {
	return &respCache{
		cap:     capacity,
		lru:     list.New(),
		entries: make(map[string]*list.Element),
	}
}

// do returns the response for key, running fill at most once across
// all concurrent callers with the same key. fill reports the rendered
// response, whether it may be cached, and a transport-level error
// (admission rejection, context expiry) that should not poison the
// cache. The second result is true when this caller did not run fill
// itself (a cache hit or a singleflight join). Counts are recorded in
// col: server.cache.hits for lookups that received a result,
// server.cache.misses for fills, and server.cache.join_aborts for
// waiters whose context expired while joined on an in-flight entry —
// those received nothing, and counting them as hits used to inflate
// the hit rate and make the counters schedule-dependent under
// deadline pressure.
func (c *respCache) do(ctx context.Context, col *obs.Collector, key string, fill func() (response, bool, error)) (response, bool, error) {
	c.mu.Lock()
	if el, ok := c.entries[key]; ok {
		e := el.Value.(*cacheEntry)
		c.lru.MoveToFront(el)
		c.mu.Unlock()
		// A completed entry is a hit regardless of ctx state: without
		// the fast path the select below would choose randomly between
		// a ready done and a ready ctx.Done().
		select {
		case <-e.done:
			col.Add("server.cache.hits", 1)
			return e.resp, true, e.err
		default:
		}
		select {
		case <-e.done:
			col.Add("server.cache.hits", 1)
			return e.resp, true, e.err
		case <-ctx.Done():
			// The owner keeps solving under its own budget; this waiter
			// just stops waiting for it — a join abort, not a hit.
			col.Add("server.cache.join_aborts", 1)
			return response{}, true, fmt.Errorf("server: waiting for identical in-flight request: %w", ctx.Err())
		}
	}
	e := &cacheEntry{key: key, done: make(chan struct{})}
	c.entries[key] = c.lru.PushFront(e)
	c.evictLocked()
	c.mu.Unlock()
	col.Add("server.cache.misses", 1)

	resp, cacheable, err := fill()

	c.mu.Lock()
	e.resp, e.err, e.cacheable, e.completed = resp, err, cacheable, true
	if err != nil || !cacheable {
		// Joined waiters still receive this result via e.done, but the
		// slot is removed so the next request recomputes with a fresh
		// budget. Remove only our own slot: a concurrent Reset or
		// eviction may have replaced it.
		if el, ok := c.entries[key]; ok && el.Value.(*cacheEntry) == e {
			c.lru.Remove(el)
			delete(c.entries, key)
		}
	}
	c.mu.Unlock()
	close(e.done)
	return resp, false, err
}

// evictLocked drops the least-recently-used completed entries until
// the cache is back within capacity. Callers hold c.mu.
func (c *respCache) evictLocked() {
	over := c.lru.Len() - c.cap
	if over <= 0 {
		return
	}
	for el := c.lru.Back(); el != nil && over > 0; {
		prev := el.Prev()
		if e := el.Value.(*cacheEntry); e.completed {
			c.lru.Remove(el)
			delete(c.entries, e.key)
			over--
		}
		el = prev
	}
}

// Len reports the number of entries, completed *and* in-flight.
// Snapshot export must see only completed entries — use LenCompleted
// for the serializable population; the two differ exactly while fills
// are running.
func (c *respCache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.lru.Len()
}

// LenCompleted reports the number of completed entries — the ones
// export would serialize and eviction may remove.
func (c *respCache) LenCompleted() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	n := 0
	for el := c.lru.Front(); el != nil; el = el.Next() {
		if el.Value.(*cacheEntry).completed {
			n++
		}
	}
	return n
}

// export returns every completed, cacheable entry as snapshot entries,
// most recently used first, so an importer can reconstruct the LRU
// recency order. In-flight slots are never serialized (their responses
// do not exist yet), and error/uncacheable fills never rest in the
// cache at all — do removes their slots on completion.
func (c *respCache) export() []cachesnap.ResponseEntry {
	c.mu.Lock()
	defer c.mu.Unlock()
	entries := make([]cachesnap.ResponseEntry, 0, c.lru.Len())
	for el := c.lru.Front(); el != nil; el = el.Next() {
		e := el.Value.(*cacheEntry)
		if !e.completed || !e.cacheable || e.err != nil {
			continue
		}
		entries = append(entries, cachesnap.ResponseEntry{
			Key:         e.key,
			Status:      e.resp.status,
			ContentType: e.resp.contentType,
			Body:        e.resp.body,
		})
	}
	return entries
}

// importEntries installs snapshot entries as completed, cacheable
// slots and reports how many were added. Entries arrive most recently
// used first (export's order) and are appended behind any live
// entries: the receiving process's own traffic outranks imported
// history. Keys already present — completed or in-flight — are left
// untouched; in particular an in-flight owner must never have its slot
// replaced beneath it. Capacity is enforced afterwards, evicting the
// least recently used imports first.
func (c *respCache) importEntries(entries []cachesnap.ResponseEntry) int {
	c.mu.Lock()
	defer c.mu.Unlock()
	added := 0
	for _, ent := range entries {
		if ent.Key == "" || ent.Status == 0 {
			continue
		}
		if _, exists := c.entries[ent.Key]; exists {
			continue
		}
		done := make(chan struct{})
		close(done)
		e := &cacheEntry{
			key:  ent.Key,
			done: done,
			resp: response{
				status:      ent.Status,
				contentType: ent.ContentType,
				body:        ent.Body,
			},
			cacheable: true,
			completed: true,
		}
		c.entries[ent.Key] = c.lru.PushBack(e)
		added++
	}
	c.evictLocked()
	return added
}
