package server

import (
	"container/list"
	"context"
	"crypto/sha256"
	"fmt"
	"net/http"
	"sync"

	"ooc/internal/cachesnap"
	"ooc/internal/core"
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
// response and a transport-level error (admission rejection, context
// expiry). Only a 200 with no error stays cached: like the
// cross-section cache, errors and error statuses are never retained,
// so the next request recomputes them with a fresh budget. The second
// result is true when this caller did not run fill itself (a cache hit
// or a singleflight join). Counts are recorded in col:
// server.cache.hits for lookups that received a result,
// server.cache.misses for fills, and server.cache.join_aborts for
// waiters whose context expired while joined on an in-flight entry —
// those received nothing, and counting them as hits used to inflate
// the hit rate and make the counters schedule-dependent under
// deadline pressure.
func (c *respCache) do(ctx context.Context, col *obs.Collector, key string, fill func() (response, error)) (response, bool, error) {
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

	resp, err := fill()

	c.mu.Lock()
	e.resp, e.err, e.completed = resp, err, true
	if err != nil || resp.status != http.StatusOK {
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

// export returns every completed entry as snapshot entries, most
// recently used first, so an importer can reconstruct the LRU recency
// order. In-flight slots are never serialized (their responses do not
// exist yet), and only 200s rest in the cache at all — do removes
// every other slot on completion.
func (c *respCache) export() []cachesnap.ResponseEntry {
	c.mu.Lock()
	defer c.mu.Unlock()
	entries := make([]cachesnap.ResponseEntry, 0, c.lru.Len())
	for el := c.lru.Front(); el != nil; el = el.Next() {
		e := el.Value.(*cacheEntry)
		if !e.completed {
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

// importEntries installs snapshot entries as completed slots and
// reports how many were added. Like do, it keeps only 200s: a snapshot
// or peer fill may carry anything, and an installed entry replays as a
// hit until it is evicted. Entries arrive most recently used first
// (export's order) and are appended behind any live entries: the
// receiving process's own traffic outranks imported history. Keys
// already present — completed or in-flight — are left untouched; in
// particular an in-flight owner must never have its slot replaced
// beneath it. Capacity is enforced afterwards, evicting the least
// recently used imports first.
func (c *respCache) importEntries(entries []cachesnap.ResponseEntry) int {
	c.mu.Lock()
	defer c.mu.Unlock()
	added := 0
	for _, ent := range entries {
		if ent.Key == "" || ent.Status != http.StatusOK {
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
			completed: true,
		}
		c.entries[ent.Key] = c.lru.PushBack(e)
		added++
	}
	c.evictLocked()
	return added
}

// specMemo remembers what specio.Parse and specio.Canonical made of a
// request body whose response the cache already served, so a repeat of
// those exact bytes skips both. Both are pure functions of the body,
// so a memoized request serves the same bytes as a parsed one.
//
// Entries are keyed on the body's SHA-256 digest, not on the body:
// json.Unmarshal ignores unknown fields, so a body of up to
// maxSpecBytes can parse to a small spec, and an entry holding the raw
// bytes could cost a megabyte. An entry holds only the spec and its
// canonical key, both shared read-only by every request that finds
// them. Like respCache, the memo is an LRU bounded by Config.CacheSize.
type specMemo struct {
	mu      sync.Mutex
	cap     int
	lru     *list.List // of *memoEntry; front = most recently used
	entries map[[sha256.Size]byte]*list.Element
}

// memoEntry is one memoized body: its digest, spec and canonical key.
type memoEntry struct {
	sum  [sha256.Size]byte
	spec core.Spec
	key  []byte
}

func newSpecMemo(capacity int) *specMemo {
	return &specMemo{
		cap:     capacity,
		lru:     list.New(),
		entries: make(map[[sha256.Size]byte]*list.Element),
	}
}

// get returns the spec and canonical key memoized for the body with
// digest sum, refreshing its recency.
func (m *specMemo) get(sum [sha256.Size]byte) (core.Spec, []byte, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	el, ok := m.entries[sum]
	if !ok {
		return core.Spec{}, nil, false
	}
	m.lru.MoveToFront(el)
	e := el.Value.(*memoEntry)
	return e.spec, e.key, true
}

// put memoizes spec and key for the body with digest sum, evicting the
// least recently used entry beyond capacity. The handlers call it only
// after a response-cache hit answered the body with a 200, so traffic
// that never repeats stores nothing.
func (m *specMemo) put(sum [sha256.Size]byte, spec core.Spec, key []byte) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if _, ok := m.entries[sum]; ok {
		return
	}
	m.entries[sum] = m.lru.PushFront(&memoEntry{sum: sum, spec: spec, key: key})
	if m.lru.Len() > m.cap {
		el := m.lru.Back()
		m.lru.Remove(el)
		delete(m.entries, el.Value.(*memoEntry).sum)
	}
}
