package server

import (
	"context"
	"fmt"
	"testing"
	"time"

	"ooc/internal/cachesnap"
	"ooc/internal/flight"
	"ooc/internal/obs"
)

// lenCompleted reports the number of completed entries in c — the
// ones a snapshot would serialize and eviction may remove.
func lenCompleted(c *flight.Cache[string, response]) int {
	n := 0
	c.Range(func(string, response) { n++ })
	return n
}

func fillOK(body string) func() (response, error) {
	return func() (response, error) {
		return response{status: 200, contentType: "text/plain", body: []byte(body)}, nil
	}
}

// TestCacheLRUEviction: capacity bounds completed entries and evicts
// the least recently used first.
func TestCacheLRUEviction(t *testing.T) {
	ctx := context.Background()
	col := obs.NewCollector()
	c := newRespCache(2)
	for _, k := range []string{"a", "b", "c"} {
		if _, _, err := c.Do(ctx, col, k, fillOK(k)); err != nil {
			t.Fatal(err)
		}
	}
	if lenCompleted(c) != 2 {
		t.Fatalf("completed cache length %d, want 2", lenCompleted(c))
	}
	// "a" was least recently used, so it is the one gone.
	hit := func(k string) bool {
		_, h, err := c.Do(ctx, col, k, fillOK(k))
		if err != nil {
			t.Fatal(err)
		}
		return h
	}
	if hit("a") {
		t.Fatal(`"a" survived eviction`)
	}
	// Touch order now: a(front), c, b evicted — b must recompute.
	if !hit("c") {
		t.Fatal(`"c" was evicted prematurely`)
	}
	if hit("b") {
		t.Fatal(`"b" should have been evicted by "a"'s re-insert`)
	}
}

// TestCacheRecencyOnHit: a hit refreshes recency, protecting hot keys.
func TestCacheRecencyOnHit(t *testing.T) {
	ctx := context.Background()
	col := obs.NewCollector()
	c := newRespCache(2)
	for _, k := range []string{"hot", "cold"} {
		if _, _, err := c.Do(ctx, col, k, fillOK(k)); err != nil {
			t.Fatal(err)
		}
	}
	if _, h, _ := c.Do(ctx, col, "hot", fillOK("hot")); !h { // refresh "hot"
		t.Fatal("expected a hit")
	}
	if _, _, err := c.Do(ctx, col, "new", fillOK("new")); err != nil {
		t.Fatal(err)
	}
	if _, h, _ := c.Do(ctx, col, "hot", fillOK("hot")); !h {
		t.Fatal(`"hot" was evicted despite being most recently used`)
	}
}

// TestCacheErrorAndUncacheableNotRetained: fills that fail or answer
// with anything but a 200 do not occupy a slot afterwards.
func TestCacheErrorAndUncacheableNotRetained(t *testing.T) {
	ctx := context.Background()
	col := obs.NewCollector()
	c := newRespCache(4)
	if _, _, err := c.Do(ctx, col, "boom", func() (response, error) {
		return response{}, fmt.Errorf("transient")
	}); err == nil {
		t.Fatal("expected the fill error back")
	}
	if _, _, err := c.Do(ctx, col, "meh", func() (response, error) {
		return response{status: 422, body: []byte("unprocessable")}, nil
	}); err != nil {
		t.Fatal(err)
	}
	if c.Len() != 0 || lenCompleted(c) != 0 {
		t.Fatalf("errored/uncacheable fills left %d entries (%d completed)", c.Len(), lenCompleted(c))
	}
	if _, hit, _ := c.Do(ctx, col, "meh", fillOK("fresh")); hit {
		t.Fatal("uncacheable result was served from cache")
	}
}

// TestCacheLenCountsInFlight: Len sees in-flight singleflight slots,
// lenCompleted and exportResponses do not — conflating the two used to let a
// snapshot report (and try to serialize) entries that held no response
// yet.
func TestCacheLenCountsInFlight(t *testing.T) {
	ctx := context.Background()
	col := obs.NewCollector()
	c := newRespCache(4)
	entered := make(chan struct{})
	release := make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		_, _, err := c.Do(ctx, col, "slow", func() (response, error) {
			close(entered)
			<-release
			return response{status: 200, contentType: "text/plain", body: []byte("slow")}, nil
		})
		if err != nil {
			t.Error(err)
		}
	}()
	<-entered
	if c.Len() != 1 || lenCompleted(c) != 0 {
		t.Fatalf("mid-fill: Len=%d lenCompleted=%d, want 1/0", c.Len(), lenCompleted(c))
	}
	if exp := exportResponses(c); len(exp) != 0 {
		t.Fatalf("export serialized %d in-flight entries", len(exp))
	}
	close(release)
	<-done
	if c.Len() != 1 || lenCompleted(c) != 1 {
		t.Fatalf("after fill: Len=%d lenCompleted=%d, want 1/1", c.Len(), lenCompleted(c))
	}
	if exp := exportResponses(c); len(exp) != 1 || string(exp[0].Body) != "slow" {
		t.Fatalf("export after fill: %+v", exp)
	}
}

// TestCacheJoinAbortNotCountedAsHit: a waiter that joins an in-flight
// fill and runs out of budget is a join abort, not a hit — and a
// completed entry is a hit even under an already-expired context.
// Pins the determinism: 1 miss (owner), 1 abort, 1 hit, never 2 hits.
func TestCacheJoinAbortNotCountedAsHit(t *testing.T) {
	col := obs.NewCollector()
	c := newRespCache(4)
	entered := make(chan struct{})
	release := make(chan struct{})
	ownerDone := make(chan struct{})
	go func() {
		defer close(ownerDone)
		_, _, err := c.Do(context.Background(), col, "k", func() (response, error) {
			close(entered)
			<-release
			return response{status: 200, contentType: "text/plain", body: []byte("v")}, nil
		})
		if err != nil {
			t.Error(err)
		}
	}()
	<-entered

	expired, cancel := context.WithTimeout(context.Background(), time.Nanosecond)
	defer cancel()
	<-expired.Done()
	if _, joined, err := c.Do(expired, col, "k", fillOK("never")); !joined || err == nil {
		t.Fatalf("expired waiter: joined=%v err=%v, want a join abort error", joined, err)
	}
	snap := col.Snapshot()
	if h, a := snap.Counter("server.cache.hits"), snap.Counter("server.cache.join_aborts"); h != 0 || a != 1 {
		t.Fatalf("expired waiter counted as hits=%d aborts=%d, want 0/1", h, a)
	}

	close(release)
	<-ownerDone
	// The same expired context now finds a completed entry: a hit.
	if resp, joined, err := c.Do(expired, col, "k", fillOK("never")); !joined || err != nil || string(resp.body) != "v" {
		t.Fatalf("completed entry under expired ctx: joined=%v err=%v body=%q", joined, err, resp.body)
	}
	snap = col.Snapshot()
	if h, m, a := snap.Counter("server.cache.hits"), snap.Counter("server.cache.misses"), snap.Counter("server.cache.join_aborts"); h != 1 || m != 1 || a != 1 {
		t.Fatalf("final counts hits=%d misses=%d aborts=%d, want 1/1/1", h, m, a)
	}
}

// TestCacheImportEntries: imported entries replay as hits, live keys
// win over imports, and imports respect capacity (least recently used
// imports evicted first).
func TestCacheImportEntries(t *testing.T) {
	ctx := context.Background()
	col := obs.NewCollector()
	c := newRespCache(4)
	if _, _, err := c.Do(ctx, col, "live", fillOK("local")); err != nil {
		t.Fatal(err)
	}
	added := importResponses(c, []cachesnap.ResponseEntry{
		{Key: "live", Status: 200, ContentType: "text/plain", Body: []byte("imported-shadow")},
		{Key: "warm", Status: 200, ContentType: "text/plain", Body: []byte("warm-body")},
		{Key: "", Status: 200, Body: []byte("keyless")},
		{Key: "zero-status", Body: []byte("no status")},
		{Key: "rejected", Status: 422, Body: []byte("unprocessable")},
		{Key: "failed", Status: 500, Body: []byte("internal error")},
	})
	if added != 1 {
		t.Fatalf("imported %d entries, want only the valid new one", added)
	}
	// The live entry's own body survives the shadowing import.
	if resp, hit, _ := c.Do(ctx, col, "live", fillOK("never")); !hit || string(resp.body) != "local" {
		t.Fatalf("live entry after import: hit=%v body=%q", hit, resp.body)
	}
	// The imported entry replays without filling.
	if resp, hit, _ := c.Do(ctx, col, "warm", fillOK("never")); !hit || string(resp.body) != "warm-body" {
		t.Fatalf("imported entry: hit=%v body=%q", hit, resp.body)
	}

	// Capacity: importing more than fits keeps live + most recent
	// imports; the tail of the import order is evicted.
	small := newRespCache(2)
	if _, _, err := small.Do(ctx, col, "mine", fillOK("mine")); err != nil {
		t.Fatal(err)
	}
	importResponses(small, []cachesnap.ResponseEntry{
		{Key: "mru", Status: 200, Body: []byte("1")},
		{Key: "lru", Status: 200, Body: []byte("2")},
	})
	if lenCompleted(small) != 2 {
		t.Fatalf("import overflowed capacity: %d completed", lenCompleted(small))
	}
	if _, hit, _ := small.Do(ctx, col, "mine", fillOK("never")); !hit {
		t.Fatal("live entry evicted by import")
	}
	if _, hit, _ := small.Do(ctx, col, "lru", fillOK("recomputed")); hit {
		t.Fatal("over-capacity import tail survived")
	}
}

// TestAdmissionOverflow: the queue bound turns the depth+1-th waiter
// away immediately.
func TestAdmissionOverflow(t *testing.T) {
	a := newAdmission(1, 1)
	ctx := context.Background()
	if err := a.acquire(ctx); err != nil { // take the slot
		t.Fatal(err)
	}
	queued := make(chan error, 1)
	go func() { queued <- a.acquire(ctx) }()
	deadline := time.Now().Add(5 * time.Second)
	for {
		if _, q := a.gauges(); q == 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("waiter never queued")
		}
		time.Sleep(time.Millisecond)
	}
	if err := a.acquire(ctx); err != errBusy {
		t.Fatalf("overflow acquire: %v, want errBusy", err)
	}
	a.release()
	if err := <-queued; err != nil {
		t.Fatalf("queued waiter: %v", err)
	}
	a.release()
	if in, q := a.gauges(); in != 0 || q != 0 {
		t.Fatalf("gauges after drain: %d/%d", in, q)
	}
}

// TestAdmissionContextExpiry: a queued waiter gives up when its budget
// expires, and the queue gauge returns to zero.
func TestAdmissionContextExpiry(t *testing.T) {
	a := newAdmission(1, 4)
	if err := a.acquire(context.Background()); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	if err := a.acquire(ctx); err != context.DeadlineExceeded {
		t.Fatalf("expired waiter: %v, want context.DeadlineExceeded", err)
	}
	a.release()
	if in, q := a.gauges(); in != 0 || q != 0 {
		t.Fatalf("gauges after expiry: %d/%d", in, q)
	}
}
