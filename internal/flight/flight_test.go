package flight

import (
	"context"
	"errors"
	"strings"
	"sync"
	"testing"

	"ooc/internal/obs"
)

var (
	names   = Counters{Hits: "hits", Misses: "misses", JoinAborts: "aborts"}
	errBoom = errors.New("boom")
)

// keys lists the completed keys of c, most recently used first.
func keys(c *Cache[string, int]) string {
	var out []string
	c.Range(func(k string, _ int) { out = append(out, k) })
	return strings.Join(out, ",")
}

// blockingFill starts an owner whose fill for key blocks until the
// returned release is closed, and waits until the fill runs.
func blockingFill(t *testing.T, c *Cache[string, int], key string, val int, err error) (release, done chan struct{}) {
	t.Helper()
	entered := make(chan struct{})
	release, done = make(chan struct{}), make(chan struct{})
	go func() {
		defer close(done)
		if _, _, got := c.Do(context.Background(), nil, key, func() (int, error) {
			close(entered)
			<-release
			return val, err
		}); got != err {
			t.Errorf("owner of %q: err=%v, want %v", key, got, err)
		}
	}()
	<-entered
	return release, done
}

// TestDoSingleflight: concurrent lookups of one key fill once, and
// every caller receives the owner's value.
func TestDoSingleflight(t *testing.T) {
	c := New[string, int](0, names, "waiting", nil)
	col := obs.NewCollector()
	release, done := blockingFill(t, c, "k", 7, nil)
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			v, shared, err := c.Do(context.Background(), col, "k", func() (int, error) { return -1, nil })
			if v != 7 || !shared || err != nil {
				t.Errorf("joined lookup: v=%d shared=%v err=%v", v, shared, err)
			}
		}()
	}
	close(release)
	<-done
	wg.Wait()
	snap := col.Snapshot()
	if h, m := snap.Counter("hits"), snap.Counter("misses"); h != 8 || m != 0 {
		t.Fatalf("hits=%d misses=%d, want 8/0", h, m)
	}
}

// TestDoJoinAbort: a waiter whose context expires while joined gets an
// error behind the abort prefix and counts as a join abort; a
// completed entry is a hit even under an expired context.
func TestDoJoinAbort(t *testing.T) {
	c := New[string, int](0, names, "waiting for k", nil)
	col := obs.NewCollector()
	release, done := blockingFill(t, c, "k", 3, nil)
	expired, cancel := context.WithCancel(context.Background())
	cancel()
	_, shared, err := c.Do(expired, col, "k", func() (int, error) { return -1, nil })
	if !shared || !errors.Is(err, context.Canceled) || !strings.HasPrefix(err.Error(), "waiting for k: ") {
		t.Fatalf("join abort: shared=%v err=%v", shared, err)
	}
	close(release)
	<-done
	if v, _, err := c.Do(expired, col, "k", func() (int, error) { return -1, nil }); v != 3 || err != nil {
		t.Fatalf("completed entry under expired ctx: v=%d err=%v", v, err)
	}
	snap := col.Snapshot()
	if h, m, a := snap.Counter("hits"), snap.Counter("misses"), snap.Counter("aborts"); h != 1 || m != 0 || a != 1 {
		t.Fatalf("hits=%d misses=%d aborts=%d, want 1/0/1", h, m, a)
	}
}

// TestDoKeep: a fill keep refuses still answers its caller but leaves
// no slot, so the next lookup fills again; the default keep refuses
// errors only.
func TestDoKeep(t *testing.T) {
	even := New[string](0, names, "", func(v int, err error) bool { return err == nil && v%2 == 0 })
	if v, shared, _ := even.Do(context.Background(), nil, "k", func() (int, error) { return 1, nil }); v != 1 || shared {
		t.Fatalf("refused fill: v=%d shared=%v", v, shared)
	}
	if even.Len() != 0 {
		t.Fatalf("refused fill left %d entries", even.Len())
	}
	c := New[string, int](0, names, "", nil)
	if _, _, err := c.Do(context.Background(), nil, "k", func() (int, error) { return 0, errBoom }); err != errBoom {
		t.Fatalf("failed fill: err=%v", err)
	}
	if v, shared, err := c.Do(context.Background(), nil, "k", func() (int, error) { return 5, nil }); v != 5 || shared || err != nil {
		t.Fatalf("refill after failure: v=%d shared=%v err=%v", v, shared, err)
	}
}

// TestResetDoesNotResurrect: fills in flight across a Reset leave the
// fresh generation empty, whether they are kept or not.
func TestResetDoesNotResurrect(t *testing.T) {
	c := New[string, int](0, names, "", nil)
	okRelease, okDone := blockingFill(t, c, "ok", 1, nil)
	errRelease, errDone := blockingFill(t, c, "err", 0, errBoom)
	c.Reset()
	close(okRelease)
	close(errRelease)
	<-okDone
	<-errDone
	if n := c.Len(); n != 0 {
		t.Fatalf("Reset generation holds %d entries", n)
	}
}

// TestEvictionExemptsInFlight: capacity evicts the least recently used
// completed entries and never an in-flight one.
func TestEvictionExemptsInFlight(t *testing.T) {
	c := New[string, int](2, names, "", nil)
	release, done := blockingFill(t, c, "slow", 9, nil)
	for i, k := range []string{"a", "b", "c"} {
		if _, _, err := c.Do(context.Background(), nil, k, func() (int, error) { return i, nil }); err != nil {
			t.Fatal(err)
		}
	}
	if n, ks := c.Len(), keys(c); n != 2 || ks != "c" {
		t.Fatalf("with a fill in flight: Len=%d completed=%q, want 2 and c", n, ks)
	}
	close(release)
	<-done
	if ks := keys(c); ks != "c,slow" {
		t.Fatalf("after the fill: completed=%q, want c,slow", ks)
	}
}

// TestPutAppendGetRange: Put installs at the front and Append at the
// back, neither replaces a present key, Get refreshes recency without
// counting, and capacity evicts from the back.
func TestPutAppendGetRange(t *testing.T) {
	c := New[string, int](3, names, "", nil)
	c.Put("a", 1)
	c.Put("b", 2)
	c.Put("a", 100)
	if !c.Append("z", 26) || c.Append("b", 200) {
		t.Fatal("Append installed a present key or refused a new one")
	}
	if ks := keys(c); ks != "b,a,z" {
		t.Fatalf("order %q, want b,a,z", ks)
	}
	if v, ok := c.Get("a"); !ok || v != 1 {
		t.Fatalf("Get(a) = %d, %v", v, ok)
	}
	c.Append("y", 25) // over capacity: the appended tail goes first
	if ks := keys(c); ks != "a,b,z" {
		t.Fatalf("order after Get and Append %q, want a,b,z", ks)
	}
	c.Put("c", 3)
	if ks := keys(c); ks != "c,a,b" {
		t.Fatalf("order after Put %q, want c,a,b", ks)
	}
	release, done := blockingFill(t, c, "slow", 0, nil)
	if _, ok := c.Get("slow"); ok {
		t.Fatal("Get returned an in-flight entry")
	}
	close(release)
	<-done
}
