package obs

import (
	"context"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestCollectorAggregates(t *testing.T) {
	c := NewCollector()
	c.RecordSolve(SolveStats{Solver: "sor", Iterations: 100, Converged: true, Wall: time.Millisecond})
	c.RecordSolve(SolveStats{Solver: "sor", Iterations: 40, Converged: true})
	c.RecordSolve(SolveStats{Solver: "sor", Iterations: 700, Converged: false})
	c.RecordSolve(SolveStats{Solver: "cg", Iterations: 12, Converged: true})
	c.RecordCacheHit()
	c.RecordCacheHit()
	c.RecordCacheMiss()
	c.RecordDegradation("numeric resistance -> analytic exact (deadline)")

	s := c.Snapshot()
	if len(s.Solvers) != 2 {
		t.Fatalf("solver kinds: %d", len(s.Solvers))
	}
	// Sorted by name: cg before sor.
	if s.Solvers[0].Solver != "cg" || s.Solvers[1].Solver != "sor" {
		t.Fatalf("solver order: %+v", s.Solvers)
	}
	sor := s.Solvers[1]
	if sor.Solves != 3 || sor.Converged != 2 {
		t.Fatalf("sor counts: %+v", sor)
	}
	if sor.TotalIterations != 840 || sor.MinIterations != 40 || sor.MaxIterations != 700 {
		t.Fatalf("sor iterations: %+v", sor)
	}
	if s.CacheHits != 2 || s.CacheMisses != 1 {
		t.Fatalf("cache: %d/%d", s.CacheHits, s.CacheMisses)
	}
	if got := s.CacheHitRate(); got < 0.66 || got > 0.67 {
		t.Fatalf("hit rate %g", got)
	}
	if s.TotalDegradations() != 1 {
		t.Fatalf("degradations: %+v", s.Degradations)
	}
}

func TestHistogramBuckets(t *testing.T) {
	c := NewCollector()
	// 100 falls in [64..127], 40 in [32..63], 700 in [512..1023].
	for _, it := range []int{100, 40, 700, 100} {
		c.RecordSolve(SolveStats{Solver: "sor", Iterations: it})
	}
	hist := c.Snapshot().Solvers[0].Histogram
	want := []IterBucket{{32, 63, 1}, {64, 127, 2}, {512, 1023, 1}}
	if len(hist) != len(want) {
		t.Fatalf("histogram: %+v", hist)
	}
	for i, h := range hist {
		if h != want[i] {
			t.Fatalf("bucket %d: got %+v want %+v", i, h, want[i])
		}
	}
}

func TestFormatDeterministicAndWallFree(t *testing.T) {
	build := func(order []int) string {
		c := NewCollector()
		for _, it := range order {
			c.RecordSolve(SolveStats{Solver: "sor", Iterations: it, Converged: true,
				Wall: time.Duration(it) * time.Microsecond})
		}
		c.RecordCacheMiss()
		c.RecordCacheHit()
		return c.Snapshot().Format()
	}
	a := build([]int{10, 600, 75})
	b := build([]int{75, 10, 600})
	if a != b {
		t.Fatalf("format depends on event order:\n%s\nvs\n%s", a, b)
	}
	if strings.Contains(a, "µs") || strings.Contains(a, "ms") {
		t.Fatalf("format leaks wall-clock time:\n%s", a)
	}
	if !strings.Contains(a, "hit rate 50.0%") {
		t.Fatalf("missing hit rate:\n%s", a)
	}
}

// TestFormatText pins Format's full rendering for a collector that has
// seen every event kind it prints, so a refactor of the aggregates
// behind it must reproduce the report byte for byte.
func TestFormatText(t *testing.T) {
	c := NewCollector()
	// Three sor buckets ([32..63], [64..127], [512..1023]), one solve
	// unconverged; one cg solve.
	c.RecordSolve(SolveStats{Solver: "sor", Iterations: 100, Converged: true, Wall: time.Millisecond})
	c.RecordSolve(SolveStats{Solver: "sor", Iterations: 40, Converged: true})
	c.RecordSolve(SolveStats{Solver: "sor", Iterations: 700, Converged: false})
	c.RecordSolve(SolveStats{Solver: "sor", Iterations: 100, Converged: true})
	c.RecordSolve(SolveStats{Solver: "cg", Iterations: 12, Converged: true})
	c.RecordCacheHit()
	c.RecordCacheHit()
	c.RecordCacheHit()
	c.RecordCacheMiss()
	c.RecordCacheJoinAbort()
	c.RecordDegradation("numeric resistance -> analytic exact (deadline)")
	c.RecordDegradation("numeric resistance -> analytic exact (deadline)")
	c.RecordDegradation("field solve -> lumped (error)")
	c.Add("requests.validate.400", 1)
	c.Add("requests.design.200", 5)
	// Timings are wall-clock data and must not print.
	c.Observe("request.design", 3*time.Millisecond)

	const want = `solver telemetry
  cg: 1 solves (1 converged), iterations total 12, min 12, max 12
    iters 8..15: 1
  sor: 4 solves (3 converged), iterations total 940, min 40, max 700
    iters 32..63: 1
    iters 64..127: 2
    iters 512..1023: 1
  cross-section cache: 3 hits / 1 misses (hit rate 75.0%)
  cross-section cache join aborts: 1
  degradations: 3
    field solve -> lumped (error): 1
    numeric resistance -> analytic exact (deadline): 2
  counters:
    requests.design.200: 5
    requests.validate.400: 1
`
	if got := c.Snapshot().Format(); got != want {
		t.Fatalf("Format:\n%s\nwant:\n%s", got, want)
	}
}

func TestEmptySummaryFormat(t *testing.T) {
	out := NewCollector().Snapshot().Format()
	for _, want := range []string{"solves: none", "no lookups", "degradations: none"} {
		if !strings.Contains(out, want) {
			t.Fatalf("empty summary lacks %q:\n%s", want, out)
		}
	}
}

func TestContextPlumbing(t *testing.T) {
	c := NewCollector()
	ctx := WithCollector(context.Background(), c)
	FromContext(ctx).RecordCacheHit()
	if got := c.Snapshot().CacheHits; got != 1 {
		t.Fatalf("installed collector missed the event: %d", got)
	}
	// No collector installed: falls back to Default.
	if FromContext(context.Background()) != Default() {
		t.Fatal("missing fallback to Default")
	}
	if FromContext(nil) != Default() {
		t.Fatal("nil context must resolve to Default")
	}
}

func TestNilCollectorSafe(t *testing.T) {
	var c *Collector
	c.RecordSolve(SolveStats{Solver: "sor"})
	c.RecordCacheHit()
	c.RecordCacheMiss()
	c.RecordDegradation("x")
	c.Add("requests", 1)
	c.Observe("request", time.Millisecond)
	c.Reset()
	if s := c.Snapshot(); len(s.Solvers) != 0 {
		t.Fatal("nil collector produced data")
	}
}

func TestNamedCounters(t *testing.T) {
	c := NewCollector()
	c.Add("requests.design.200", 2)
	c.Add("requests.validate.400", 1)
	c.Add("requests.design.200", 3)
	s := c.Snapshot()
	if got := s.Counter("requests.design.200"); got != 5 {
		t.Fatalf("counter value: %d", got)
	}
	if got := s.Counter("requests.validate.400"); got != 1 {
		t.Fatalf("counter value: %d", got)
	}
	if got := s.Counter("absent"); got != 0 {
		t.Fatalf("absent counter: %d", got)
	}
	// Sorted by name.
	if len(s.Counters) != 2 || s.Counters[0].Name != "requests.design.200" {
		t.Fatalf("counter order: %+v", s.Counters)
	}
	out := s.Format()
	if !strings.Contains(out, "requests.design.200: 5") {
		t.Fatalf("Format lacks counters:\n%s", out)
	}
	// A counter-free summary keeps the historical rendering.
	if out := NewCollector().Snapshot().Format(); strings.Contains(out, "counters") {
		t.Fatalf("empty summary grew a counters section:\n%s", out)
	}
}

func TestTimings(t *testing.T) {
	c := NewCollector()
	// 100µs falls in [64..127]µs, 40µs in [32..63]µs.
	c.Observe("request.design", 100*time.Microsecond)
	c.Observe("request.design", 40*time.Microsecond)
	c.Observe("request.design", 100*time.Microsecond)
	c.Observe("request.validate", time.Millisecond)
	c.Observe("request.design", -time.Second) // clamped to 0
	s := c.Snapshot()
	if len(s.Timings) != 2 || s.Timings[0].Name != "request.design" {
		t.Fatalf("timings: %+v", s.Timings)
	}
	d := s.Timings[0]
	if d.Count != 4 || d.Total != 240*time.Microsecond {
		t.Fatalf("design timing: %+v", d)
	}
	want := []TimingBucket{{0, 0, 1}, {32, 63, 1}, {64, 127, 2}}
	if len(d.Buckets) != len(want) {
		t.Fatalf("buckets: %+v", d.Buckets)
	}
	for i, b := range d.Buckets {
		if b != want[i] {
			t.Fatalf("bucket %d: got %+v want %+v", i, b, want[i])
		}
	}
	// Timings never leak into the deterministic Format rendering.
	if out := s.Format(); strings.Contains(out, "request.design") {
		t.Fatalf("Format leaks timings:\n%s", out)
	}
}

func TestConcurrentRecording(t *testing.T) {
	c := NewCollector()
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				c.RecordSolve(SolveStats{Solver: "sor", Iterations: 50, Converged: true})
				c.RecordCacheHit()
				c.RecordCacheMiss()
			}
		}()
	}
	wg.Wait()
	s := c.Snapshot()
	if s.Solvers[0].Solves != 800 || s.CacheHits != 800 || s.CacheMisses != 800 {
		t.Fatalf("lost events: %+v", s)
	}
}

func TestReset(t *testing.T) {
	c := NewCollector()
	c.RecordSolve(SolveStats{Solver: "sor", Iterations: 5})
	c.RecordCacheHit()
	c.Reset()
	s := c.Snapshot()
	if len(s.Solvers) != 0 || s.CacheLookups() != 0 {
		t.Fatalf("reset incomplete: %+v", s)
	}
}
