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
	c.RecordSolve(SolveStats{Solver: "sor", Iterations: 100, Converged: true})
	c.RecordSolve(SolveStats{Solver: "sor", Iterations: 40, Converged: true})
	c.RecordSolve(SolveStats{Solver: "sor", Iterations: 700, Converged: false})
	c.RecordSolve(SolveStats{Solver: "cg", Iterations: 12, Converged: true})
	c.Add(CrossSectionHits, 1)
	c.Add(CrossSectionHits, 1)
	c.Add(CrossSectionMisses, 1)

	s := c.Snapshot()
	solvers := s.Solvers()
	if len(solvers) != 2 {
		t.Fatalf("solver kinds: %d", len(solvers))
	}
	// Sorted by name: cg before sor.
	if solvers[0].Solver != "cg" || solvers[1].Solver != "sor" {
		t.Fatalf("solver order: %+v", solvers)
	}
	sor := solvers[1]
	if sor.Solves != 3 || sor.Converged != 2 {
		t.Fatalf("sor counts: %+v", sor)
	}
	if sor.TotalIterations != 840 || sor.MinIterations != 40 || sor.MaxIterations != 700 {
		t.Fatalf("sor iterations: %+v", sor)
	}
	if h, m := s.Counter(CrossSectionHits), s.Counter(CrossSectionMisses); h != 2 || m != 1 {
		t.Fatalf("cache: %d/%d", h, m)
	}
	if !strings.Contains(s.Format(), "hit rate 66.7%") {
		t.Fatalf("hit rate missing:\n%s", s.Format())
	}
}

func TestHistogramBuckets(t *testing.T) {
	c := NewCollector()
	// 100 falls in [64..127], 40 in [32..63], 700 in [512..1023].
	for _, it := range []int{100, 40, 700, 100} {
		c.RecordSolve(SolveStats{Solver: "sor", Iterations: it})
	}
	hist := c.Snapshot().Solvers()[0].Histogram
	want := []Bucket{{32, 63, 1}, {64, 127, 2}, {512, 1023, 1}}
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
			c.RecordSolve(SolveStats{Solver: "sor", Iterations: it, Converged: true})
			c.Observe("request.design", time.Duration(it)*time.Microsecond)
		}
		c.Add(CrossSectionMisses, 1)
		c.Add(CrossSectionHits, 1)
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
	c.RecordSolve(SolveStats{Solver: "sor", Iterations: 100, Converged: true})
	c.RecordSolve(SolveStats{Solver: "sor", Iterations: 40, Converged: true})
	c.RecordSolve(SolveStats{Solver: "sor", Iterations: 700, Converged: false})
	c.RecordSolve(SolveStats{Solver: "sor", Iterations: 100, Converged: true})
	c.RecordSolve(SolveStats{Solver: "cg", Iterations: 12, Converged: true})
	c.Add(CrossSectionHits, 3)
	c.Add(CrossSectionMisses, 1)
	c.Add(CrossSectionJoinAborts, 1)
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
	for _, want := range []string{"solves: none", "no lookups"} {
		if !strings.Contains(out, want) {
			t.Fatalf("empty summary lacks %q:\n%s", want, out)
		}
	}
}

func TestContextPlumbing(t *testing.T) {
	c := NewCollector()
	ctx := WithCollector(context.Background(), c)
	FromContext(ctx).Add(CrossSectionHits, 1)
	if got := c.Snapshot().Counter(CrossSectionHits); got != 1 {
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
	c.Add("requests", 1)
	c.Observe("request", time.Millisecond)
	c.Reset()
	if s := c.Snapshot(); len(s.Counters) != 0 || len(s.Histograms) != 0 {
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
	if len(s.Histograms) != 2 || s.Histograms[0].Name != "request.design" {
		t.Fatalf("timings: %+v", s.Histograms)
	}
	d := s.Histograms[0]
	if d.Count != 4 || d.Sum != 240 || d.Min != 0 || d.Max != 100 {
		t.Fatalf("design timing: %+v", d)
	}
	want := []Bucket{{0, 0, 1}, {32, 63, 1}, {64, 127, 2}}
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
				c.Add(CrossSectionHits, 1)
				c.Observe("request.design", time.Microsecond)
			}
		}()
	}
	wg.Wait()
	s := c.Snapshot()
	if sor := s.Solvers()[0]; sor.Solves != 800 || sor.Converged != 800 ||
		s.Counter(CrossSectionHits) != 800 || s.Histograms[0].Count != 800 {
		t.Fatalf("lost events: %+v", s)
	}
}

func TestReset(t *testing.T) {
	c := NewCollector()
	c.RecordSolve(SolveStats{Solver: "sor", Iterations: 5})
	c.Add(CrossSectionHits, 1)
	c.Reset()
	s := c.Snapshot()
	if len(s.Counters) != 0 || len(s.Histograms) != 0 {
		t.Fatalf("reset incomplete: %+v", s)
	}
}
