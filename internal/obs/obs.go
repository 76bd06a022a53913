// Package obs is the stdlib-only telemetry layer of the numeric
// stack: the iterative solvers (the SOR cross-section solver in
// internal/linalg, the CG field solver in internal/field) report a
// SolveStats record per solve, the cross-section solve cache reports
// hits and misses, and the validation pipeline reports graceful
// model degradations. A Collector aggregates those events into a
// deterministic Summary that cmd/oocbench prints under -stats.
//
// Collectors travel through context.Context (WithCollector /
// FromContext); code that records without an installed collector
// falls back to the process-wide Default collector. All counters are
// integers aggregated with order-insensitive operations (sums, min,
// max), so a Summary — and its Format rendering — is byte-identical
// for any worker count and goroutine schedule, provided the recorded
// events themselves are deterministic (which the solvers and the
// singleflight cross-section cache guarantee).
//
// This package is the sanctioned home for shared mutable counters:
// every write is guarded by the Collector mutex, and ooclint's
// concurrency rule recognizes the package (like internal/parallel)
// as concurrency substrate.
package obs

import (
	"context"
	"fmt"
	"math/bits"
	"sort"
	"strings"
	"sync"
	"time"
)

// SolveStats is one iterative solve's outcome, including partial
// progress when the solve was cancelled or ran out of budget.
type SolveStats struct {
	// Solver identifies the algorithm ("sor", "cg").
	Solver string
	// Iterations performed (full sweeps for SOR, CG iterations).
	Iterations int
	// Residual is the solver's convergence measure at exit (relative
	// max update for SOR, relative residual norm for CG). It reports
	// partial progress even when the solve did not converge.
	Residual float64
	// Wall is the elapsed wall-clock time of the solve.
	Wall time.Duration
	// Converged reports whether the tolerance was met within the
	// iteration budget (false on ErrNoConvergence and on
	// cancellation/deadline aborts).
	Converged bool
}

// solverAgg accumulates per-solver-kind statistics.
type solverAgg struct {
	solves    int
	converged int
	totalIter int
	minIter   int
	maxIter   int
	wall      time.Duration
	// hist buckets solves by iteration count: bucket k holds solves
	// with iterations in [2^(k-1), 2^k) — i.e. k = bits.Len(iters).
	hist map[int]int
}

// timingAgg accumulates one named duration histogram. Buckets are
// exponential in microseconds: bucket k holds observations with
// microseconds in [2^(k-1), 2^k) — i.e. k = bits.Len(micros).
type timingAgg struct {
	count   int64
	total   time.Duration
	buckets map[int]int64
}

// Collector aggregates telemetry events. The zero value is not
// usable; construct with NewCollector. All methods are safe for
// concurrent use and are no-ops on a nil receiver.
type Collector struct {
	mu              sync.Mutex
	solvers         map[string]*solverAgg
	cacheHits       int64
	cacheMisses     int64
	cacheJoinAborts int64
	degradations    map[string]int
	counters        map[string]int64
	timings         map[string]*timingAgg
}

// NewCollector returns an empty collector.
func NewCollector() *Collector {
	return &Collector{
		solvers:      make(map[string]*solverAgg),
		degradations: make(map[string]int),
		counters:     make(map[string]int64),
		timings:      make(map[string]*timingAgg),
	}
}

// defaultCollector is the process-wide fallback collector used when no
// collector is installed in the context.
var defaultCollector = NewCollector()

// Default returns the process-wide collector.
func Default() *Collector { return defaultCollector }

// ctxKey is the context key type for installed collectors.
type ctxKey struct{}

// WithCollector returns a context carrying c; solvers and caches
// running under the returned context record into c instead of the
// Default collector.
func WithCollector(ctx context.Context, c *Collector) context.Context {
	return context.WithValue(ctx, ctxKey{}, c)
}

// FromContext returns the collector installed in ctx, or the Default
// collector when none (or a nil context) is given.
func FromContext(ctx context.Context) *Collector {
	if ctx != nil {
		if c, ok := ctx.Value(ctxKey{}).(*Collector); ok && c != nil {
			return c
		}
	}
	return defaultCollector
}

// RecordSolve aggregates one solve outcome.
func (c *Collector) RecordSolve(s SolveStats) {
	if c == nil {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	agg := c.solvers[s.Solver]
	if agg == nil {
		agg = &solverAgg{minIter: s.Iterations, maxIter: s.Iterations, hist: make(map[int]int)}
		c.solvers[s.Solver] = agg
	}
	agg.solves++
	if s.Converged {
		agg.converged++
	}
	agg.totalIter += s.Iterations
	if s.Iterations < agg.minIter {
		agg.minIter = s.Iterations
	}
	if s.Iterations > agg.maxIter {
		agg.maxIter = s.Iterations
	}
	agg.wall += s.Wall
	agg.hist[bits.Len(uint(s.Iterations))]++
}

// RecordCacheHit counts one cross-section cache hit.
func (c *Collector) RecordCacheHit() {
	if c == nil {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	c.cacheHits++
}

// RecordCacheMiss counts one cross-section cache miss.
func (c *Collector) RecordCacheMiss() {
	if c == nil {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	c.cacheMisses++
}

// RecordCacheJoinAbort counts one cross-section cache join abort: a
// waiter that found an in-flight solve for its key but whose context
// expired before the owner finished. The waiter received nothing from
// the cache, so it is neither a hit nor a miss — conflating it with
// hits used to inflate the hit rate under deadline pressure and made
// the hit counter schedule-dependent.
func (c *Collector) RecordCacheJoinAbort() {
	if c == nil {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	c.cacheJoinAborts++
}

// RecordDegradation counts one graceful model downgrade (e.g. a
// numeric resistance falling back to the analytic model on deadline).
func (c *Collector) RecordDegradation(reason string) {
	if c == nil {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	c.degradations[reason]++
}

// Add increments the named monotonic counter by delta. Counters are
// the extension point for layers above the solvers — the serving
// subsystem counts requests per endpoint/status and response-cache
// hits/misses here — without obs needing to know their schema: any
// dotted name is a valid counter.
func (c *Collector) Add(name string, delta int64) {
	if c == nil {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	c.counters[name] += delta
}

// Observe records one duration sample into the named latency
// histogram (exponential microsecond buckets). Unlike counters,
// timing aggregates are wall-clock data: they appear in Snapshot
// summaries (for /metrics-style expositions) but never in Format,
// which stays byte-deterministic.
func (c *Collector) Observe(name string, d time.Duration) {
	if c == nil {
		return
	}
	if d < 0 {
		d = 0
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	agg := c.timings[name]
	if agg == nil {
		agg = &timingAgg{buckets: make(map[int]int64)}
		c.timings[name] = agg
	}
	agg.count++
	agg.total += d
	agg.buckets[bits.Len(uint(d.Microseconds()))]++
}

// Reset clears all aggregates.
func (c *Collector) Reset() {
	if c == nil {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	c.solvers = make(map[string]*solverAgg)
	c.cacheHits, c.cacheMisses, c.cacheJoinAborts = 0, 0, 0
	c.degradations = make(map[string]int)
	c.counters = make(map[string]int64)
	c.timings = make(map[string]*timingAgg)
}

// IterBucket is one iteration-histogram bucket: Count solves finished
// in [Lo, Hi] iterations.
type IterBucket struct {
	Lo, Hi, Count int
}

// SolverSummary aggregates all solves of one solver kind.
type SolverSummary struct {
	Solver          string
	Solves          int
	Converged       int
	TotalIterations int
	MinIterations   int
	MaxIterations   int
	Wall            time.Duration
	Histogram       []IterBucket
}

// DegradationCount is one downgrade reason with its occurrence count.
type DegradationCount struct {
	Reason string
	Count  int
}

// NamedCount is one named monotonic counter with its value.
type NamedCount struct {
	Name  string
	Value int64
}

// TimingBucket is one latency-histogram bucket: Count observations
// with durations in [Lo, Hi] microseconds.
type TimingBucket struct {
	LoMicros, HiMicros int64
	Count              int64
}

// TimingSummary aggregates all observations of one named duration.
type TimingSummary struct {
	Name    string
	Count   int64
	Total   time.Duration
	Buckets []TimingBucket
}

// Summary is a deterministic snapshot of a Collector: slices are
// sorted, and every field except the wall-clock timings is an
// order-insensitive aggregate of deterministic events.
type Summary struct {
	Solvers     []SolverSummary
	CacheHits   int64
	CacheMisses int64
	// CacheJoinAborts counts waiters that joined an in-flight solve but
	// ran out of context budget before the owner finished — neither
	// hits nor misses (see RecordCacheJoinAbort).
	CacheJoinAborts int64
	Degradations    []DegradationCount
	Counters        []NamedCount
	// Timings holds wall-clock latency histograms; they are exposed
	// for /metrics-style renderers and deliberately excluded from
	// Format.
	Timings []TimingSummary
}

// Snapshot returns the current aggregates as a Summary.
func (c *Collector) Snapshot() Summary {
	if c == nil {
		return Summary{}
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	s := Summary{CacheHits: c.cacheHits, CacheMisses: c.cacheMisses, CacheJoinAborts: c.cacheJoinAborts}
	names := make([]string, 0, len(c.solvers))
	for name := range c.solvers {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		agg := c.solvers[name]
		ss := SolverSummary{
			Solver:          name,
			Solves:          agg.solves,
			Converged:       agg.converged,
			TotalIterations: agg.totalIter,
			MinIterations:   agg.minIter,
			MaxIterations:   agg.maxIter,
			Wall:            agg.wall,
		}
		buckets := make([]int, 0, len(agg.hist))
		for b := range agg.hist {
			buckets = append(buckets, b)
		}
		sort.Ints(buckets)
		for _, b := range buckets {
			lo := 0
			if b > 0 {
				lo = 1 << (b - 1)
			}
			hi := 0
			if b > 0 {
				hi = 1<<b - 1
			}
			ss.Histogram = append(ss.Histogram, IterBucket{Lo: lo, Hi: hi, Count: agg.hist[b]})
		}
		s.Solvers = append(s.Solvers, ss)
	}
	reasons := make([]string, 0, len(c.degradations))
	for r := range c.degradations {
		reasons = append(reasons, r)
	}
	sort.Strings(reasons)
	for _, r := range reasons {
		s.Degradations = append(s.Degradations, DegradationCount{Reason: r, Count: c.degradations[r]})
	}
	counterNames := make([]string, 0, len(c.counters))
	for name := range c.counters {
		counterNames = append(counterNames, name)
	}
	sort.Strings(counterNames)
	for _, name := range counterNames {
		s.Counters = append(s.Counters, NamedCount{Name: name, Value: c.counters[name]})
	}
	timingNames := make([]string, 0, len(c.timings))
	for name := range c.timings {
		timingNames = append(timingNames, name)
	}
	sort.Strings(timingNames)
	for _, name := range timingNames {
		agg := c.timings[name]
		ts := TimingSummary{Name: name, Count: agg.count, Total: agg.total}
		buckets := make([]int, 0, len(agg.buckets))
		for b := range agg.buckets {
			buckets = append(buckets, b)
		}
		sort.Ints(buckets)
		for _, b := range buckets {
			lo, hi := int64(0), int64(0)
			if b > 0 {
				lo = 1 << (b - 1)
				hi = 1<<b - 1
			}
			ts.Buckets = append(ts.Buckets, TimingBucket{LoMicros: lo, HiMicros: hi, Count: agg.buckets[b]})
		}
		s.Timings = append(s.Timings, ts)
	}
	return s
}

// Counter returns the value of the named counter, or 0 when absent.
func (s Summary) Counter(name string) int64 {
	for _, c := range s.Counters {
		if c.Name == name {
			return c.Value
		}
	}
	return 0
}

// CacheLookups is the total number of cross-section cache lookups.
func (s Summary) CacheLookups() int64 { return s.CacheHits + s.CacheMisses }

// CacheHitRate is hits / lookups, or 0 when nothing was looked up.
func (s Summary) CacheHitRate() float64 {
	if n := s.CacheLookups(); n > 0 {
		return float64(s.CacheHits) / float64(n)
	}
	return 0
}

// TotalDegradations sums all downgrade counts.
func (s Summary) TotalDegradations() int {
	total := 0
	for _, d := range s.Degradations {
		total += d.Count
	}
	return total
}

// Format renders the summary as a small report. The rendering is
// byte-deterministic: it contains only counts and count-derived
// ratios, never wall-clock times (which are recorded in the Summary
// but vary run to run).
func (s Summary) Format() string {
	var b strings.Builder
	b.WriteString("solver telemetry\n")
	if len(s.Solvers) == 0 {
		b.WriteString("  solves: none\n")
	}
	for _, ss := range s.Solvers {
		fmt.Fprintf(&b, "  %s: %d solves (%d converged), iterations total %d, min %d, max %d\n",
			ss.Solver, ss.Solves, ss.Converged, ss.TotalIterations, ss.MinIterations, ss.MaxIterations)
		for _, h := range ss.Histogram {
			fmt.Fprintf(&b, "    iters %d..%d: %d\n", h.Lo, h.Hi, h.Count)
		}
	}
	if n := s.CacheLookups(); n > 0 {
		fmt.Fprintf(&b, "  cross-section cache: %d hits / %d misses (hit rate %.1f%%)\n",
			s.CacheHits, s.CacheMisses, s.CacheHitRate()*100)
	} else {
		b.WriteString("  cross-section cache: no lookups\n")
	}
	// Join aborts only occur under deadline pressure; printing the line
	// conditionally keeps abort-free summaries byte-identical to their
	// historical rendering.
	if s.CacheJoinAborts > 0 {
		fmt.Fprintf(&b, "  cross-section cache join aborts: %d\n", s.CacheJoinAborts)
	}
	if len(s.Degradations) == 0 {
		b.WriteString("  degradations: none\n")
	} else {
		fmt.Fprintf(&b, "  degradations: %d\n", s.TotalDegradations())
		for _, d := range s.Degradations {
			fmt.Fprintf(&b, "    %s: %d\n", d.Reason, d.Count)
		}
	}
	// Named counters are deterministic when the recorded events are;
	// they print only when present so solver-only summaries keep their
	// historical rendering. Timings are wall-clock data and never
	// print here.
	if len(s.Counters) > 0 {
		b.WriteString("  counters:\n")
		for _, c := range s.Counters {
			fmt.Fprintf(&b, "    %s: %d\n", c.Name, c.Value)
		}
	}
	return b.String()
}
