// Package obs is the stdlib-only telemetry layer. A Collector holds
// two aggregates: named monotonic counters (Add) and named
// power-of-two histograms of non-negative integers (Observe samples
// durations in microseconds). The iterative solvers (SOR in
// internal/linalg, CG and SOR in internal/field) report a SolveStats
// record per solve, kept as iteration histogram solver.<kind> plus
// counter solver.<kind>.converged; the cross-section solve cache counts
// CrossSectionHits, CrossSectionMisses and CrossSectionJoinAborts.
// Summary.Format renders them as the report cmd/oocbench prints under
// -stats; oocd renders its own collector as /metrics.
//
// Collectors travel through context.Context (WithCollector /
// FromContext); code that records without an installed collector
// falls back to the process-wide Default collector. All aggregates are
// integers combined with order-insensitive operations (sums, min,
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
	"cmp"
	"context"
	"fmt"
	"math/bits"
	"slices"
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
	// Converged reports whether the tolerance was met within the
	// iteration budget (false on ErrNoConvergence and on
	// cancellation/deadline aborts).
	Converged bool
}

// Counter names of the cross-section solve cache. A join abort is a
// waiter that found an in-flight solve for its key but whose context
// expired before the owner finished: it received nothing from the
// cache, so it is neither a hit nor a miss — conflating it with hits
// used to inflate the hit rate under deadline pressure and made the
// hit counter schedule-dependent.
const (
	CrossSectionHits       = "xsection.cache.hits"
	CrossSectionMisses     = "xsection.cache.misses"
	CrossSectionJoinAborts = "xsection.cache.join_aborts"
)

// Name prefixes that Format renders as sections of their own rather
// than under "counters:".
const (
	solverPrefix   = "solver."
	xsectionPrefix = "xsection."
)

// histAgg accumulates one named histogram. Bucket k holds samples in
// [2^(k-1), 2^k) — i.e. k = bits.Len64(v) — and bucket 0 holds zeros.
type histAgg struct {
	count, sum, min, max int64
	buckets              map[int]int64
}

// Collector aggregates telemetry events. The zero value is not
// usable; construct with NewCollector. All methods are safe for
// concurrent use and are no-ops on a nil receiver.
type Collector struct {
	mu       sync.Mutex
	counters map[string]int64
	hists    map[string]*histAgg
}

// NewCollector returns an empty collector.
func NewCollector() *Collector {
	return &Collector{
		counters: make(map[string]int64),
		hists:    make(map[string]*histAgg),
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

// observeLocked samples v into the named histogram. Callers hold c.mu.
func (c *Collector) observeLocked(name string, v int64) {
	h := c.hists[name]
	if h == nil {
		h = &histAgg{min: v, max: v, buckets: make(map[int]int64)}
		c.hists[name] = h
	}
	h.count++
	h.sum += v
	h.min = min(h.min, v)
	h.max = max(h.max, v)
	h.buckets[bits.Len64(uint64(v))]++
}

// RecordSolve aggregates one solve outcome: the iteration count joins
// histogram solver.<kind>, and a converged solve counts once in
// solver.<kind>.converged.
func (c *Collector) RecordSolve(s SolveStats) {
	if c == nil {
		return
	}
	name := solverPrefix + s.Solver
	c.mu.Lock()
	defer c.mu.Unlock()
	c.observeLocked(name, int64(s.Iterations))
	if s.Converged {
		c.counters[name+".converged"]++
	}
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

// Observe samples one duration, in whole microseconds (negative
// durations count as zero), into the named histogram. Durations are
// wall-clock data: they appear in Snapshot summaries (for
// /metrics-style expositions) but never in Format, which stays
// byte-deterministic.
func (c *Collector) Observe(name string, d time.Duration) {
	if c == nil {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	c.observeLocked(name, max(d.Microseconds(), 0))
}

// Reset clears all aggregates.
func (c *Collector) Reset() {
	if c == nil {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	c.counters = make(map[string]int64)
	c.hists = make(map[string]*histAgg)
}

// NamedCount is one named monotonic counter with its value.
type NamedCount struct {
	Name  string
	Value int64
}

// Bucket is one histogram bucket: Count samples in [Lo, Hi].
type Bucket struct {
	Lo, Hi, Count int64
}

// Histogram summarizes all samples of one named histogram; Buckets
// holds the non-empty buckets in ascending order.
type Histogram struct {
	Name                 string
	Count, Sum, Min, Max int64
	Buckets              []Bucket
}

// SolverSummary aggregates all solves of one solver kind.
type SolverSummary struct {
	Solver          string
	Solves          int
	Converged       int
	TotalIterations int
	MinIterations   int
	MaxIterations   int
	Histogram       []Bucket
}

// Summary is a snapshot of a Collector, each slice sorted by name.
// Counters are order-insensitive aggregates of the recorded events;
// the duration histograms are wall-clock data.
type Summary struct {
	Counters   []NamedCount
	Histograms []Histogram
}

// sortedKeys returns m's keys in ascending order.
func sortedKeys[K cmp.Ordered, V any](m map[K]V) []K {
	keys := make([]K, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	return keys
}

// Snapshot returns the current aggregates as a Summary.
func (c *Collector) Snapshot() Summary {
	if c == nil {
		return Summary{}
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	var s Summary
	for _, name := range sortedKeys(c.counters) {
		s.Counters = append(s.Counters, NamedCount{Name: name, Value: c.counters[name]})
	}
	for _, name := range sortedKeys(c.hists) {
		h := c.hists[name]
		hs := Histogram{Name: name, Count: h.count, Sum: h.sum, Min: h.min, Max: h.max}
		for _, k := range sortedKeys(h.buckets) {
			lo, hi := int64(0), int64(0)
			if k > 0 {
				lo, hi = 1<<(k-1), 1<<k-1
			}
			hs.Buckets = append(hs.Buckets, Bucket{Lo: lo, Hi: hi, Count: h.buckets[k]})
		}
		s.Histograms = append(s.Histograms, hs)
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

// Solvers reads the per-solver aggregates off the solver.<kind>
// histograms and convergence counters, sorted by solver name.
func (s Summary) Solvers() []SolverSummary {
	var out []SolverSummary
	for _, h := range s.Histograms {
		kind, ok := strings.CutPrefix(h.Name, solverPrefix)
		if !ok {
			continue
		}
		out = append(out, SolverSummary{
			Solver:          kind,
			Solves:          int(h.Count),
			Converged:       int(s.Counter(h.Name + ".converged")),
			TotalIterations: int(h.Sum),
			MinIterations:   int(h.Min),
			MaxIterations:   int(h.Max),
			Histogram:       h.Buckets,
		})
	}
	return out
}

// Format renders the summary as a small report. The rendering is
// byte-deterministic: it contains only counts and count-derived
// ratios, never the wall-clock duration histograms.
func (s Summary) Format() string {
	var b strings.Builder
	b.WriteString("solver telemetry\n")
	solvers := s.Solvers()
	if len(solvers) == 0 {
		b.WriteString("  solves: none\n")
	}
	for _, ss := range solvers {
		fmt.Fprintf(&b, "  %s: %d solves (%d converged), iterations total %d, min %d, max %d\n",
			ss.Solver, ss.Solves, ss.Converged, ss.TotalIterations, ss.MinIterations, ss.MaxIterations)
		for _, h := range ss.Histogram {
			fmt.Fprintf(&b, "    iters %d..%d: %d\n", h.Lo, h.Hi, h.Count)
		}
	}
	hits, misses := s.Counter(CrossSectionHits), s.Counter(CrossSectionMisses)
	if n := hits + misses; n > 0 {
		fmt.Fprintf(&b, "  cross-section cache: %d hits / %d misses (hit rate %.1f%%)\n",
			hits, misses, float64(hits)/float64(n)*100)
	} else {
		b.WriteString("  cross-section cache: no lookups\n")
	}
	// Join aborts only occur under deadline pressure; printing the line
	// conditionally keeps abort-free summaries byte-identical to their
	// historical rendering.
	if aborts := s.Counter(CrossSectionJoinAborts); aborts > 0 {
		fmt.Fprintf(&b, "  cross-section cache join aborts: %d\n", aborts)
	}
	// The remaining counters print only when present, so solver-only
	// summaries keep their historical rendering.
	header := false
	for _, c := range s.Counters {
		if strings.HasPrefix(c.Name, solverPrefix) || strings.HasPrefix(c.Name, xsectionPrefix) {
			continue
		}
		if !header {
			b.WriteString("  counters:\n")
			header = true
		}
		fmt.Fprintf(&b, "    %s: %d\n", c.Name, c.Value)
	}
	return b.String()
}
