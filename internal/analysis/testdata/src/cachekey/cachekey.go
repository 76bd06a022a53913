// Package cachekey exercises the cachekey analyzer: incomplete
// key-struct literals, key-bypassing parameters, and fill closures
// that capture state the key does not cover.
package cachekey

import (
	"context"
	"sync"
)

// solveKey memoizes normalized solves.
type solveKey struct {
	aspect float64
	n      int
	scheme uint8
}

// solveCache is the package-level memo map that marks solveKey as a
// cache-key type.
var solveCache = struct {
	sync.Mutex
	m map[solveKey]float64
}{m: make(map[solveKey]float64)}

// Lookup omits scheme from the key literal — flagged: a forced-scheme
// solve would alias the auto-scheme entry.
func Lookup(ctx context.Context, aspect float64, n int) (float64, bool) {
	key := solveKey{aspect: aspect, n: n}
	solveCache.Lock()
	defer solveCache.Unlock()
	v, ok := solveCache.m[key]
	return v, ok
}

// solve takes an input beside the key — flagged: scheme influences
// the result but is invisible to the cache.
func solve(ctx context.Context, key solveKey, scheme uint8) float64 {
	return key.aspect * float64(scheme)
}

// Full sets every field — clean.
func Full(ctx context.Context, aspect float64, n int, scheme uint8) float64 {
	key := solveKey{aspect: aspect, n: n, scheme: scheme}
	solveCache.Lock()
	defer solveCache.Unlock()
	v := key.aspect * float64(key.scheme)
	solveCache.m[key] = v
	return v
}

// respCache is a string-keyed singleflight cache.
type respCache struct {
	mu sync.Mutex
	m  map[string]string
}

// do returns the cached value for key, computing it via fill on a
// miss.
func (c *respCache) do(key string, fill func() string) string {
	c.mu.Lock()
	defer c.mu.Unlock()
	if v, ok := c.m[key]; ok {
		return v
	}
	if c.m == nil {
		c.m = make(map[string]string)
	}
	v := fill()
	c.m[key] = v
	return v
}

// Serve caches by spec but the fill also depends on mode — flagged:
// requests differing only in mode alias to whichever filled first.
func Serve(c *respCache, spec, mode string) string {
	key := "spec|" + spec
	return c.do(key, func() string {
		return render(spec, mode)
	})
}

// ServeKeyed folds every fill input into the key — clean.
func ServeKeyed(c *respCache, spec, mode string) string {
	key := "spec|" + spec + "|" + mode
	return c.do(key, func() string {
		return render(spec, mode)
	})
}

func render(spec, mode string) string {
	return mode + ":" + spec
}

// flightCache is a generic singleflight container whose map is keyed
// by its type parameter, like internal/flight's Cache.
type flightCache[K comparable, V any] struct {
	mu sync.Mutex
	m  map[K]V
}

// Do returns the cached value for key, computing it via fill on a
// miss.
func (c *flightCache[K, V]) Do(key K, fill func() V) V {
	c.mu.Lock()
	defer c.mu.Unlock()
	if v, ok := c.m[key]; ok {
		return v
	}
	if c.m == nil {
		c.m = make(map[K]V)
	}
	v := fill()
	c.m[key] = v
	return v
}

// gridKey memoizes grid solves; the package-level instance below
// marks it as a cache-key type through the generic's map.
type gridKey struct {
	aspect float64
	n      int
}

var grids = &flightCache[gridKey, float64]{}

// Grid omits n from the key literal — flagged: every resolution
// aliases to the first one solved.
func Grid(aspect float64, n int) float64 {
	return grids.Do(gridKey{aspect: aspect}, func() float64 {
		return aspect * float64(n)
	})
}

// ServeGeneric caches by spec on a string-keyed instance of the
// generic container, but the fill also depends on mode — flagged.
func ServeGeneric(c *flightCache[string, string], spec, mode string) string {
	return c.Do("spec|"+spec, func() string {
		return render(spec, mode)
	})
}

// ServeGenericKeyed folds every fill input into the key — clean.
func ServeGenericKeyed(c *flightCache[string, string], spec, mode string) string {
	return c.Do("spec|"+spec+"|"+mode, func() string {
		return render(spec, mode)
	})
}
