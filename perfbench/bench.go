package main

// One benchmark run: repeated set-ups, then a timed phase of slices,
// and on a traced run a second, traced phase.

import (
	"fmt"
	"runtime"
	"sort"
	"strings"
	"sync"
	"time"

	"ooc/internal/obs"
	"ooc/internal/server"
	"ooc/internal/sim"
)

// workload is one traffic mix.
type workload struct {
	name string
	// sliceOps is how many ops one timed slice sends: enough for about
	// half a second, so that the host's steal over the slice is
	// measurable in 10 ms ticks, and few enough that the slice's
	// replies, held until it has been checked, stay within ≈30 MB.
	sliceOps int
	// warmupOps is how many ops follow server construction in set-up.
	warmupOps int
	// warmup returns the set-up traffic; timed returns the timed op
	// source. Both are pure functions of the seed.
	warmup func(seed uint64, n int) []op
	timed  func(seed uint64) opSource
}

var workloads = []workload{
	{
		name: "serve_cold",
		// 256 warm-up ops fill the response cache, so the timed phase
		// evicts from its first op.
		sliceOps:  2500,
		warmupOps: 256,
		warmup: func(seed uint64, n int) []op {
			return coldOps(seed, streamWarmup).take(n)
		},
		timed: func(seed uint64) opSource { return coldOps(seed, streamTimed) },
	},
	{
		name: "serve_warm",
		// Replies are compared on arrival, not held, so a slice costs
		// no memory per op.
		sliceOps: 12000,
		warmup:   func(seed uint64, _ int) []op { return catalogue(seed) },
		timed: func(seed uint64) opSource {
			keys := catalogue(seed)
			z := newZipf(newRNG(seed, streamZipf), len(keys), zipfS)
			return func() op { return keys[z.next()] }
		},
	},
	{
		name:      "transient",
		sliceOps:  50,
		warmupOps: 16,
		warmup: func(seed uint64, n int) []op {
			return inOrder(seed, n, transientOp)
		},
		timed: func(seed uint64) opSource { return dealt(seed, streamTimed, transientOp) },
	},
	{
		name:      "search",
		sliceOps:  200,
		warmupOps: 16,
		warmup: func(seed uint64, n int) []op {
			return inOrder(seed, n, searchOp)
		},
		timed: func(seed uint64) opSource { return dealt(seed, streamTimed, searchOp) },
	},
}

func transientOp(spec []byte) op {
	return op{kind: opTransient, path: transientPath, body: spec, key: -1}
}

func searchOp(spec []byte) op {
	return op{kind: opSearch, path: jobsPath, body: jobBody(spec), key: -1}
}

// dealt is a timed op source with use cases dealt from shuffled decks.
func dealt(seed, stream uint64, mk func(spec []byte) op) opSource {
	g := newSpecGen(newRNG(seed, stream))
	return func() op { return mk(g.next()) }
}

// inOrder returns n warm-up ops whose use cases cycle in a fixed order:
// with ops this long, which client draws the last one sets the
// warm-up's length, and a fixed order keeps that the same for every
// seed.
func inOrder(seed uint64, n int, mk func(spec []byte) op) []op {
	g := newSpecGen(newRNG(seed, streamWarmup))
	ops := make([]op, n)
	for i := range ops {
		ops[i] = mk(g.spec(i % len(g.cases)))
	}
	return ops
}

func lookup(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// runConfig fixes everything about a run except the workload.
type runConfig struct {
	seed    uint64
	seconds float64
	// minOps is the least number of timed ops: a p99 needs 1 000.
	// maxOps, when positive, ends a phase early.
	minOps, maxOps int
	// setups is how many set-ups within stealLimit a run needs;
	// setup_s is their median.
	setups int
	// sliceOps and warmupOps, when positive, override the workload's.
	sliceOps, warmupOps int
	trace               bool
	// traceOut is the span file; empty selects
	// .bench_build/trace/<workload>-seed<n>.tsv.
	traceOut string
}

// metric is one named figure of the output.
type metric struct {
	name, unit string
	value      float64
}

// report is the outcome of one run.
type report struct {
	attempted, failed int
	timedOps          int
	failures          []string // the first few, for the log
	endToEnd, layers  []metric
	notes             []string // per-layer bases and the tracing overhead
}

func (rep *report) add(name, unit string, v float64) {
	rep.endToEnd = append(rep.endToEnd, metric{name: name, unit: unit, value: v})
}

// value returns the end-to-end metric called name, if reported.
func (rep *report) value(name string) (float64, bool) {
	for _, m := range rep.endToEnd {
		if m.name == name {
			return m.value, true
		}
	}
	return 0, false
}

// tally checks a batch of results against their ops, two goroutines
// wide, and counts them into the report.
func (rep *report) tally(ops []op, res []result) {
	errs := make([]error, len(ops))
	var wg sync.WaitGroup
	const workers = 2
	for g := 0; g < workers; g++ {
		wg.Add(1)
		go func(first int) {
			defer wg.Done()
			for i := first; i < len(ops); i += workers {
				errs[i] = check(ops[i], res[i])
			}
		}(g)
	}
	wg.Wait()
	rep.attempted += len(ops)
	for i, err := range errs {
		if err == nil {
			continue
		}
		rep.failed++
		if len(rep.failures) < 5 {
			rep.failures = append(rep.failures, fmt.Sprintf("%s: %v", describe(ops[i]), err))
		}
	}
}

// freshProcessState empties the process-wide caches, so every set-up
// starts from the same state, and collects the garbage of whatever ran
// before.
func freshProcessState() {
	sim.ResetCrossSectionCache()
	obs.Default().Reset()
	runtime.GC()
}

// setUp builds a server with production defaults (as oocd runs with no
// flags) and sends it the workload's warm-up traffic. It returns the
// server, the warm-up results and the set-up time: construction to the
// end of warm-up, input generation excluded.
func setUp(warm []op, cfg runConfig) (*server.Server, []result, time.Duration) {
	freshProcessState()
	start := time.Now()
	srv := server.New(server.Config{})
	c := &client{h: srv.Handler()}
	res, _ := c.runOps(warm, 0)
	return srv, res, time.Since(start)
}

// timedPhase sends the op source slice by slice. Checking and a forced
// GC happen between slices, off the clock. A slice during which the
// host stole more than stealLimit of the CPU is set aside and the time
// is made up with further slices; the phase ends once the clean slices
// cover --seconds (or the op cap) and the op floor, or at stealCap.
type timedPhase struct {
	slices     []slice
	wall       time.Duration // every slice
	clean      time.Duration // slices within stealLimit
	cleanOps   int
	alloc      uint64
	ops        int
	setAside   int
	stolenMost float64
}

// slice is one timed batch: its op count, wall time, latencies and the
// share of CPU time the host stole meanwhile.
type slice struct {
	ops   int
	wall  time.Duration
	lat   []time.Duration
	steal float64
}

func (ph *timedPhase) more(cfg runConfig) bool {
	if ph.wall.Seconds() >= stealCap*cfg.seconds && ph.ops >= cfg.minOps {
		return false
	}
	timeLeft := ph.clean.Seconds() < cfg.seconds && (cfg.maxOps == 0 || ph.cleanOps < cfg.maxOps)
	return timeLeft || ph.cleanOps < cfg.minOps
}

func (ph *timedPhase) run(c *client, src opSource, size int, cfg runConfig, rep *report) {
	var before, after runtime.MemStats
	for ph.more(cfg) {
		ops := src.take(size)
		runtime.ReadMemStats(&before)
		t0, ok0 := readTicks()
		res, wall := c.runOps(ops, ph.ops)
		t1, ok1 := readTicks()
		runtime.ReadMemStats(&after)
		sl := slice{ops: len(ops), wall: wall, lat: make([]time.Duration, len(res)), steal: stealShare(t0, t1, ok0 && ok1)}
		for i, r := range res {
			sl.lat[i] = r.latency
		}
		ph.slices = append(ph.slices, sl)
		ph.wall += wall
		ph.alloc += after.TotalAlloc - before.TotalAlloc
		ph.ops += len(ops)
		ph.stolenMost = max(ph.stolenMost, sl.steal)
		if sl.steal <= stealLimit {
			ph.clean += wall
			ph.cleanOps += len(ops)
		} else {
			ph.setAside++
		}
		rep.tally(ops, res)
		runtime.GC()
	}
}

// timed returns the slices the timings come from: the clean ones, or,
// when they hold fewer than minOps ops, the least-stolen slices that
// do.
func (ph *timedPhase) timed(minOps int) []slice {
	if ph.cleanOps >= minOps {
		var out []slice
		for _, sl := range ph.slices {
			if sl.steal <= stealLimit {
				out = append(out, sl)
			}
		}
		return out
	}
	byShare := append([]slice(nil), ph.slices...)
	sort.SliceStable(byShare, func(a, b int) bool { return byShare[a].steal < byShare[b].steal })
	n := 0
	for i, sl := range byShare {
		if n += sl.ops; n >= minOps {
			return byShare[:i+1]
		}
	}
	return byShare
}

// summarize adds the timed figures to the report. Throughput and p50
// are read off the slow end of the slices: the 10th percentile of the
// slices' throughputs and the 90th of their p50s. A shared host runs
// the same code up to a third faster in bursts its neighbours leave
// idle, and how many bursts a run catches varies; the contended floor
// between them recurs in every run. p99 pools the slices' ops, since a
// tail quantile needs all the samples it can get. A percentile without
// minBeyond samples beyond it is left out; the result line then
// refuses the run. Allocation counts every slice: it does not depend
// on the host.
func (ph *timedPhase) summarize(rep *report, minOps int) {
	slices := ph.timed(minOps)
	rates := make([]float64, 0, len(slices))
	p50s := make([]float64, 0, len(slices))
	var all []time.Duration
	for _, sl := range slices {
		rates = append(rates, float64(sl.ops)/sl.wall.Seconds())
		sort.Slice(sl.lat, func(a, b int) bool { return sl.lat[a] < sl.lat[b] })
		if v, ok := percentile(sl.lat, 0.50); ok {
			p50s = append(p50s, ms(v))
		}
		all = append(all, sl.lat...)
	}
	rep.timedOps = len(all)
	rep.add("ops_per_s", "1/s", quantile(rates, slowSlices))
	if len(p50s) > 0 {
		rep.add("p50_ms", "ms", quantile(p50s, 1-slowSlices))
	}
	sort.Slice(all, func(a, b int) bool { return all[a] < all[b] })
	if v, ok := percentile(all, 0.99); ok {
		rep.add("p99_ms", "ms", ms(v))
	}
	rep.add("alloc_kb_per_op", "KiB", float64(ph.alloc)/float64(ph.ops)/1024)
	rep.notes = append(rep.notes, fmt.Sprintf("timed: %d ops in %d slices over %.3f s; %d slices set aside for host steal over %.0f%% (most %.1f%%); timings from %d ops",
		ph.ops, len(ph.slices), ph.wall.Seconds(), ph.setAside, 100*stealLimit, 100*ph.stolenMost, len(all)))
}

// runWorkload performs one run of w.
func runWorkload(w workload, cfg runConfig) (*report, error) {
	rep := &report{}
	n := w.warmupOps
	if cfg.warmupOps > 0 {
		n = cfg.warmupOps
	}
	size := w.sliceOps
	if cfg.sliceOps > 0 {
		size = cfg.sliceOps
	}
	warm := w.warmup(cfg.seed, n)

	// Set-up repeats until cfg.setups of them ran without host steal
	// over stealLimit, or stealCap times that many ran; setup_s is the
	// median of the clean ones, or else of the least-stolen.
	var setups []sample
	clean := 0
	var srv *server.Server
	c := &client{}
	for clean < cfg.setups && float64(len(setups)) < stealCap*float64(cfg.setups) {
		var res []result
		t0, ok0 := readTicks()
		var d time.Duration
		srv, res, d = setUp(warm, cfg)
		t1, ok1 := readTicks()
		st := sample{value: d.Seconds(), steal: stealShare(t0, t1, ok0 && ok1)}
		if st.steal <= stealLimit {
			clean++
		}
		setups = append(setups, st)
		rep.tally(warm, res)
		c.h, c.expect = srv.Handler(), expectations(w, res)
	}
	runtime.GC()

	var ph timedPhase
	ph.run(c, w.timed(cfg.seed), size, cfg, rep)
	ph.summarize(rep, cfg.minOps)
	timedP50, _ := rep.value("p50_ms")

	// Live heap: drop the client's own per-op data, collect, and read
	// what the still-reachable server retains.
	rep.notes = append(rep.notes, fmt.Sprintf("setup_s: median of the %d least-stolen of %d set-ups", cfg.setups, len(setups)))
	ph.slices, c = nil, nil
	runtime.GC()
	var mem runtime.MemStats
	runtime.ReadMemStats(&mem)
	runtime.KeepAlive(srv)
	rep.add("live_heap_mb", "MB", float64(mem.HeapAlloc)/1e6)
	rep.add("setup_s", "s", median(leastStolen(setups, cfg.setups)))

	if !cfg.trace {
		return rep, nil
	}
	return rep, traceRun(w, cfg, rep, warm, size, timedP50)
}

// expectations returns, for serve_warm, the checked fill bodies its
// timed replies must repeat; nil for the other workloads.
func expectations(w workload, fill []result) [][]byte {
	if w.name != "serve_warm" {
		return nil
	}
	out := make([][]byte, len(fill))
	for i, r := range fill {
		out[i] = r.body
	}
	return out
}

// joinNotes renders the report's notes for the log.
func joinNotes(rep *report) string { return strings.Join(rep.notes, "\n") }
