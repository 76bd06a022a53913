package main

// Per-layer metrics of the traced run.

import (
	"context"
	"fmt"
	"runtime"
	"sort"
	"strings"

	"ooc/internal/modelsel"
	"ooc/internal/obs"
)

// allocOps is how many ops the allocation pass replays; traceOps caps
// the traced phase, whose spans stay in memory until the run ends.
const (
	allocOps = 64
	traceOps = 20000
)

// layerMetric is one per-layer figure with the base it was computed
// from; n == 0 means the layer did no such work on this workload.
type layerMetric struct {
	name, unit string
	value      float64
	base       string
	n          int
}

// acc sums durations or counts over n occurrences.
type acc struct {
	sum float64
	n   int
}

func (a *acc) add(v float64) { a.sum += v; a.n++ }

func (a acc) mean() float64 {
	if a.n == 0 {
		return 0
	}
	return a.sum / float64(a.n)
}

// ratio is num/den, or 0 when den is 0.
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// counterDelta is after−before for one named counter.
func counterDelta(before, after obs.Summary, name string) int64 {
	return after.Counter(name) - before.Counter(name)
}

// prefixDelta sums after−before over the counters whose name has the
// given prefix and suffix.
func prefixDelta(before, after obs.Summary, prefix, suffix string) int64 {
	var n int64
	for _, c := range after.Counters {
		if strings.HasPrefix(c.Name, prefix) && strings.HasSuffix(c.Name, suffix) {
			n += c.Value - before.Counter(c.Name)
		}
	}
	return n
}

// layerMetrics reduces the traced ops, the allocation pass and the
// collector's counters to the per-layer metrics, in a fixed order. A
// span's time is its self time; the replayed calls do not nest today,
// so for them that is their duration.
func layerMetrics(traced, allocPass []*opTrace, before, after obs.Summary) []layerMetric {
	spans := map[string]*acc{}
	get := func(key string) *acc {
		if spans[key] == nil {
			spans[key] = &acc{}
		}
		return spans[key]
	}
	var serverSelf, realize, iterations, jsonKB, wait, evaluations acc
	var steps, rejected, cfl, full float64
	for _, t := range traced {
		for i, s := range t.spans {
			key := s.name
			if s.note != "" {
				key += "/" + s.note
			}
			get(key).add(us(selfTime(t.spans, i)))
		}
		serverSelf.add(us(t.serverSelf()))
		if _, n := t.total("core.GenerateContext"); n > 0 {
			realize.add(us(t.realize()))
			iterations.add(float64(t.counts.iterations))
		}
		if _, n := t.total("render.JSON"); n > 0 {
			jsonKB.add(float64(t.counts.jsonBytes) / 1024)
		}
		if d, n := t.total("optimize.Search"); n > 0 {
			wait.add(ms(t.counts.latency - d))
			evaluations.add(float64(t.counts.evaluations))
			full += float64(t.counts.full)
		}
		steps += float64(t.counts.steps)
		rejected += float64(t.counts.rejected)
		cfl += float64(t.counts.cflLimited)
	}

	var specioAlloc, coreAlloc, simAlloc acc
	var dynAlloc, dynSteps float64
	for _, t := range allocPass {
		var parse float64
		for _, s := range t.spans {
			kb := float64(s.alloc) / 1024
			switch s.name {
			case "specio.Parse", "specio.Canonical":
				parse += kb
			case "core.GenerateContext":
				coreAlloc.add(kb)
			case "sim.ValidateContext":
				simAlloc.add(kb)
			case "sim.ValidateDynamicContext":
				dynAlloc += kb
			}
		}
		specioAlloc.add(parse)
		dynSteps += float64(t.counts.steps)
	}

	hits := counterDelta(before, after, "server.cache.hits")
	misses := counterDelta(before, after, "server.cache.misses")
	shed := prefixDelta(before, after, "requests.", ".429")
	requests := prefixDelta(before, after, "requests.", "")
	approx := counterDelta(before, after, "modelsel.selected.approx")
	selected := prefixDelta(before, after, "modelsel.selected.", "")
	dynRun := get("sim.ValidateDynamicContext")

	meanOf := func(name, unit, key string) layerMetric {
		a := get(key)
		return layerMetric{name: name, unit: unit, value: a.mean(), n: a.n, base: fmt.Sprintf("mean of %d calls", a.n)}
	}
	meanAcc := func(name, unit string, a acc, what string) layerMetric {
		return layerMetric{name: name, unit: unit, value: a.mean(), n: a.n, base: fmt.Sprintf("mean of %d %s", a.n, what)}
	}
	frac := func(name string, num, den float64, what string) layerMetric {
		return layerMetric{name: name, unit: "ratio", value: ratio(num, den), n: int(den), base: fmt.Sprintf("%.0f / %.0f %s", num, den, what)}
	}
	msOf := func(m layerMetric) layerMetric { m.value /= 1000; m.unit = "ms"; return m }

	return []layerMetric{
		meanAcc("server.self_us", "us", serverSelf, "ops"),
		frac("server.hit_ratio", float64(hits), float64(hits+misses), "response-cache lookups"),
		{name: "server.shed_ops", unit: "count", value: float64(shed), n: int(requests), base: fmt.Sprintf("429s of %d requests", requests)},
		meanOf("specio.parse_us", "us", "specio.Parse"),
		meanOf("specio.canonical_us", "us", "specio.Canonical"),
		meanAcc("specio.alloc_kb", "KiB", specioAlloc, "ops (allocation pass)"),
		meanOf("render.json_us", "us", "render.JSON"),
		meanAcc("render.json_kb", "KiB", jsonKB, "documents"),
		meanOf("modelsel.select_us", "us", "modelsel.Select"),
		frac("modelsel.approx_ratio", float64(approx), float64(selected), "budgeted requests resolved to approx"),
		meanOf("core.derive_us", "us", "core.Derive"),
		meanOf("core.plan_us", "us", "core.PlanFlows"),
		meanAcc("core.realize_us", "us", realize, "generations"),
		meanAcc("core.iterations", "count", iterations, "generations"),
		meanAcc("core.alloc_kb", "KiB", coreAlloc, "generations (allocation pass)"),
		meanOf("sim.validate_exact_us", "us", "sim.ValidateContext/exact"),
		meanOf("sim.validate_approx_us", "us", "sim.ValidateContext/approx"),
		meanAcc("sim.alloc_kb", "KiB", simAlloc, "validations (allocation pass)"),
		msOf(meanOf("dyn.run_ms", "us", "sim.ValidateDynamicContext")),
		{name: "dyn.steps", unit: "count", value: ratio(steps, float64(dynRun.n)), n: dynRun.n, base: fmt.Sprintf("%.0f accepted steps / %d runs", steps, dynRun.n)},
		{name: "dyn.us_per_step", unit: "us", value: ratio(dynRun.sum, steps), n: int(steps), base: fmt.Sprintf("%.0f µs / %.0f steps", dynRun.sum, steps)},
		frac("dyn.rejected_ratio", rejected, steps+rejected, "attempted steps rejected"),
		frac("dyn.cfl_ratio", cfl, steps, "accepted steps CFL-limited"),
		{name: "dyn.alloc_kb_per_step", unit: "KiB", value: ratio(dynAlloc, dynSteps), n: int(dynSteps), base: fmt.Sprintf("%.0f KiB / %.0f steps (allocation pass)", dynAlloc, dynSteps)},
		msOf(meanOf("optimize.search_ms", "us", "optimize.Search")),
		meanAcc("optimize.evaluations", "count", evaluations, "searches"),
		frac("optimize.full_ratio", full, evaluations.sum, "evaluations at full fidelity"),
		meanAcc("jobs.wait_ms", "ms", wait, "jobs (latency − optimize.Search)"),
	}
}

// traceRun is the traced pass of a --trace 1 run: a fresh set-up,
// the same timed op sequence with every op replayed through the
// layers, then a single-goroutine allocation pass over the first ops.
func traceRun(w workload, cfg runConfig, rep *report, warm []op, slice int, timedP50 float64) error {
	calib, err := modelsel.Default()
	if err != nil {
		return fmt.Errorf("calibration table: %w", err)
	}
	srv, res, _ := setUp(warm, cfg)
	rep.tally(warm, res)
	runtime.GC()

	tr := newTracer(calib)
	before := srv.Collector().Snapshot()
	var ph timedPhase
	capped := cfg
	capped.maxOps = traceOps
	c := &client{h: srv.Handler(), tr: tr, expect: expectations(w, res)}
	ph.run(c, w.timed(cfg.seed), slice, capped, rep)
	after := srv.Collector().Snapshot()
	rep.failed += len(tr.errs)
	for _, e := range tr.errs {
		if len(rep.failures) < 5 {
			rep.failures = append(rep.failures, e)
		}
	}

	sort.Slice(tr.ops, func(a, b int) bool { return tr.ops[a].id < tr.ops[b].id })
	first := w.timed(cfg.seed).take(min(allocOps, len(tr.ops)))
	pass := make([]*opTrace, len(first))
	var mem runtime.MemStats
	for i, o := range first {
		pass[i] = &opTrace{id: i, epoch: tr.epoch, ms: &mem}
		if err := replayOp(context.Background(), calib, o, tr.ops[i].hit, pass[i]); err != nil {
			return fmt.Errorf("allocation pass: %s: %w", describe(o), err)
		}
	}

	for _, m := range layerMetrics(tr.ops, pass, before, after) {
		rep.layers = append(rep.layers, metric{name: m.name, unit: m.unit, value: m.value})
		shown := fmt.Sprintf("%.4f", m.value)
		if m.n == 0 {
			shown = "n/a"
		}
		rep.notes = append(rep.notes, fmt.Sprintf("layer %-24s %12s %-5s  (%s)", m.name, shown, m.unit, m.base))
	}
	var traced report
	ph.summarize(&traced, cfg.minOps)
	tracedP50, _ := traced.value("p50_ms")
	rep.notes = append(rep.notes, fmt.Sprintf("tracing overhead: traced p50 %.4f ms vs timed p50 %.4f ms (%+.1f%%)",
		tracedP50, timedP50, 100*(tracedP50/timedP50-1)))

	path := cfg.traceOut
	if path == "" {
		path = fmt.Sprintf(".bench_build/trace/%s-seed%d.tsv", w.name, cfg.seed)
	}
	if err := tr.writeSpans(path); err != nil {
		return err
	}
	rep.notes = append(rep.notes, fmt.Sprintf("spans: %s (%d ops)", path, len(tr.ops)))
	runtime.KeepAlive(srv)
	return nil
}
