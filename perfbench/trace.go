package main

// The traced run. It repeats a workload's op sequence and, after each
// handler call, replays the op's work through the public entry points
// the handler uses, one span per call. The spans stay in memory, are
// reduced to the per-layer metrics, and are written to a file when the
// run ends. End-to-end figures never come from this run.

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"sync"
	"time"

	"ooc/internal/core"
	"ooc/internal/dyn"
	"ooc/internal/modelsel"
	"ooc/internal/optimize"
	"ooc/internal/render"
	"ooc/internal/sim"
	"ooc/internal/specio"
)

// span is one timed call. parent indexes the op's span list (-1 for
// a root); start and end are offsets from the tracer's epoch.
type span struct {
	name       string
	note       string
	parent     int
	start, end time.Duration
	// alloc is the bytes the call allocated; only an allocation pass
	// measures it.
	alloc uint64
}

func (s span) dur() time.Duration { return s.end - s.start }

// opTrace collects one op's spans and the counts its replay returned.
// A nil *opTrace records nothing, so untraced runs share the code.
type opTrace struct {
	id     int
	epoch  time.Time
	spans  []span
	counts replayCounts
	hit    bool // the handler answered from the response cache
	// ms, when set, makes every span also record the bytes allocated
	// during it. Reading the allocation counter stops the world, and it
	// counts every goroutine's allocations, so only a single-goroutine
	// pass over an idle server sets it.
	ms *runtime.MemStats
}

func (t *opTrace) begin(name string, parent int) int {
	if t == nil {
		return -1
	}
	s := span{name: name, parent: parent}
	if t.ms != nil {
		runtime.ReadMemStats(t.ms)
		s.alloc = t.ms.TotalAlloc
	}
	s.start = time.Since(t.epoch)
	t.spans = append(t.spans, s)
	return len(t.spans) - 1
}

func (t *opTrace) end(i int) {
	if t == nil {
		return
	}
	t.spans[i].end = time.Since(t.epoch)
	if t.ms != nil {
		runtime.ReadMemStats(t.ms)
		t.spans[i].alloc = t.ms.TotalAlloc - t.spans[i].alloc
	}
}

// replayCounts are the work counts a replay reads off the layers'
// results.
type replayCounts struct {
	iterations                  int // core: Design.Iterations
	steps, rejected, cflLimited int // dyn: DynamicReport step counters
	evaluations, full           int // optimize: Result.Evaluated, FullEvaluations
	jsonBytes                   int // render: size of the design document
	latency                     time.Duration
}

// tracer owns the spans of a traced run.
type tracer struct {
	epoch time.Time
	calib *modelsel.Table

	mu   sync.Mutex
	ops  []*opTrace
	errs []string
}

func newTracer(calib *modelsel.Table) *tracer {
	return &tracer{epoch: time.Now(), calib: calib}
}

func (tr *tracer) newOp(id int) *opTrace {
	if tr == nil {
		return nil
	}
	return &opTrace{id: id, epoch: tr.epoch}
}

// replay re-runs op o's work through the layers' entry points under
// one "replay" root span and files the op's trace. For a cache hit
// only the calls the handler makes before consulting the cache run.
func (tr *tracer) replay(o op, r result, t *opTrace) {
	t.counts.latency, t.hit = r.latency, r.hit
	if err := replayOp(context.Background(), tr.calib, o, r.hit, t); err != nil {
		tr.mu.Lock()
		tr.errs = append(tr.errs, fmt.Sprintf("replay %s: %v", describe(o), err))
		tr.mu.Unlock()
	}
	tr.mu.Lock()
	tr.ops = append(tr.ops, t)
	tr.mu.Unlock()
}

func replayOp(ctx context.Context, calib *modelsel.Table, o op, hit bool, t *opTrace) error {
	root := t.begin("replay", -1)
	defer t.end(root)
	call := func(name string, fn func() error) error {
		i := t.begin(name, root)
		err := fn()
		t.end(i)
		return err
	}
	raw, err := specBytes(o)
	if err != nil {
		return err
	}
	var spec core.Spec
	if err := call("specio.Parse", func() (err error) { spec, err = specio.Parse(raw); return err }); err != nil {
		return err
	}
	if o.kind == opSearch {
		opt := searchOptions()
		var res *optimize.Result
		if err := call("optimize.Search", func() (err error) { res, err = optimize.Search(ctx, spec, opt); return err }); err != nil {
			return err
		}
		t.counts.evaluations, t.counts.full = res.Evaluated, res.FullEvaluations
		return nil
	}
	if err := call("specio.Canonical", func() error { _, err := specio.Canonical(spec); return err }); err != nil {
		return err
	}
	opt := sim.DefaultOptions()
	if o.kind == opValidateBudget {
		var rung modelsel.Rung
		if err := call("modelsel.Select", func() (err error) { rung, err = calib.Select(spec.Name, errorBudget); return err }); err != nil {
			return err
		}
		rung.Apply(&opt)
		opt.ErrorBudget = errorBudget
	}
	if hit {
		return nil
	}
	var resolved *core.Resolved
	if err := call("core.Derive", func() (err error) { resolved, err = core.Derive(spec); return err }); err != nil {
		return err
	}
	if err := call("core.PlanFlows", func() error { _, err := core.PlanFlows(resolved); return err }); err != nil {
		return err
	}
	var d *core.Design
	if err := call("core.GenerateContext", func() (err error) { d, err = core.GenerateContext(ctx, spec); return err }); err != nil {
		return err
	}
	t.counts.iterations = d.Iterations
	switch o.kind {
	case opDesign:
		return call("render.JSON", func() error {
			raw, err := render.JSON(d)
			t.counts.jsonBytes = len(raw)
			return err
		})
	case opTransient:
		dopt, err := transientOptions()
		if err != nil {
			return err
		}
		opt.Dynamic = dopt
		return call("sim.ValidateDynamicContext", func() error {
			dr, err := sim.ValidateDynamicContext(ctx, d, opt)
			if err == nil {
				t.counts.steps, t.counts.rejected, t.counts.cflLimited = dr.Steps, dr.RejectedSteps, dr.CFLLimitedSteps
			}
			return err
		})
	default:
		i := t.begin("sim.ValidateContext", root)
		t.spans[i].note = opt.Model.String()
		_, err := sim.ValidateContext(ctx, d, opt)
		t.end(i)
		return err
	}
}

// specBytes extracts the specification document an op carries.
func specBytes(o op) ([]byte, error) {
	if o.kind != opSearch {
		return o.body, nil
	}
	var req struct {
		Spec json.RawMessage `json:"spec"`
	}
	if err := json.Unmarshal(o.body, &req); err != nil {
		return nil, fmt.Errorf("job request: %w", err)
	}
	return req.Spec, nil
}

// searchOptions mirrors what POST /v1/jobs builds for the search
// workload's body: successive halving, default axes and constraints,
// the exact model.
func searchOptions() optimize.Options {
	var opt optimize.Options
	opt.Strategy = optimize.StrategyHalving
	opt.Constraints = optimize.DefaultConstraints()
	opt.Sim = sim.DefaultOptions()
	return opt
}

// transientOptions mirrors what transientPath asks of
// /v1/validate?model=dynamic: a 1 s pulsatile run with the inlet dosed
// for the whole span and arrivals latched at 10 % of the dose.
func transientOptions() (sim.DynamicOptions, error) {
	o := sim.DefaultDynamicOptions()
	o.Duration = time.Second
	p, err := dyn.ParseProfile("pulse:0.5@500ms")
	if err != nil {
		return o, err
	}
	o.Profile = p
	o.Species = dyn.Species{
		Enabled:           true,
		DoseConcentration: 1,
		DoseDuration:      o.Duration.Seconds(),
		ArrivalThreshold:  0.1,
	}
	return o, nil
}

// selfTime is span i's duration minus the part of it that its
// children cover (overlapping children are counted once).
func selfTime(spans []span, i int) time.Duration {
	p := spans[i]
	var kids []span
	for _, s := range spans {
		if s.parent == i {
			kids = append(kids, span{start: max(s.start, p.start), end: min(s.end, p.end)})
		}
	}
	sort.Slice(kids, func(a, b int) bool { return kids[a].start < kids[b].start })
	covered := time.Duration(0)
	var cur span
	for k, s := range kids {
		switch {
		case s.end <= s.start:
			continue
		case k == 0 || s.start > cur.end:
			covered += cur.dur()
			cur = s
		case s.end > cur.end:
			cur.end = s.end
		}
	}
	covered += cur.dur()
	return p.dur() - covered
}

// total sums the durations of the op's spans with the given name.
func (t *opTrace) total(name string) (time.Duration, int) {
	var d time.Duration
	n := 0
	for _, s := range t.spans {
		if s.name == name {
			d += s.dur()
			n++
		}
	}
	return d, n
}

// handlerCalls are the replayed calls the handler itself makes; the
// rest of a handler span is the server's own work (admission, response
// cache, encoding, telemetry). core.Derive and core.PlanFlows are not
// among them: the handler reaches them inside core.GenerateContext.
var handlerCalls = []string{
	"specio.Parse", "specio.Canonical", "modelsel.Select", "core.GenerateContext",
	"sim.ValidateContext", "sim.ValidateDynamicContext", "render.JSON",
}

// serverSelf is the op's handler time minus the replay of the calls
// the handler makes.
func (t *opTrace) serverSelf() time.Duration {
	d, _ := t.total("handler")
	for _, name := range handlerCalls {
		c, _ := t.total(name)
		d -= c
	}
	return d
}

// realize is core.GenerateContext minus its derive and flow-plan
// stages: realization, meanders and offset correction.
func (t *opTrace) realize() time.Duration {
	g, _ := t.total("core.GenerateContext")
	d, _ := t.total("core.Derive")
	p, _ := t.total("core.PlanFlows")
	return g - d - p
}

// writeSpans writes every span as a tab-separated line: global span
// id, parent id (-1 for roots), op id, name, note, start and end in ns
// from the run's epoch.
func (tr *tracer) writeSpans(path string) error {
	var b bytes.Buffer
	b.WriteString("id\tparent\top\tname\tnote\tstart_ns\tend_ns\n")
	sort.Slice(tr.ops, func(a, b int) bool { return tr.ops[a].id < tr.ops[b].id })
	base := 0
	for _, t := range tr.ops {
		for i, s := range t.spans {
			parent := -1
			if s.parent >= 0 {
				parent = base + s.parent
			}
			fmt.Fprintf(&b, "%d\t%d\t%d\t%s\t%s\t%d\t%d\n", base+i, parent, t.id, s.name, s.note, s.start.Nanoseconds(), s.end.Nanoseconds())
		}
		base += len(t.spans)
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return fmt.Errorf("trace file: %w", err)
	}
	if err := os.WriteFile(path, b.Bytes(), 0o644); err != nil {
		return fmt.Errorf("trace file: %w", err)
	}
	return nil
}
