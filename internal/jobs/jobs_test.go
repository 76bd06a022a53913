package jobs

import (
	"context"
	"errors"
	"fmt"
	"testing"
	"time"

	"ooc/internal/core"
	"ooc/internal/fluid"
	"ooc/internal/obs"
	"ooc/internal/optimize"
	"ooc/internal/physio"
	"ooc/internal/units"
)

func testSpec() core.Spec {
	return core.Spec{
		Name:         "jobs_test",
		Reference:    physio.StandardMale(),
		OrganismMass: units.Kilograms(1e-6),
		Modules: []core.ModuleSpec{
			{Organ: physio.Lung, Kind: core.Layered},
			{Organ: physio.Liver, Kind: core.Layered},
		},
		Fluid:       fluid.MediumLowViscosity,
		ShearStress: units.PascalsShear(1.5),
	}
}

// blockingSearch returns a search stub that signals it started, then
// blocks until cancelled, returning a partial result.
func blockingSearch(started chan<- string) func(context.Context, core.Spec, optimize.Options) (*optimize.Result, error) {
	return func(ctx context.Context, spec core.Spec, opt optimize.Options) (*optimize.Result, error) {
		if opt.Progress != nil {
			opt.Progress(optimize.Progress{Evaluated: 1, Total: 20})
		}
		select {
		case started <- spec.Name:
		default:
		}
		<-ctx.Done()
		return &optimize.Result{Evaluated: 1}, fmt.Errorf("aborted: %w", ctx.Err())
	}
}

func waitState(t *testing.T, m *Manager, id string, want State) Status {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		st, err := m.Get(id)
		if err != nil {
			t.Fatal(err)
		}
		if st.State == want {
			return st
		}
		if st.State.Terminal() {
			t.Fatalf("job %s reached %s (error %q), want %s", id, st.State, st.Error, want)
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("job %s never reached %s", id, want)
	return Status{}
}

// TestJobEndToEnd: a real (small) halving search runs to success with
// observable progress and a feasible, deterministic best.
func TestJobEndToEnd(t *testing.T) {
	m := NewManager(Config{Collector: obs.NewCollector()})
	st, err := m.Submit(Request{Spec: testSpec(), Options: optimize.Options{
		Objective:   optimize.MinimizeArea,
		Constraints: optimize.DefaultConstraints(),
		Strategy:    optimize.StrategyHalving,
	}})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	final, err := m.Wait(ctx, st.ID)
	if err != nil {
		t.Fatal(err)
	}
	if final.State != StateSucceeded {
		t.Fatalf("state %s, error %q", final.State, final.Error)
	}
	if final.Best == nil || final.Evaluated == 0 || final.Feasible == 0 {
		t.Fatalf("succeeded without results: %+v", final)
	}
	if final.FullEvaluations >= final.Evaluated {
		t.Fatalf("halving job: full evaluations %d not below total %d",
			final.FullEvaluations, final.Evaluated)
	}
	if len(final.Rungs) < 2 || len(final.Candidates) != final.Evaluated {
		t.Fatalf("terminal log inconsistent: %d rungs, %d candidates, %d evaluated",
			len(final.Rungs), len(final.Candidates), final.Evaluated)
	}
	if final.BestSpec.Geometry.ChannelHeight <= 0 {
		t.Fatal("succeeded job must carry the winning spec")
	}
}

// TestCancelBeforeStart: a queued job cancelled before a run slot
// frees is finalized as canceled without ever running.
func TestCancelBeforeStart(t *testing.T) {
	started := make(chan string, 1)
	m := NewManager(Config{MaxRunning: 1, QueueDepth: 2, Collector: obs.NewCollector(), Search: blockingSearch(started)})

	first, err := m.Submit(Request{Spec: testSpec()})
	if err != nil {
		t.Fatal(err)
	}
	<-started
	queued, err := m.Submit(Request{Spec: testSpec()})
	if err != nil {
		t.Fatal(err)
	}
	if queued.State != StatePending {
		t.Fatalf("second job state %s, want pending", queued.State)
	}
	st, err := m.Cancel(queued.ID)
	if err != nil {
		t.Fatal(err)
	}
	if st.State != StateCanceled {
		t.Fatalf("cancelled pending job state %s", st.State)
	}
	if st.Evaluated != 0 || len(st.Candidates) != 0 {
		t.Fatalf("never-started job has progress: %+v", st)
	}
	// The running job is unaffected and still cancellable.
	if _, err := m.Cancel(first.ID); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if _, err := m.Wait(ctx, first.ID); err != nil {
		t.Fatal(err)
	}
}

// TestCancelMidRunReturnsPartialBest: cancelling a running halving
// job lands a terminal status with partial results in well under a
// second — the cooperative-cancellation budget of the acceptance
// criteria.
func TestCancelMidRunReturnsPartialBest(t *testing.T) {
	m := NewManager(Config{Collector: obs.NewCollector()})
	// A real search sized so the run takes long enough to catch
	// mid-flight: 64 × 64 axes, the candidate cap, at exact fidelity.
	axis := func(lo, hi float64, unit func(float64) units.Length) []units.Length {
		out := make([]units.Length, 64)
		for i := range out {
			out[i] = unit(lo + (hi-lo)*float64(i)/float64(len(out)-1))
		}
		return out
	}
	st, err := m.Submit(Request{Spec: testSpec(), Options: optimize.Options{
		Objective:      optimize.MinimizeArea,
		Constraints:    optimize.DefaultConstraints(),
		Strategy:       optimize.StrategyHalving,
		ChannelHeights: axis(100, 200, units.Micrometres),
		MinGaps:        axis(2, 4, units.Millimetres),
	}})
	if err != nil {
		t.Fatal(err)
	}
	// Wait for some progress, then cancel and time the unwind.
	deadline := time.Now().Add(10 * time.Second)
	for {
		got, err := m.Get(st.ID)
		if err != nil {
			t.Fatal(err)
		}
		if got.Evaluated >= 2 {
			break
		}
		if got.State.Terminal() {
			t.Fatalf("job finished before it could be cancelled: %+v", got)
		}
		if time.Now().After(deadline) {
			t.Fatal("no progress within 10s")
		}
		time.Sleep(time.Millisecond)
	}
	t0 := time.Now()
	if _, err := m.Cancel(st.ID); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	final, err := m.Wait(ctx, st.ID)
	if err != nil {
		t.Fatal(err)
	}
	if elapsed := time.Since(t0); elapsed > time.Second {
		t.Fatalf("cancel took %v, want < 1s", elapsed)
	}
	if final.State != StateCanceled {
		t.Fatalf("state %s, want canceled", final.State)
	}
	if final.Evaluated == 0 || len(final.Candidates) == 0 {
		t.Fatal("cancelled job must keep its partial candidate log")
	}
}

// TestPollAfterCompletion: a finished job stays pollable and its
// snapshots are stable.
func TestPollAfterCompletion(t *testing.T) {
	m := NewManager(Config{Collector: obs.NewCollector()})
	st, err := m.Submit(Request{Spec: testSpec(), Options: optimize.Options{
		Objective:   optimize.MinimizeArea,
		Constraints: optimize.DefaultConstraints(),
	}})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	first, err := m.Wait(ctx, st.ID)
	if err != nil {
		t.Fatal(err)
	}
	second, err := m.Get(st.ID)
	if err != nil {
		t.Fatal(err)
	}
	if first.State != StateSucceeded || second.State != StateSucceeded {
		t.Fatalf("states %s / %s", first.State, second.State)
	}
	if len(first.Candidates) != len(second.Candidates) || first.Evaluated != second.Evaluated {
		t.Fatal("post-completion polls disagree")
	}
}

// TestQueueOverflowBusy: submissions beyond slots+queue fail fast
// with ErrBusy and are counted.
func TestQueueOverflowBusy(t *testing.T) {
	started := make(chan string, 1)
	col := obs.NewCollector()
	m := NewManager(Config{MaxRunning: 1, QueueDepth: 1, Collector: col, Search: blockingSearch(started)})
	a, err := m.Submit(Request{Spec: testSpec()})
	if err != nil {
		t.Fatal(err)
	}
	<-started
	if _, err := m.Submit(Request{Spec: testSpec()}); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Submit(Request{Spec: testSpec()}); !errors.Is(err, ErrBusy) {
		t.Fatalf("overflow submit: want ErrBusy, got %v", err)
	}
	if got := col.Snapshot().Counter("jobs.rejected"); got != 1 {
		t.Fatalf("jobs.rejected = %d, want 1", got)
	}
	if running, queued := m.Gauges(); running != 1 || queued != 1 {
		t.Fatalf("gauges running=%d queued=%d, want 1/1", running, queued)
	}
	m.Shutdown()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if _, err := m.Wait(ctx, a.ID); err != nil {
		t.Fatal(err)
	}
}

// TestShutdownCancelsRunningAndPending: drain integration — Shutdown
// cancels the running job and the queue, everything stays pollable,
// and new submissions are refused.
func TestShutdownCancelsRunningAndPending(t *testing.T) {
	started := make(chan string, 1)
	m := NewManager(Config{MaxRunning: 1, QueueDepth: 4, Collector: obs.NewCollector(), Search: blockingSearch(started)})
	running, err := m.Submit(Request{Spec: testSpec()})
	if err != nil {
		t.Fatal(err)
	}
	<-started
	pending, err := m.Submit(Request{Spec: testSpec()})
	if err != nil {
		t.Fatal(err)
	}
	m.Shutdown()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := m.Drain(ctx); err != nil {
		t.Fatal(err)
	}
	for _, id := range []string{running.ID, pending.ID} {
		st, err := m.Get(id)
		if err != nil {
			t.Fatal(err)
		}
		if st.State != StateCanceled {
			t.Fatalf("job %s state %s after shutdown", id, st.State)
		}
	}
	if _, err := m.Submit(Request{Spec: testSpec()}); !errors.Is(err, ErrShutdown) {
		t.Fatalf("post-shutdown submit: want ErrShutdown, got %v", err)
	}
	// The cancelled running job kept its partial progress.
	st, err := m.Get(running.ID)
	if err != nil {
		t.Fatal(err)
	}
	if st.Evaluated == 0 {
		t.Fatal("cancelled running job lost its progress")
	}
}

// TestQueuePromotion: when the running job finishes, the oldest
// pending job is promoted into the freed slot.
func TestQueuePromotion(t *testing.T) {
	started := make(chan string, 2)
	m := NewManager(Config{MaxRunning: 1, QueueDepth: 4, Collector: obs.NewCollector(), Search: blockingSearch(started)})
	a, err := m.Submit(Request{Spec: testSpec()})
	if err != nil {
		t.Fatal(err)
	}
	<-started
	b, err := m.Submit(Request{Spec: testSpec()})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.Cancel(a.ID); err != nil {
		t.Fatal(err)
	}
	waitState(t, m, b.ID, StateRunning)
	if _, err := m.Cancel(b.ID); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if _, err := m.Wait(ctx, b.ID); err != nil {
		t.Fatal(err)
	}
}

// TestHistoryEviction: terminal jobs beyond the History bound are
// evicted oldest-first; running jobs never are.
func TestHistoryEviction(t *testing.T) {
	m := NewManager(Config{History: 2, Collector: obs.NewCollector(),
		Search: func(ctx context.Context, spec core.Spec, opt optimize.Options) (*optimize.Result, error) {
			return &optimize.Result{Evaluated: 1}, nil
		}})
	var ids []string
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	for i := 0; i < 4; i++ {
		st, err := m.Submit(Request{Spec: testSpec()})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := m.Wait(ctx, st.ID); err != nil {
			t.Fatal(err)
		}
		ids = append(ids, st.ID)
	}
	if _, err := m.Get(ids[0]); !errors.Is(err, ErrNotFound) {
		t.Fatalf("oldest job should be evicted, got %v", err)
	}
	if _, err := m.Get(ids[3]); err != nil {
		t.Fatalf("newest job evicted: %v", err)
	}
	if got := len(m.List()); got != 2 {
		t.Fatalf("List() has %d jobs, want 2", got)
	}
}

// TestUnknownJob: Get/Cancel on unknown ids answer ErrNotFound.
func TestUnknownJob(t *testing.T) {
	m := NewManager(Config{Collector: obs.NewCollector()})
	if _, err := m.Get("job-999999"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("want ErrNotFound, got %v", err)
	}
	if _, err := m.Cancel("job-999999"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("want ErrNotFound, got %v", err)
	}
}
