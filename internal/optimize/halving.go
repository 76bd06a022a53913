package optimize

// Successive halving: the adaptive alternative to the exhaustive
// grid. Every candidate is evaluated at a cheap fidelity rung first —
// the designer's own approximate resistance model — and only the top
// fraction survives to the full-fidelity rung, so the search reaches
// the grid's best feasible design with a fraction of the full-cost
// evaluations. Rung evaluation fans out over internal/parallel with
// index-ordered collection, so the result is identical for any worker
// count.

import (
	"context"
	"fmt"
	"math"
	"sort"
	"sync"

	"ooc/internal/core"
	"ooc/internal/obs"
	"ooc/internal/parallel"
	"ooc/internal/sim"
	"ooc/internal/units"
)

// halvingRung is one fidelity level of the halving ladder.
type halvingRung struct {
	// model names the fidelity for telemetry and RungStats.
	model string
	sim   sim.Options
}

// halvingLadder builds the fidelity ladder that ends at the requested
// full-fidelity configuration. The cheap rung re-uses the design
// pipeline's own approximation, which costs microseconds per
// candidate.
func halvingLadder(final sim.Options) []halvingRung {
	if final.Model == sim.ModelApprox {
		// The approximate model is already the cheapest fidelity;
		// there is no cheaper rung to pre-screen with.
		return []halvingRung{{model: "approx", sim: final}}
	}
	cheap := final
	cheap.Model = sim.ModelApprox
	return []halvingRung{
		{model: "approx", sim: cheap},
		{model: "exact", sim: final},
	}
}

// halvingPlan returns the planned rung populations: sizes[0] = n and
// each following rung keeps ceil(size/eta) of the one before.
func halvingPlan(n, rungs, eta int) []int {
	sizes := make([]int, rungs)
	for i := range sizes {
		sizes[i] = n
		n = (n + eta - 1) / eta
		if n < 1 {
			n = 1
		}
	}
	return sizes
}

// searchHalving runs successive halving over the candidate axes.
// Candidates are indexed in height-major order (the grid strategy's
// order); every rung evaluates its survivors through the shared
// worker pool and collects results in candidate-index order, so the
// outcome — including the candidate log and the winner — is
// independent of Options.Workers.
func searchHalving(ctx context.Context, spec core.Spec, opt Options, heights, gaps []units.Length) (*Result, error) {
	eta := opt.HalvingEta
	if eta == 0 {
		eta = 2
	}
	if eta < 2 {
		return nil, fmt.Errorf("optimize: halving eta %d is invalid (the rung population must shrink; want >= 2)", eta)
	}

	type point struct{ h, g units.Length }
	points := make([]point, 0, len(heights)*len(gaps))
	for _, h := range heights {
		for _, g := range gaps {
			points = append(points, point{h, g})
		}
	}
	ladder := halvingLadder(opt.Sim)
	plan := halvingPlan(len(points), len(ladder), eta)
	total := 0
	for _, n := range plan {
		total += n
	}

	res := &Result{}
	col := obs.FromContext(ctx)
	// mu guards the advisory progress state shared by rung workers;
	// everything that lands in res is recomputed deterministically
	// from index-ordered rung results after each fan-out.
	var mu sync.Mutex
	progressed := 0

	// A survivor carries the design it generated at rung 0 into every
	// later rung, which only re-validates it.
	type survivor struct {
		idx int
		d   *core.Design
	}
	survivors := make([]survivor, len(points))
	for i := range survivors {
		survivors[i].idx = i
	}

	for ri, rg := range ladder {
		isFinal := ri == len(ladder)-1
		type outcome struct {
			ok   bool
			cand Candidate
			spec core.Spec
			d    *core.Design
			rep  *sim.Report
		}
		var rungBest *Candidate
		outs, mapErr := parallel.MapContext(ctx, len(survivors), opt.Workers, func(i int) (outcome, error) {
			sv := survivors[i]
			p := points[sv.idx]
			cand, s, d, rep, err := evaluate(ctx, spec, opt, p.h, p.g, ri, rg.sim, sv.d)
			if err != nil {
				return outcome{}, err
			}
			mu.Lock()
			progressed++
			if cand.Feasible && (rungBest == nil || cand.Score < rungBest.Score) {
				rungBest = copyCandidate(cand)
			}
			if opt.Progress != nil {
				opt.Progress(Progress{
					Evaluated: progressed, Total: total, Rung: ri,
					Completed: copyCandidate(cand), Best: cloneCandidate(rungBest),
				})
			}
			mu.Unlock()
			return outcome{ok: true, cand: cand, spec: s, d: d, rep: rep}, nil
		})

		completed := 0
		for _, o := range outs {
			if o.ok {
				res.Candidates = append(res.Candidates, o.cand)
				completed++
			}
		}
		res.Evaluated += completed
		if isFinal {
			res.FullEvaluations += completed
		}
		col.Add(fmt.Sprintf("optimize.halving.rung%d.evaluated", ri), int64(completed))
		if mapErr != nil {
			// evaluate only errors when ctx was cut, so any joined
			// error means the rung was aborted; partial rung results
			// are already logged.
			res.Rungs = append(res.Rungs, RungStats{Rung: ri, Model: rg.model, Evaluated: completed})
			return res, fmt.Errorf("optimize: search aborted after %d of %d candidates: %w",
				res.Evaluated, total, mapErr)
		}

		if isFinal {
			bestScore := math.Inf(1)
			for _, o := range outs {
				if !o.ok || !o.cand.Feasible {
					continue
				}
				res.Feasible++
				if o.cand.Score < bestScore {
					bestScore = o.cand.Score
					res.Best, res.BestReport, res.BestSpec = o.d, o.rep, o.spec
					res.BestCandidate = copyCandidate(o.cand)
				}
			}
			res.Rungs = append(res.Rungs, RungStats{Rung: ri, Model: rg.model, Evaluated: completed, Kept: completed})
			break
		}

		// Rank this rung's candidates: rung-feasible first, then by
		// score, ties broken by candidate index — a deterministic
		// total order. Candidates that failed to generate (NaN score)
		// are dropped outright.
		type ranked struct {
			survivor
			cand Candidate
		}
		var viable []ranked
		for i, o := range outs {
			if o.ok && !math.IsNaN(o.cand.Score) {
				viable = append(viable, ranked{survivor: survivor{idx: survivors[i].idx, d: o.d}, cand: o.cand})
			}
		}
		sort.SliceStable(viable, func(a, b int) bool {
			ca, cb := viable[a], viable[b]
			if ca.cand.Feasible != cb.cand.Feasible {
				return ca.cand.Feasible
			}
			if ca.cand.Score < cb.cand.Score {
				return true
			}
			if cb.cand.Score < ca.cand.Score {
				return false
			}
			return ca.idx < cb.idx
		})
		keep := (len(survivors) + eta - 1) / eta
		if keep > len(viable) {
			keep = len(viable)
		}
		res.Rungs = append(res.Rungs, RungStats{Rung: ri, Model: rg.model, Evaluated: completed, Kept: keep})
		col.Add(fmt.Sprintf("optimize.halving.rung%d.kept", ri), int64(keep))
		if keep == 0 {
			// Every candidate failed to generate at the cheap rung;
			// there is nothing to promote.
			return res, ErrInfeasible
		}
		next := make([]survivor, keep)
		for i := range next {
			next[i] = viable[i].survivor
		}
		sort.Slice(next, func(a, b int) bool { return next[a].idx < next[b].idx })
		survivors = next
	}

	if res.Best == nil {
		return res, ErrInfeasible
	}
	return res, nil
}
