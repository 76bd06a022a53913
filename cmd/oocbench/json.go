package main

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"strings"
	"time"

	"ooc/internal/eval"
	"ooc/internal/obs"
	"ooc/internal/sim"
	"ooc/internal/usecases"
)

// This file implements oocbench's machine-readable mode (-json) and
// the benchmark-regression gate built on top of it (-diff). A -json
// run evaluates the use-case grid only (no Fig. 4 prose, no series)
// and emits a benchDoc; a -diff run additionally loads a committed
// baseline document, compares the fresh run against it, and exits
// nonzero on regression. scripts/benchdiff.sh and the CI bench job
// are thin wrappers over -diff with the committed BENCH_5.json.

// benchSchema versions the document layout; bump on breaking changes
// so a stale baseline fails loudly instead of comparing garbage.
const benchSchema = "oocbench/v1"

// benchDoc is the machine-readable result of one grid evaluation.
type benchDoc struct {
	Schema      string       `json:"schema"`
	Grid        string       `json:"grid"`
	Model       string       `json:"model"`
	Workers     int          `json:"workers"`
	Instances   int          `json:"instances"`
	Failures    int          `json:"failures"`
	WallSeconds float64      `json:"wall_seconds"`
	Rows        []benchRow   `json:"rows"`
	Solvers     []benchSolve `json:"solvers,omitempty"`
	CacheHits   int64        `json:"cache_hits"`
	CacheMisses int64        `json:"cache_misses"`
}

// benchRow is one Table I row; deviation cells are percentages, like
// the human-readable table prints.
type benchRow struct {
	UseCase    string  `json:"use_case"`
	Modules    int     `json:"modules"`
	Instances  int     `json:"instances"`
	Failures   int     `json:"failures"`
	PerfAvgPct float64 `json:"perf_avg_pct"`
	PerfMaxPct float64 `json:"perf_max_pct"`
	FlowAvgPct float64 `json:"flow_avg_pct"`
	FlowMaxPct float64 `json:"flow_max_pct"`
}

// benchSolve aggregates one iterative solver's work over the run.
type benchSolve struct {
	Solver          string `json:"solver"`
	Solves          int    `json:"solves"`
	Converged       int    `json:"converged"`
	TotalIterations int    `json:"total_iterations"`
}

// runJSON evaluates the grid under a fresh collector and either emits
// the document (-json) or diffs it against a baseline (-diff).
func runJSON(ctx context.Context, cfg config, opt sim.Options, out, errOut io.Writer) error {
	col := obs.NewCollector()
	ctx = obs.WithCollector(ctx, col)
	// Cold cache: the hit/miss and iteration counts must describe this
	// run alone, or the baseline comparison depends on process history.
	sim.ResetCrossSectionCache()

	sweep := usecases.ExtendedSweep()
	gridName := "extended"
	if cfg.paperGrid {
		sweep = usecases.PaperSweep()
		gridName = "paper"
	}
	cases := usecases.All()
	instances := usecases.Instances(cases, sweep)

	start := time.Now()
	reps, _ := eval.Grid(ctx, instances, cfg.workers, opt)
	wall := time.Since(start)
	if err := ctx.Err(); err != nil {
		done := 0
		for _, r := range reps {
			if r != nil {
				done++
			}
		}
		return fmt.Errorf("aborted after %d of %d instances; no benchmark document emitted: %w",
			done, len(instances), err)
	}

	doc := benchDoc{
		Schema:      benchSchema,
		Grid:        gridName,
		Model:       opt.Model.String(),
		Workers:     cfg.workers,
		Instances:   len(instances),
		WallSeconds: wall.Seconds(),
	}
	for _, row := range eval.Table(cases, instances, reps).Rows {
		doc.Failures += row.Failures
		doc.Rows = append(doc.Rows, benchRow{
			UseCase:    row.Chip,
			Modules:    row.Modules,
			Instances:  row.Instances,
			Failures:   row.Failures,
			PerfAvgPct: row.PerfAvg,
			PerfMaxPct: row.PerfMax,
			FlowAvgPct: row.FlowAvg,
			FlowMaxPct: row.FlowMax,
		})
	}
	s := col.Snapshot()
	doc.CacheHits, doc.CacheMisses = s.Counter(obs.CrossSectionHits), s.Counter(obs.CrossSectionMisses)
	for _, sv := range s.Solvers() {
		doc.Solvers = append(doc.Solvers, benchSolve{
			Solver:          sv.Solver,
			Solves:          sv.Solves,
			Converged:       sv.Converged,
			TotalIterations: sv.TotalIterations,
		})
	}

	if cfg.diffPath != "" {
		// Like run(): render into builders and flush each with a single
		// checked write, so no Fprint error is silently dropped.
		var body, warn strings.Builder
		diffErr := diffAgainst(cfg, doc, &body, &warn)
		if _, err := io.WriteString(out, body.String()); err != nil {
			return fmt.Errorf("writing diff report: %w", err)
		}
		if warn.Len() > 0 {
			if _, err := io.WriteString(errOut, warn.String()); err != nil {
				return fmt.Errorf("writing diff warnings: %w", err)
			}
		}
		return diffErr
	}
	raw, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		return fmt.Errorf("encoding benchmark document: %w", err)
	}
	raw = append(raw, '\n')
	if _, err := out.Write(raw); err != nil {
		return fmt.Errorf("writing benchmark document: %w", err)
	}
	return nil
}

// diffAgainst compares the fresh document against the baseline at
// cfg.diffPath. Deviation cells gate hard (they are bit-deterministic
// for a fixed model and grid, so the tolerance only absorbs
// cross-platform floating-point variation); wall clock and iteration
// counts gate on ratio bands. Every violation is reported before the
// nonzero exit.
func diffAgainst(cfg config, fresh benchDoc, out, errOut *strings.Builder) error {
	raw, err := os.ReadFile(cfg.diffPath)
	if err != nil {
		return fmt.Errorf("reading baseline: %w", err)
	}
	var base benchDoc
	if err := json.Unmarshal(raw, &base); err != nil {
		return fmt.Errorf("parsing baseline %s: %w", cfg.diffPath, err)
	}
	if base.Schema != benchSchema {
		return fmt.Errorf("baseline %s has schema %q, this binary speaks %q — regenerate it with -json",
			cfg.diffPath, base.Schema, benchSchema)
	}
	if base.Grid != fresh.Grid || base.Model != fresh.Model {
		return fmt.Errorf("baseline is grid=%s model=%s but this run is grid=%s model=%s — not comparable",
			base.Grid, base.Model, fresh.Grid, fresh.Model)
	}

	var regressions int
	fail := func(format string, args ...any) {
		regressions++
		fmt.Fprintf(errOut, "benchdiff: regression: "+format+"\n", args...)
	}

	if fresh.Failures > base.Failures {
		fail("instance failures rose from %d to %d", base.Failures, fresh.Failures)
	}
	baseRows := make(map[string]benchRow, len(base.Rows))
	for _, r := range base.Rows {
		baseRows[r.UseCase] = r
	}
	for _, r := range fresh.Rows {
		b, ok := baseRows[r.UseCase]
		if !ok {
			fmt.Fprintf(errOut, "benchdiff: note: use case %q absent from baseline, skipping\n", r.UseCase)
			continue
		}
		for _, cell := range []struct {
			name        string
			fresh, base float64
		}{
			{"perf avg", r.PerfAvgPct, b.PerfAvgPct},
			{"perf max", r.PerfMaxPct, b.PerfMaxPct},
			{"flow avg", r.FlowAvgPct, b.FlowAvgPct},
			{"flow max", r.FlowMaxPct, b.FlowMaxPct},
		} {
			if d := cell.fresh - cell.base; d > cfg.diffAccTol || -d > cfg.diffAccTol {
				fail("%s %s drifted %.4f → %.4f pct (tolerance %.4f)",
					r.UseCase, cell.name, cell.base, cell.fresh, cfg.diffAccTol)
			}
		}
	}

	if base.WallSeconds > 0 && fresh.WallSeconds > cfg.diffWallTol*base.WallSeconds {
		fail("wall clock %.2fs exceeds %.1f× baseline %.2fs",
			fresh.WallSeconds, cfg.diffWallTol, base.WallSeconds)
	}
	baseSolvers := make(map[string]benchSolve, len(base.Solvers))
	for _, sv := range base.Solvers {
		baseSolvers[sv.Solver] = sv
	}
	for _, sv := range fresh.Solvers {
		b, ok := baseSolvers[sv.Solver]
		if !ok || b.TotalIterations == 0 {
			fmt.Fprintf(errOut, "benchdiff: note: solver %q has no baseline iterations, skipping\n", sv.Solver)
			continue
		}
		if float64(sv.TotalIterations) > cfg.diffIterTol*float64(b.TotalIterations) {
			fail("solver %s iterations %d exceed %.2f× baseline %d",
				sv.Solver, sv.TotalIterations, cfg.diffIterTol, b.TotalIterations)
		}
	}

	if regressions > 0 {
		return fmt.Errorf("%d benchmark regression(s) vs %s", regressions, cfg.diffPath)
	}
	fmt.Fprintf(out, "benchdiff: OK vs %s (%d instances, wall %.2fs vs baseline %.2fs)\n",
		cfg.diffPath, fresh.Instances, fresh.WallSeconds, base.WallSeconds)
	return nil
}
