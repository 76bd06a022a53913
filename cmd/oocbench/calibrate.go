package main

// This file implements oocbench's calibration mode (-calibrate): the
// offline generator for internal/modelsel's CALIB.json. It sweeps the
// paper grid once per fidelity-ladder rung plus once at the reference
// rung (numeric@128), bounds every rung's deviation drift against the
// reference per use case, and emits the versioned calibration
// document. With -diff it instead compares the fresh document against
// a committed baseline and exits nonzero on drift —
// scripts/calibdiff.sh and the CI calibration job are thin wrappers,
// exactly like benchdiff.sh over -json -diff.
//
// The document is deterministic: every bound derives from the
// bit-deterministic grid evaluation (eval.Grid), no wall-clock or
// worker-count dependent field is emitted, so two runs on the same
// platform are byte-identical and the -calib-tol band only absorbs
// cross-platform floating-point variation.

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"strings"

	"ooc/internal/eval"
	"ooc/internal/modelsel"
	"ooc/internal/sim"
	"ooc/internal/usecases"
)

// runCalibrate generates the calibration document and either writes it
// (-calibrate) or diffs it against a committed baseline (-calibrate
// -diff path).
func runCalibrate(ctx context.Context, cfg config, out, errOut io.Writer) error {
	doc, err := calibrationDoc(ctx, cfg.workers)
	if err != nil {
		return err
	}
	raw, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		return fmt.Errorf("encoding calibration document: %w", err)
	}
	raw = append(raw, '\n')
	// The generator and the loader must agree before the artifact ships:
	// a document the selector would reject at boot is a generator bug.
	if _, err := modelsel.Parse(raw); err != nil {
		return fmt.Errorf("generated calibration document fails its own validation: %w", err)
	}
	if cfg.diffPath != "" {
		return calibDiff(cfg, doc, out, errOut)
	}
	if _, err := out.Write(raw); err != nil {
		return fmt.Errorf("writing calibration document: %w", err)
	}
	return nil
}

// calibrationDoc sweeps the paper grid across the ladder and the
// reference rung and assembles the bounds document. The numeric
// reference solves with the backend its resolution picks.
func calibrationDoc(ctx context.Context, workers int) (modelsel.Doc, error) {
	cases := usecases.All()
	instances := usecases.Instances(cases, usecases.PaperSweep())
	ref := modelsel.Reference()

	refReps, err := calibrationGrid(ctx, instances, workers, ref)
	if err != nil {
		return modelsel.Doc{}, err
	}

	doc := modelsel.Doc{Schema: modelsel.Schema, Grid: "paper", Reference: ref.Name}
	for rank, spec := range modelsel.Ladder() {
		reps, err := calibrationGrid(ctx, instances, workers, spec)
		if err != nil {
			return modelsel.Doc{}, err
		}
		rd := modelsel.RungDoc{
			Name:     spec.Name,
			Model:    spec.Model.String(),
			CostRank: rank + 1,
		}
		for _, uc := range cases {
			b := boundOver(instances, reps, refReps, uc.Name)
			rd.UseCases = append(rd.UseCases, modelsel.UseCaseBounds{UseCase: uc.Name, Bounds: b})
			rd.Global.Flow = math.Max(rd.Global.Flow, b.Flow)
			rd.Global.Perf = math.Max(rd.Global.Perf, b.Perf)
		}
		doc.Rungs = append(doc.Rungs, rd)
	}
	return doc, nil
}

// calibrationGrid evaluates the whole sweep at one rung. Calibration
// tolerates no failure, an expired deadline included: a bound over a
// partial grid would understate the worst case.
func calibrationGrid(ctx context.Context, instances []usecases.Instance, workers int, spec modelsel.RungSpec) ([]*sim.Report, error) {
	opt := sim.DefaultOptions()
	spec.Apply(&opt)
	reps, err := eval.Grid(ctx, instances, workers, opt)
	if err != nil {
		return nil, fmt.Errorf("calibrating %s: %w", spec.Name, err)
	}
	for i, r := range reps {
		if r == nil {
			return nil, fmt.Errorf("calibrating %s: instance %s produced no report", spec.Name, instances[i].Label())
		}
	}
	return reps, nil
}

// boundOver computes the worst |MaxDev(rung) − MaxDev(reference)| per
// metric across the instances of one use case ("" spans them all).
func boundOver(instances []usecases.Instance, reps, refReps []*sim.Report, useCase string) modelsel.Bounds {
	var b modelsel.Bounds
	for i, in := range instances {
		if useCase != "" && in.UseCase != useCase {
			continue
		}
		b.Flow = math.Max(b.Flow, math.Abs(reps[i].MaxFlowDeviation-refReps[i].MaxFlowDeviation))
		b.Perf = math.Max(b.Perf, math.Abs(reps[i].MaxPerfDeviation-refReps[i].MaxPerfDeviation))
	}
	return b
}

// calibDiff compares a fresh calibration document against the
// committed baseline at cfg.diffPath. Rung identity (model, cost
// rank) and document provenance (grid, reference) gate exactly;
// bounds gate within -calib-tol, which only absorbs cross-platform
// floating point — the underlying numbers are bit-deterministic on
// one platform. Every drift is reported before
// the nonzero exit, with the regeneration command naming the actual
// baseline path.
func calibDiff(cfg config, fresh modelsel.Doc, out, errOut io.Writer) error {
	baseTable, err := modelsel.ParseFile(cfg.diffPath)
	if err != nil {
		return err
	}
	base := baseTable.Doc()
	if base.Grid != fresh.Grid || base.Reference != fresh.Reference {
		return fmt.Errorf("baseline %s is grid=%s reference=%s but this run is grid=%s reference=%s — not comparable",
			cfg.diffPath, base.Grid, base.Reference, fresh.Grid, fresh.Reference)
	}

	// Drift lines render into a builder and flush with one checked
	// write, the same discipline as the benchmark report path.
	var warn strings.Builder
	var drifts int
	fail := func(format string, args ...any) {
		drifts++
		fmt.Fprintf(&warn, "calibdiff: drift: "+format+"\n", args...)
	}
	checkBounds := func(rung, scope string, b, f modelsel.Bounds) {
		for _, cell := range []struct {
			metric      string
			base, fresh float64
		}{
			{"flow", b.Flow, f.Flow},
			{"perf", b.Perf, f.Perf},
		} {
			if d := cell.fresh - cell.base; d > cfg.calibTol || -d > cfg.calibTol {
				fail("rung %s %s %s bound drifted %.8g -> %.8g (tolerance %g)",
					rung, scope, cell.metric, cell.base, cell.fresh, cfg.calibTol)
			}
		}
	}

	baseRungs := make(map[string]modelsel.RungDoc, len(base.Rungs))
	for _, r := range base.Rungs {
		baseRungs[r.Name] = r
	}
	matched := make(map[string]bool, len(fresh.Rungs))
	for _, fr := range fresh.Rungs {
		br, ok := baseRungs[fr.Name]
		if !ok {
			fail("rung %q absent from baseline", fr.Name)
			continue
		}
		matched[fr.Name] = true
		if br.Model != fr.Model || br.CostRank != fr.CostRank {
			fail("rung %q identity changed: %s rank %d -> %s rank %d",
				fr.Name, br.Model, br.CostRank, fr.Model, fr.CostRank)
		}
		checkBounds(fr.Name, "global", br.Global, fr.Global)
		baseUC := make(map[string]modelsel.Bounds, len(br.UseCases))
		for _, uc := range br.UseCases {
			baseUC[uc.UseCase] = uc.Bounds
		}
		ucMatched := make(map[string]bool, len(fr.UseCases))
		for _, uc := range fr.UseCases {
			bb, ok := baseUC[uc.UseCase]
			if !ok {
				fail("rung %q use case %q absent from baseline", fr.Name, uc.UseCase)
				continue
			}
			ucMatched[uc.UseCase] = true
			checkBounds(fr.Name, uc.UseCase, bb, uc.Bounds)
		}
		for _, uc := range br.UseCases {
			if !ucMatched[uc.UseCase] {
				fail("rung %q use case %q present only in baseline", fr.Name, uc.UseCase)
			}
		}
	}
	for _, br := range base.Rungs {
		if !matched[br.Name] {
			fail("rung %q present only in baseline", br.Name)
		}
	}

	if drifts > 0 {
		if _, err := io.WriteString(errOut, warn.String()); err != nil {
			return fmt.Errorf("writing drift report: %w", err)
		}
		return fmt.Errorf("%d calibration drift(s) vs %s — regenerate deliberately with: go run ./cmd/oocbench -calibrate > %s",
			drifts, cfg.diffPath, cfg.diffPath)
	}
	if _, err := fmt.Fprintf(out, "calibdiff: OK vs %s (%d rungs, reference %s)\n",
		cfg.diffPath, len(fresh.Rungs), fresh.Reference); err != nil {
		return fmt.Errorf("writing diff result: %w", err)
	}
	return nil
}
