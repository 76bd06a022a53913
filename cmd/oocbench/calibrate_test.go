package main

import (
	"bytes"
	"context"
	"fmt"
	"strings"
	"testing"

	"ooc/internal/modelsel"
)

// TestCalibrateDeterministicAcrossWorkers: the calibration document is
// byte-identical for serial and parallel sweeps — the artifact in git
// must not depend on who generated it or on how many cores they had.
func TestCalibrateDeterministicAcrossWorkers(t *testing.T) {
	if testing.Short() {
		t.Skip("full 5-rung paper-grid sweep")
	}
	ctx := context.Background()
	render := func(workers int) string {
		var out, errOut bytes.Buffer
		err := runCalibrate(ctx, config{calibrate: true, workers: workers}, &out, &errOut)
		if err != nil {
			t.Fatalf("workers=%d: %v (stderr: %s)", workers, err, errOut.String())
		}
		return out.String()
	}
	serial := render(1)
	parallel := render(8)
	if serial != parallel {
		t.Fatalf("calibration document differs between -workers 1 and -workers 8")
	}
	if _, err := modelsel.Parse([]byte(serial)); err != nil {
		t.Fatalf("generated document fails validation: %v", err)
	}
}

// TestCalibrateDiffSelfAndDrift: -calibrate -diff passes against the
// committed artifact (the CI gate must be green on a clean tree) and
// fails with a drift report against a tampered baseline.
func TestCalibrateDiffSelfAndDrift(t *testing.T) {
	if testing.Short() {
		t.Skip("full 5-rung paper-grid sweep")
	}
	ctx := context.Background()
	committed := "../../internal/modelsel/CALIB.json"
	var out, errOut bytes.Buffer
	err := runCalibrate(ctx, config{calibrate: true, diffPath: committed, calibTol: 1e-6}, &out, &errOut)
	if err != nil {
		t.Fatalf("diff vs committed artifact: %v\nstderr: %s", err, errOut.String())
	}
	if !strings.Contains(out.String(), "calibdiff: OK") {
		t.Fatalf("diff success not reported: %s", out.String())
	}

	// Tamper with one bound well past the tolerance: the diff must
	// fail, report the drifted cell, and name the baseline path in the
	// regeneration hint.
	base, err := modelsel.ParseFile(committed)
	if err != nil {
		t.Fatal(err)
	}
	doc := base.Doc()
	fresh := doc
	fresh.Rungs = append([]modelsel.RungDoc(nil), doc.Rungs...)
	fresh.Rungs[0].Global.Flow += 1
	out.Reset()
	errOut.Reset()
	err = calibDiff(config{diffPath: committed, calibTol: 1e-6}, fresh, &out, &errOut)
	if err == nil {
		t.Fatal("tampered bounds passed the diff")
	}
	if !strings.Contains(errOut.String(), "calibdiff: drift") {
		t.Fatalf("drift not reported to stderr: %s", errOut.String())
	}
	if !strings.Contains(err.Error(), committed) {
		t.Fatalf("regeneration hint does not name the baseline path: %v", err)
	}
}

// TestBudgetFlagSelection: -budget picks a rung from the embedded
// table, threads the budget into the options, and loses to an explicit
// -model.
func TestBudgetFlagSelection(t *testing.T) {
	opt, sel, err := config{budget: 0.01}.simOptions()
	if err != nil {
		t.Fatal(err)
	}
	if sel == nil {
		t.Fatal("budget set but no rung selected")
	}
	if opt.Model != sel.Model {
		t.Fatalf("options model %v does not match selected rung %s", opt.Model, sel.Name)
	}
	if fmt.Sprintf("%g", opt.ErrorBudget) != "0.01" {
		t.Fatalf("ErrorBudget %g not threaded into options", opt.ErrorBudget)
	}

	// Explicit -model wins: no selection, no budget in the options.
	opt, sel, err = config{budget: 0.01, model: "numeric"}.simOptions()
	if err != nil {
		t.Fatal(err)
	}
	if sel != nil {
		t.Fatalf("explicit -model still selected rung %s", sel.Name)
	}
	if opt.ErrorBudget != 0 {
		t.Fatalf("explicit -model run still carries ErrorBudget %g", opt.ErrorBudget)
	}

	// An unmeetable budget surfaces the tightest achievable rung.
	_, _, err = config{budget: 1e-9}.simOptions()
	if err == nil || !strings.Contains(err.Error(), "tightest") {
		t.Fatalf("unmeetable budget error does not name the tightest rung: %v", err)
	}
}
