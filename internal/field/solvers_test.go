package field

import (
	"context"
	"math"
	"testing"

	"ooc/internal/obs"
)

// TestSORSchemeAgreesWithCG: the masked SOR oracle solves the system
// SolveContext hands to CG, so the fields they produce must agree —
// module flows are the physically meaningful output, and pressure is
// only defined up to a constant, so the comparison is on flows.
func TestSORSchemeAgreesWithCG(t *testing.T) {
	d := fig4Design(t)
	cg, err := Solve(d, Options{CellSize: 150e-6, Tol: 1e-9})
	if err != nil {
		t.Fatal(err)
	}
	sor, err := solve(context.Background(), d, Options{CellSize: 150e-6, Tol: 1e-9}, solveMaskedSOR)
	if err != nil {
		t.Fatalf("SOR backend failed on the Fig. 4 design: %v", err)
	}
	cgFlows := cg.ModuleFlows(d)
	sorFlows := sor.ModuleFlows(d)
	for i := range cgFlows {
		rel := math.Abs(sorFlows[i]-cgFlows[i]) / math.Abs(cgFlows[i])
		if rel > 1e-3 {
			t.Errorf("module %d flow: sor %g vs cg %g (rel %g)", i, sorFlows[i], cgFlows[i], rel)
		}
	}
}

// TestSORSchemeRecordsStats: the SOR oracle must report itself under
// solver name "sor" so telemetry distinguishes the backends.
func TestSORSchemeRecordsStats(t *testing.T) {
	d := fig4Design(t)
	c := obs.NewCollector()
	ctx := obs.WithCollector(context.Background(), c)
	if _, err := solve(ctx, d, Options{CellSize: 150e-6, Tol: 1e-9}, solveMaskedSOR); err != nil {
		t.Fatal(err)
	}
	if s := c.Snapshot().Solvers(); len(s) != 1 || s[0].Solver != "sor" || s[0].Converged != 1 {
		t.Fatalf("want one converged sor solve, got %+v", s)
	}
}

// TestSORSchemeBitDeterministic: the masked SOR backend must produce
// identical bits for every worker count, like every other parallel
// kernel in the repo.
func TestSORSchemeBitDeterministic(t *testing.T) {
	d := fig4Design(t)
	solve := func(workers int) *Field {
		f, err := solve(context.Background(), d, Options{CellSize: 150e-6, Tol: 1e-9, Workers: workers}, solveMaskedSOR)
		if err != nil {
			t.Fatal(err)
		}
		return f
	}
	ref := solve(1)
	for _, workers := range []int{2, 7} {
		got := solve(workers)
		if got.Iterations != ref.Iterations {
			t.Fatalf("workers=%d: %d sweeps vs serial %d", workers, got.Iterations, ref.Iterations)
		}
		for k := range ref.P {
			//ooclint:ignore floatcmp bit-identity across worker counts is the property under test
			if got.P[k] != ref.P[k] {
				t.Fatalf("workers=%d: pressure cell %d diverged", workers, k)
			}
		}
	}
}
