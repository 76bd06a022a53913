package field

import (
	"bytes"
	"context"
	"errors"
	"image/png"
	"math"
	"testing"

	"ooc/internal/core"
	"ooc/internal/fluid"
	"ooc/internal/obs"
	"ooc/internal/physio"
	"ooc/internal/units"
)

func fig4Design(t *testing.T) *core.Design {
	t.Helper()
	spec := core.Spec{
		Name:         "male_simple",
		Reference:    physio.StandardMale(),
		OrganismMass: units.Kilograms(1e-6),
		Modules: []core.ModuleSpec{
			{Organ: physio.Lung, Kind: core.Layered},
			{Organ: physio.Liver, Kind: core.Layered},
			{Organ: physio.Brain, Kind: core.Layered},
		},
		Fluid:       fluid.MediumLowViscosity,
		ShearStress: units.PascalsShear(1.5),
	}
	d, err := core.Generate(spec)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func solveCoarse(t *testing.T, d *core.Design) *Field {
	t.Helper()
	f, err := Solve(d, Options{CellSize: 150e-6, Tol: 1e-9})
	if err != nil {
		t.Fatal(err)
	}
	return f
}

func TestSolveBasics(t *testing.T) {
	d := fig4Design(t)
	f := solveCoarse(t, d)
	if f.ChannelCells == 0 {
		t.Fatal("no channel cells")
	}
	if f.MaxSpeed <= 0 {
		t.Fatal("no flow")
	}
	// OoC velocities are mm/s to cm/s scale.
	if f.MaxSpeed > 1 {
		t.Fatalf("max speed %.3g m/s implausible", f.MaxSpeed)
	}
	// Velocity must vanish outside channels.
	for idx, m := range f.Mask {
		if !m && f.Speed[idx] != 0 {
			t.Fatal("speed outside the channel mask")
		}
	}
}

// TestModuleFlowsMatchDesign: the field's measured module flows (box
// cuts as in Fig. 4) must agree with the design within the method's
// known limits (parallel-plate bias cancels for flow *distribution*
// between identical module channels; rasterization adds a few percent).
func TestModuleFlowsMatchDesign(t *testing.T) {
	d := fig4Design(t)
	f := solveCoarse(t, d)
	flows := f.ModuleFlows(d)
	for i, m := range d.Modules {
		want := m.FlowRate.CubicMetresPerSecond()
		got := flows[i]
		if got <= 0 {
			t.Fatalf("module %s: no measured flow", m.Name)
		}
		dev := math.Abs(got-want) / want
		if dev > 0.12 {
			t.Fatalf("module %s: field flow %.3g vs design %.3g (%.0f%%)",
				m.Name, got, want, dev*100)
		}
	}
	// Distribution: the three modules carry nearly equal flows, as the
	// paper's Fig. 4 reports.
	mean := (flows[0] + flows[1] + flows[2]) / 3
	for i, q := range flows {
		if math.Abs(q-mean)/mean > 0.06 {
			t.Fatalf("module %d flow %.3g strays from mean %.3g", i, q, mean)
		}
	}
}

// TestGlobalConservation: the net flux through a cut enclosing the
// whole inlet side equals the inlet pump flow.
func TestGlobalConservation(t *testing.T) {
	d := fig4Design(t)
	f := solveCoarse(t, d)
	// A vertical cut through the inlet/outlet leads (left of all
	// modules) sees inlet flow (top, rightward) minus outlet+recirc
	// return (bottom, leftward): net = qin − qout − qrec = −qrec.
	x := float64(d.Modules[0].InletX) - float64(d.Resolved.Geometry.Spacing)/2 - 1e-4
	q := f.FlowAcross(d, x, -1, 1) // full chip height band
	want := -d.Pumps.Recirculation.CubicMetresPerSecond() +
		d.Pumps.Inlet.CubicMetresPerSecond() - d.Pumps.Outlet.CubicMetresPerSecond()
	scale := d.Pumps.Inlet.CubicMetresPerSecond()
	if math.Abs(q-want) > 0.15*scale {
		t.Fatalf("net flux %.3g, want %.3g (±15%% of inlet)", q, want)
	}
}

func TestFieldSpeedsFastestInLeads(t *testing.T) {
	// The inlet lead carries the full supply flow in a module-width
	// channel: it must be among the fastest regions; module channels
	// carry less than the lead.
	d := fig4Design(t)
	f := solveCoarse(t, d)
	if f.MaxSpeed <= 0 {
		t.Fatal("no flow")
	}
	// Sample a module channel centre cell.
	m := d.Modules[1]
	mid := (float64(m.InletX) + float64(m.OutletX)) / 2
	i := int((mid - f.Origin.X) / f.CellSize)
	j := int((0 - f.Origin.Y) / f.CellSize)
	masked, speed := f.At(i, j)
	if !masked {
		t.Fatal("module centre not rasterized")
	}
	if speed >= f.MaxSpeed {
		t.Fatal("module channel should not be the fastest region")
	}
}

func TestRenderPNG(t *testing.T) {
	d := fig4Design(t)
	f := solveCoarse(t, d)
	var buf bytes.Buffer
	if err := f.RenderPNG(&buf); err != nil {
		t.Fatal(err)
	}
	img, err := png.Decode(&buf)
	if err != nil {
		t.Fatalf("invalid PNG: %v", err)
	}
	bounds := img.Bounds()
	if bounds.Dx() != f.Nx || bounds.Dy() != f.Ny {
		t.Fatalf("image %dx%d, field %dx%d", bounds.Dx(), bounds.Dy(), f.Nx, f.Ny)
	}
}

func TestHeatColormap(t *testing.T) {
	lo := heat(0)
	hi := heat(1)
	if lo.B <= lo.R {
		t.Fatal("slow end should be blue")
	}
	if hi.R <= hi.B {
		t.Fatal("fast end should be red")
	}
	// Clamping.
	if heat(-1) != heat(0) || heat(2) != heat(1) {
		t.Fatal("colormap must clamp")
	}
}

func TestSolveValidation(t *testing.T) {
	if _, err := Solve(nil, Options{}); err == nil {
		t.Fatal("nil design accepted")
	}
	d := fig4Design(t)
	if _, err := Solve(d, Options{CellSize: -1}); err == nil {
		t.Fatal("negative cell size accepted")
	}
	if _, err := Solve(d, Options{CellSize: 1e-6}); err == nil {
		t.Fatal("absurdly fine raster accepted (memory guard)")
	}
}

// TestSolveWorkersBitIdentical: the field solve must produce identical
// bits for every worker count — the parallel stages own disjoint rows
// and all reductions stay serial.
func TestSolveWorkersBitIdentical(t *testing.T) {
	d := fig4Design(t)
	serial, err := Solve(d, Options{CellSize: 350e-6, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	par, err := Solve(d, Options{CellSize: 350e-6, Workers: 8})
	if err != nil {
		t.Fatal(err)
	}
	if serial.Iterations != par.Iterations {
		t.Fatalf("iteration count diverged: %d vs %d", serial.Iterations, par.Iterations)
	}
	for idx := range serial.P {
		//ooclint:ignore floatcmp bit-identity across worker counts is the property under test
		if serial.P[idx] != par.P[idx] || serial.Speed[idx] != par.Speed[idx] {
			t.Fatalf("cell %d diverged between worker counts", idx)
		}
	}
}

func TestSolveContextCancelledAbortsPromptly(t *testing.T) {
	d := fig4Design(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := SolveContext(ctx, d, Options{CellSize: 150e-6, Tol: 1e-9})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("want context.Canceled, got %v", err)
	}
}

func TestSolveContextRecordsCGStats(t *testing.T) {
	d := fig4Design(t)
	c := obs.NewCollector()
	ctx := obs.WithCollector(context.Background(), c)
	if _, err := SolveContext(ctx, d, Options{CellSize: 150e-6, Tol: 1e-9}); err != nil {
		t.Fatal(err)
	}
	solvers := c.Snapshot().Solvers()
	if len(solvers) != 1 || solvers[0].Solver != "cg" {
		t.Fatalf("collector solvers: %+v", solvers)
	}
	cg := solvers[0]
	if cg.Solves != 1 || cg.Converged != 1 || cg.TotalIterations <= 0 {
		t.Fatalf("cg stats: %+v", cg)
	}
}
