// Benchmarks regenerating every table and figure of the paper's
// evaluation (Sec. IV), plus ablations and component-level benches.
//
//	go test -bench=. -benchmem
//
// Experiment index (see DESIGN.md):
//
//	BenchmarkFig4MaleSimple   — Fig. 4: male_simple generation + CFD-substitute validation
//	BenchmarkTableI           — Table I: the full 288-instance evaluation grid
//	BenchmarkTableIRow/*      — Table I, one row (use case) at the Fig. 4 operating point
//	BenchmarkGenerateByModules— scalability of design generation, 3–8 modules (generic use cases)
//	BenchmarkAblation*        — design-choice ablations (resistance model, minor losses)
//	BenchmarkRenderJSON/*     — serving layer: encoding one use case's design document
//	BenchmarkCanonical/*      — serving layer: one use case's canonical spec bytes (the cache key)
//	BenchmarkServeHit/*       — serving layer: one warm response-cache hit through the HTTP handler, design and budgeted validate
//	BenchmarkCrossSectionFDM/*— one cold cross-section FDM solve, n = 32 and the reference's n, w/h = 1.5 and 6.67
//	BenchmarkSearch/*         — design-space search: grid vs successive halving over the 20 default candidates, one worker
//	Benchmark<component>      — substrate kernels (meander synthesis, nodal solve, cached FDM)
package ooc_test

import (
	"bytes"
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"ooc"
	"ooc/internal/core"
	"ooc/internal/dyn"
	"ooc/internal/eval"
	"ooc/internal/fluid"
	"ooc/internal/linalg"
	"ooc/internal/meander"
	"ooc/internal/modelsel"
	"ooc/internal/optimize"
	"ooc/internal/physio"
	"ooc/internal/render"
	"ooc/internal/report"
	"ooc/internal/server"
	"ooc/internal/sim"
	"ooc/internal/specio"
	"ooc/internal/units"
	"ooc/internal/usecases"
)

// BenchmarkFig4MaleSimple regenerates the Fig. 4 experiment: the
// male_simple chip at µ=7.2e-4 Pa·s, τ=1.5 Pa, spacing 1 mm, validated
// with the CFD substitute. Reported metrics: worst module-flow and
// perfusion deviations in percent (the figure quotes 0.86–1.90 % and
// 0.09–1.95 %).
func BenchmarkFig4MaleSimple(b *testing.B) {
	in := usecases.Fig4Instance()
	var rep *sim.Report
	for i := 0; i < b.N; i++ {
		d, err := core.Generate(in.Spec)
		if err != nil {
			b.Fatal(err)
		}
		rep, err = sim.Validate(d, sim.Options{})
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(rep.MaxFlowDeviation*100, "flowdev-max-%")
	b.ReportMetric(rep.MaxPerfDeviation*100, "perfdev-max-%")
	if b.N == 1 {
		b.Logf("\n%s", report.FormatFig4(rep))
	}
}

// BenchmarkDynamic times the transient tier on the Fig. 4 chip: a
// 1-second pulsatile dosed run (backward-Euler pressures + CFL-bounded
// species advection). Reported metrics: integrator steps and the
// species mass-balance defect.
func BenchmarkDynamic(b *testing.B) {
	in := usecases.Fig4Instance()
	d, err := core.Generate(in.Spec)
	if err != nil {
		b.Fatal(err)
	}
	opt := sim.Options{Model: sim.ModelDynamic, Dynamic: sim.DefaultDynamicOptions()}
	opt.Dynamic.Duration = time.Second
	opt.Dynamic.Profile = dyn.Profile{Kind: dyn.ProfilePulse, Amplitude: 0.5, Period: 0.25}
	opt.Dynamic.Species = dyn.Species{Enabled: true, DoseConcentration: 1, DoseDuration: 1, ArrivalThreshold: 0.1}
	var dr *sim.DynamicReport
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		dr, err = sim.ValidateDynamic(d, opt)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(dr.Steps), "steps")
	b.ReportMetric(dr.MassBalanceError, "mass-defect")
}

// BenchmarkTableI regenerates the entire Table I evaluation: all eight
// use cases over the extended 3×3×4 grid (288 instances, matching the
// paper's reported design count), aggregated into per-use-case average
// and worst-case deviations.
func BenchmarkTableI(b *testing.B) {
	cases := usecases.All()
	sweep := usecases.ExtendedSweep()
	var tbl report.Table
	for i := 0; i < b.N; i++ {
		tbl = report.Table{}
		for _, uc := range cases {
			var reps []*sim.Report
			failures := 0
			for _, in := range usecases.Instances([]usecases.UseCase{uc}, sweep) {
				d, err := core.Generate(in.Spec)
				if err != nil {
					failures++
					continue
				}
				rep, err := sim.Validate(d, sim.Options{})
				if err != nil {
					failures++
					continue
				}
				reps = append(reps, rep)
			}
			tbl.Rows = append(tbl.Rows, report.Aggregate(uc.Name, uc.ModuleCount, reps, failures))
		}
		tbl.Sort()
	}
	var worstFlow, worstPerf float64
	for _, r := range tbl.Rows {
		if r.FlowMax > worstFlow {
			worstFlow = r.FlowMax
		}
		if r.PerfMax > worstPerf {
			worstPerf = r.PerfMax
		}
	}
	b.ReportMetric(worstFlow, "flowdev-max-%")
	b.ReportMetric(worstPerf, "perfdev-max-%")
	if b.N == 1 {
		b.Logf("\n%s", tbl.Format())
	}
}

// BenchmarkTableIParallel evaluates the same 288-instance grid through
// the shared worker pool (internal/eval on internal/parallel) — the
// production path of cmd/oocbench. Its Table I output is byte-identical
// to the serial BenchmarkTableI aggregation; the wall-clock ratio of
// the two benchmarks is the pool's speedup on this machine.
func BenchmarkTableIParallel(b *testing.B) {
	cases := usecases.All()
	instances := usecases.Instances(cases, usecases.ExtendedSweep())
	var tbl report.Table
	for i := 0; i < b.N; i++ {
		reps, err := eval.Grid(context.Background(), instances, 0, sim.Options{})
		if err != nil {
			b.Fatal(err)
		}
		tbl = eval.Table(cases, instances, reps)
	}
	var worstFlow, worstPerf float64
	for _, r := range tbl.Rows {
		if r.FlowMax > worstFlow {
			worstFlow = r.FlowMax
		}
		if r.PerfMax > worstPerf {
			worstPerf = r.PerfMax
		}
	}
	b.ReportMetric(worstFlow, "flowdev-max-%")
	b.ReportMetric(worstPerf, "perfdev-max-%")
	if b.N == 1 {
		b.Logf("\n%s", tbl.Format())
	}
}

// BenchmarkTableIRow runs one Table I row (one use case) at the Fig. 4
// operating point — the per-chip cost of the evaluation.
func BenchmarkTableIRow(b *testing.B) {
	for _, uc := range usecases.All() {
		uc := uc
		b.Run(uc.Name, func(b *testing.B) {
			spec := uc.Build()
			var rep *sim.Report
			for i := 0; i < b.N; i++ {
				d, err := core.Generate(spec)
				if err != nil {
					b.Fatal(err)
				}
				rep, err = sim.Validate(d, sim.Options{})
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(rep.AvgFlowDeviation*100, "flowdev-avg-%")
			b.ReportMetric(rep.AvgPerfDeviation*100, "perfdev-avg-%")
		})
	}
}

// BenchmarkGenerateByModules measures how design generation scales
// with the number of organ modules (the paper's scalability argument
// for generic1–generic4, extended down to 3).
func BenchmarkGenerateByModules(b *testing.B) {
	for n := 3; n <= 8; n++ {
		n := n
		b.Run(fmt.Sprintf("modules=%d", n), func(b *testing.B) {
			spec := ooc.Spec{
				Name:         fmt.Sprintf("bench%d", n),
				Reference:    ooc.StandardMale(),
				OrganismMass: ooc.Kilograms(1e-6),
				Fluid:        ooc.MediumLowViscosity,
				ShearStress:  ooc.PascalsShear(1.5),
			}
			for i := 0; i < n; i++ {
				spec.Modules = append(spec.Modules, ooc.ModuleSpec{
					Name:  fmt.Sprintf("liver%d", i),
					Organ: ooc.Liver,
					Kind:  ooc.Layered,
				})
			}
			var d *ooc.Design
			var err error
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				d, err = ooc.Generate(spec)
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(d.Iterations), "iterations")
			b.ReportMetric(d.Bounds.Width()*1e3, "chip-width-mm")
		})
	}
}

// BenchmarkAblationResistanceModel compares validation under the exact
// Fourier-series model vs. the designer's Eq. 6 — quantifying the
// model error the paper's footnote 1 concedes ("an approximation for
// h/w → 0").
func BenchmarkAblationResistanceModel(b *testing.B) {
	d, err := core.Generate(usecases.Fig4Instance().Spec)
	if err != nil {
		b.Fatal(err)
	}
	for _, m := range []struct {
		name string
		opt  sim.Options
	}{
		{"exact", sim.Options{Model: sim.ModelExact, DisableBendLosses: true, DisableJunctionLosses: true}},
		{"approx", sim.Options{Model: sim.ModelApprox, DisableBendLosses: true, DisableJunctionLosses: true}},
	} {
		m := m
		b.Run(m.name, func(b *testing.B) {
			var rep *sim.Report
			for i := 0; i < b.N; i++ {
				rep, err = sim.Validate(d, m.opt)
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(rep.MaxFlowDeviation*100, "flowdev-max-%")
		})
	}
}

// BenchmarkAblationMinorLosses isolates the contribution of each
// minor-loss family (meander bends, T-junctions) to the validation
// deviation.
func BenchmarkAblationMinorLosses(b *testing.B) {
	d, err := core.Generate(usecases.Fig4Instance().Spec)
	if err != nil {
		b.Fatal(err)
	}
	for _, m := range []struct {
		name string
		opt  sim.Options
	}{
		{"all-losses", sim.Options{}},
		{"no-bends", sim.Options{DisableBendLosses: true}},
		{"no-junctions", sim.Options{DisableJunctionLosses: true}},
		{"straight-only", sim.Options{DisableBendLosses: true, DisableJunctionLosses: true}},
	} {
		m := m
		b.Run(m.name, func(b *testing.B) {
			var rep *sim.Report
			for i := 0; i < b.N; i++ {
				rep, err = sim.Validate(d, m.opt)
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(rep.MaxFlowDeviation*100, "flowdev-max-%")
			b.ReportMetric(rep.MaxPerfDeviation*100, "perfdev-max-%")
		})
	}
}

// BenchmarkMeanderSynthesis measures the meander kernel at a typical
// supply-channel problem.
func BenchmarkMeanderSynthesis(b *testing.B) {
	spec := meander.Spec{
		Height:       10e-3,
		TargetLength: 45e-3,
		ChannelWidth: 225e-6,
		Spacing:      1e-3,
		MaxWidth:     8e-3,
		Margin:       1.6e-3,
		EndX:         1.225e-3,
	}
	for i := 0; i < b.N; i++ {
		if _, err := meander.Synthesize(spec); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkNodalSolve measures the lumped network solve for the
// largest evaluation chip (generic4, 8 modules).
func BenchmarkNodalSolve(b *testing.B) {
	uc, err := usecases.ByName("generic4")
	if err != nil {
		b.Fatal(err)
	}
	d, err := core.Generate(uc.Build())
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sim.Validate(d, sim.Options{}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSearch measures one design-space search over the 20 default
// candidates with the default constraints, exhaustive grid against
// successive halving. One worker makes ns/op the CPU a search costs
// under either strategy. Reported metrics: evaluations at any fidelity
// and at full fidelity.
func BenchmarkSearch(b *testing.B) {
	for _, strategy := range []optimize.Strategy{optimize.StrategyGrid, optimize.StrategyHalving} {
		for _, name := range []string{"male_simple", "generic4"} {
			b.Run(strategy.String()+"/"+name, func(b *testing.B) {
				uc, err := usecases.ByName(name)
				if err != nil {
					b.Fatal(err)
				}
				spec := uc.Build()
				opt := optimize.Options{
					Objective:   optimize.MinimizeArea,
					Constraints: optimize.DefaultConstraints(),
					Strategy:    strategy,
					Workers:     1,
				}
				var res *optimize.Result
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					res, err = optimize.Search(context.Background(), spec, opt)
					if err != nil {
						b.Fatal(err)
					}
				}
				b.ReportMetric(float64(res.Evaluated), "evals")
				b.ReportMetric(float64(res.FullEvaluations), "full-evals")
			})
		}
	}
}

// BenchmarkCrossSectionFDM measures one cold Poisson cross-section
// solve (the CFD-lite kernel): the solve cache is emptied before every
// iteration, so each one solves. It runs at the default resolution and
// at the calibration reference's, on the paper grid's two similarity
// classes: the 225 µm vertical connection channels (w/h = 1.5) and
// the 1 mm module and feed/drain channels (w/h = 6.67), all 150 µm
// high.
func BenchmarkCrossSectionFDM(b *testing.B) {
	h := units.Micrometres(150)
	aspects := []struct {
		name  string
		width units.Length
	}{
		{"1.5", units.Micrometres(225)},
		{"6.67", units.Millimetres(1)},
	}
	for _, n := range []int{32, modelsel.Reference().Resolution} {
		for _, a := range aspects {
			cs := fluid.CrossSection{Width: a.width, Height: h}
			b.Run(fmt.Sprintf("n=%d/aspect=%s", n, a.name), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					sim.ResetCrossSectionCache()
					if _, err := sim.NumericResistance(cs, units.Millimetres(1), physio.MediumViscosityLow, n); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// BenchmarkCrossSectionCached measures the cross-section solve cache:
// `cold` resets the cache before every solve (the pre-cache cost),
// `warm` solves the same similarity class repeatedly and amortizes the
// single FDM solve — the common case in a use-case grid, where every
// module channel shares one aspect ratio. The cold/warm ratio is the
// per-channel speedup of a cache hit.
func BenchmarkCrossSectionCached(b *testing.B) {
	cs := fluid.CrossSection{Width: units.Millimetres(1), Height: units.Micrometres(150)}
	l := units.Millimetres(1)
	mu := physio.MediumViscosityLow
	b.Run("cold", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			sim.ResetCrossSectionCache()
			if _, err := sim.NumericResistance(cs, l, mu, 32); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("warm", func(b *testing.B) {
		sim.ResetCrossSectionCache()
		if _, err := sim.NumericResistance(cs, l, mu, 32); err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := sim.NumericResistance(cs, l, mu, 32); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkValidateNumericModel measures the FDM-backed validation of
// the Fig. 4 chip — the CFD-lite model on every channel — with a warm
// solve cache, against the same validation with the cache cleared on
// every iteration.
func BenchmarkValidateNumericModel(b *testing.B) {
	d, err := core.Generate(usecases.Fig4Instance().Spec)
	if err != nil {
		b.Fatal(err)
	}
	b.Run("cold-cache", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			sim.ResetCrossSectionCache()
			if _, err := sim.Validate(d, sim.Options{Model: sim.ModelNumeric}); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("warm-cache", func(b *testing.B) {
		sim.ResetCrossSectionCache()
		if _, err := sim.Validate(d, sim.Options{Model: sim.ModelNumeric}); err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := sim.Validate(d, sim.Options{Model: sim.ModelNumeric}); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkDerive measures specification resolution alone (Eq. 1–4).
func BenchmarkDerive(b *testing.B) {
	spec := usecases.Fig4Instance().Spec
	for i := 0; i < b.N; i++ {
		if _, err := core.Derive(spec); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkRenderJSON measures encoding the design document that
// /v1/design serves, per use case. Reported metric: the document's
// size in KiB.
func BenchmarkRenderJSON(b *testing.B) {
	for _, uc := range usecases.All() {
		b.Run(uc.Name, func(b *testing.B) {
			d, err := core.Generate(uc.Build())
			if err != nil {
				b.Fatal(err)
			}
			var raw []byte
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				raw, err = render.JSON(d)
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(len(raw))/1024, "doc-KiB")
		})
	}
}

// canonicalSink keeps BenchmarkCanonical's result alive.
var canonicalSink []byte

// BenchmarkCanonical measures the canonical spec bytes that key the
// server's response cache, per use case.
func BenchmarkCanonical(b *testing.B) {
	for _, uc := range usecases.All() {
		b.Run(uc.Name, func(b *testing.B) {
			spec := uc.Build()
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				var err error
				canonicalSink, err = specio.Canonical(spec)
				if err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// discardWriter is an http.ResponseWriter that keeps the status and
// headers and drops the body, so BenchmarkServeHit times the handler,
// not a recorder growing a buffer for a copy of the reply.
type discardWriter struct {
	header http.Header
	status int
}

func (w *discardWriter) Header() http.Header         { return w.header }
func (w *discardWriter) Write(p []byte) (int, error) { return len(p), nil }
func (w *discardWriter) WriteHeader(status int)      { w.status = status }

// BenchmarkServeHit measures one warm request through the daemon's
// HTTP handler, per use case: a design and a budgeted validation whose
// body the server has answered before, so the response cache replays
// the reply.
func BenchmarkServeHit(b *testing.B) {
	for _, rq := range []struct{ name, path string }{
		{"design", "/v1/design"},
		{"validate_budget", "/v1/validate?error_budget=0.01"},
	} {
		for _, uc := range usecases.All() {
			b.Run(rq.name+"/"+uc.Name, func(b *testing.B) {
				body, err := specio.Marshal(uc.Build())
				if err != nil {
					b.Fatal(err)
				}
				h := server.New(server.Config{}).Handler()
				w := &discardWriter{header: http.Header{}}
				send := func() {
					clear(w.header)
					h.ServeHTTP(w, httptest.NewRequest(http.MethodPost, rq.path, bytes.NewReader(body)))
				}
				// The first request fills the response cache, the
				// second is the first hit.
				for i := 0; i < 2; i++ {
					if send(); w.status != http.StatusOK {
						b.Fatalf("status %d", w.status)
					}
				}
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if send(); w.header.Get("X-Cache") != "hit" {
						b.Fatalf("status %d X-Cache %q", w.status, w.header.Get("X-Cache"))
					}
				}
			})
		}
	}
}

// BenchmarkPerfusionTable measures the physiology lookups used per
// design.
func BenchmarkPerfusionTable(b *testing.B) {
	ref := physio.StandardMale()
	organs := []physio.OrganID{physio.Liver, physio.Lung, physio.Brain, physio.Kidney, physio.GITract}
	for i := 0; i < b.N; i++ {
		for _, o := range organs {
			if _, err := physio.Perfusion(o, &ref, physio.DefaultDilution); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// BenchmarkLUSolve measures the dense kernel at nodal-analysis sizes.
func BenchmarkLUSolve(b *testing.B) {
	n := 40
	a, err := linalg.NewMatrix(n, n)
	if err != nil {
		b.Fatal(err)
	}
	rhs := make([]float64, n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if i == j {
				a.Set(i, j, float64(n))
			} else {
				a.Set(i, j, 1/float64(1+i+j))
			}
		}
		rhs[i] = float64(i)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		// Solve factors its matrix in place: clone so every iteration
		// times one copy, one factorization and one solve of the same A.
		if _, err := linalg.Solve(a.Clone(), rhs); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTransportBolus measures the compound-transport simulation
// (extension: pharmacokinetics on the generated chip).
func BenchmarkTransportBolus(b *testing.B) {
	d, err := core.Generate(usecases.Fig4Instance().Spec)
	if err != nil {
		b.Fatal(err)
	}
	var res *ooc.TransportResult
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err = ooc.SimulateTransport(d, ooc.TransportConfig{Bolus: 1e-9, Duration: 10})
		if err != nil {
			b.Fatal(err)
		}
		if res.MassBalanceError > 1e-6 {
			b.Fatal("mass balance")
		}
	}
	b.ReportMetric(float64(res.Steps), "steps")
}

// BenchmarkToleranceAnalysis measures the Monte Carlo fabrication
// study (extension).
func BenchmarkToleranceAnalysis(b *testing.B) {
	d, err := core.Generate(usecases.Fig4Instance().Spec)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	var rep *sim.ToleranceReport
	for i := 0; i < b.N; i++ {
		rep, err = sim.ToleranceAnalysis(d, sim.ToleranceConfig{
			WidthSigma: 0.02, HeightSigma: 0.02, Samples: 100, Seed: 1,
		})
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(rep.FlowDev.Mean*100, "flowdev-mean-%")
	b.ReportMetric(rep.YieldWithin["10%"]*100, "yield10-%")
}

// BenchmarkAblationPumpMode compares flow-controlled vs
// pressure-controlled pump operation under the exact model.
func BenchmarkAblationPumpMode(b *testing.B) {
	d, err := core.Generate(usecases.Fig4Instance().Spec)
	if err != nil {
		b.Fatal(err)
	}
	b.Run("flow-driven", func(b *testing.B) {
		var rep *sim.Report
		for i := 0; i < b.N; i++ {
			rep, err = sim.Validate(d, sim.Options{})
			if err != nil {
				b.Fatal(err)
			}
		}
		b.ReportMetric(rep.MaxFlowDeviation*100, "flowdev-max-%")
	})
	b.Run("pressure-driven", func(b *testing.B) {
		var rep *sim.Report
		for i := 0; i < b.N; i++ {
			rep, err = sim.ValidatePressureDriven(d, sim.Options{})
			if err != nil {
				b.Fatal(err)
			}
		}
		b.ReportMetric(rep.MaxFlowDeviation*100, "flowdev-max-%")
	})
}

// BenchmarkFieldSolve measures the depth-averaged Hele-Shaw solve of
// the full chip layout (the Fig. 4 velocity-field reproduction).
func BenchmarkFieldSolve(b *testing.B) {
	d, err := core.Generate(usecases.Fig4Instance().Spec)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	var f *ooc.FlowField
	for i := 0; i < b.N; i++ {
		f, err = ooc.SolveFlowField(d, ooc.FieldOptions{CellSize: 150e-6})
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(f.ChannelCells), "channel-cells")
	b.ReportMetric(float64(f.Iterations), "cg-iterations")
}

// BenchmarkBaselineNaive compares the paper's method against the
// manual-design status quo: identical topology and dimensions but no
// pressure correction. The reported deviations quantify the value of
// the paper's central contribution.
func BenchmarkBaselineNaive(b *testing.B) {
	spec := usecases.Fig4Instance().Spec
	for _, mode := range []struct {
		name string
		gen  func(core.Spec) (*core.Design, error)
	}{
		{"corrected", core.Generate},
		{"naive-baseline", core.GenerateNaive},
	} {
		mode := mode
		b.Run(mode.name, func(b *testing.B) {
			var rep *sim.Report
			for i := 0; i < b.N; i++ {
				d, err := mode.gen(spec)
				if err != nil {
					b.Fatal(err)
				}
				rep, err = sim.Validate(d, sim.Options{})
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(rep.MaxFlowDeviation*100, "flowdev-max-%")
			b.ReportMetric(rep.MaxPerfDeviation*100, "perfdev-max-%")
		})
	}
}
