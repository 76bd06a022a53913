// Package field solves the depth-averaged (Hele-Shaw) flow field over
// the rasterized 2D layout of a generated chip and renders the
// velocity magnitude as an image — the reproduction of the paper's
// Fig. 4, which shows an OpenFOAM velocity field of the male_simple
// chip.
//
// For a shallow channel network of uniform height h (exactly the
// paper's chip architecture), the depth-averaged pressure obeys
//
//	∇·(k ∇p) = 0,   k = h³ / (12 µ)   inside channels, 0 outside,
//
// with no-flux walls arising naturally from the vanishing conductivity
// outside the channel region; pumps enter as source terms. Unlike the
// lumped validator this solver knows nothing about the design's
// channel list beyond its drawn footprint — junction and bend effects
// emerge from the geometry itself, making it a second, independent
// validation channel. Its known systematic limit is the parallel-plate
// resistance (the h/w → 0 limit of Eq. 6): side-wall drag is not
// resolved, so absolute resistances of narrow channels are
// underestimated while flow *distribution* trends remain meaningful.
package field

import (
	"context"
	"errors"
	"fmt"
	"math"

	"ooc/internal/core"
	"ooc/internal/fluid"
	"ooc/internal/geometry"
	"ooc/internal/parallel"
	"ooc/internal/units"
)

// Options configures the field solve.
type Options struct {
	// CellSize is the raster resolution [m]; zero picks 1/3 of the
	// narrowest channel width.
	CellSize float64
	// Tol is the solver convergence tolerance (the CG solver's
	// relative residual); zero selects 1e-8.
	Tol float64
	// MaxIter bounds solver iterations; zero selects 40·(nx+ny).
	MaxIter int
	// Workers bounds the goroutines used for the per-channel
	// cross-section factors and the row-parallel Laplacian sweeps;
	// ≤ 0 selects GOMAXPROCS. The solve is bit-identical for every
	// worker count: parallel stages own disjoint rows and every
	// floating-point reduction stays serial.
	Workers int
}

// Field is a solved depth-averaged flow field.
type Field struct {
	// Nx, Ny are the grid dimensions; CellSize the spacing [m].
	Nx, Ny   int
	CellSize float64
	// Origin is the world position of cell (0, 0)'s lower-left corner.
	Origin geometry.Point
	// Mask marks channel cells.
	Mask []bool
	// Kf is the per-cell conductivity factor relative to the
	// parallel-plate limit: the exact rectangular-duct solution gives
	// straight channels of width w the factor 1 − S(h/w) (< 1), which
	// restores side-wall drag that the pure Hele-Shaw model misses.
	Kf []float64
	// P is the pressure field [Pa].
	P []float64
	// Vx, Vy are depth-averaged velocity components [m/s].
	Vx, Vy []float64
	// Speed is the velocity magnitude [m/s].
	Speed []float64
	// MaxSpeed is the largest magnitude.
	MaxSpeed float64
	// Iterations the SOR solver used.
	Iterations int
	// kBase is the parallel-plate conductivity h³/12µ used by the
	// face-flux accounting.
	kBase float64
	// ChannelCells counts masked cells.
	ChannelCells int
}

// index returns the linear index of cell (i, j).
func (f *Field) index(i, j int) int { return j*f.Nx + i }

// At reports mask and speed at a cell.
func (f *Field) At(i, j int) (bool, float64) {
	k := f.index(i, j)
	return f.Mask[k], f.Speed[k]
}

// Solve rasterizes the design and solves the Hele-Shaw field.
func Solve(d *core.Design, opt Options) (*Field, error) {
	return SolveContext(context.Background(), d, opt)
}

// SolveContext is Solve with cooperative cancellation and telemetry:
// the CG loop checks ctx between iterations and aborts with an error
// wrapping ctx.Err() (distinct from the non-convergence error), and
// every solve — converged, non-converged or aborted — records an
// obs.SolveStats under solver name "cg" into the collector carried by
// ctx.
func SolveContext(ctx context.Context, d *core.Design, opt Options) (*Field, error) {
	return solve(ctx, d, opt, solveMaskedCG)
}

// maskedSolver is a pressure-solve backend for the masked system; see
// solvers.go.
type maskedSolver func(ctx context.Context, f *Field, rhs []float64, tol float64, maxIter, workers int) (int, error)

// solve is SolveContext with the pressure-solve backend as an argument,
// so tests can cross-check CG against the masked SOR oracle.
func solve(ctx context.Context, d *core.Design, opt Options, backend maskedSolver) (*Field, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if d == nil || len(d.Channels) == 0 {
		return nil, errors.New("field: empty design")
	}
	// Raster resolution.
	minW := math.Inf(1)
	for _, c := range d.Channels {
		if w := float64(c.Cross.Width); w < minW {
			minW = w
		}
	}
	cell := opt.CellSize
	if cell == 0 {
		cell = minW / 3
	}
	if cell <= 0 {
		return nil, errors.New("field: non-positive cell size")
	}

	b := d.Bounds
	pad := 2 * cell
	origin := geometry.Point{X: b.Min.X - pad, Y: b.Min.Y - pad}
	nx := int((b.Width()+2*pad)/cell) + 2
	ny := int((b.Height()+2*pad)/cell) + 2
	if nx < 8 || ny < 8 {
		return nil, errors.New("field: raster too small")
	}
	if nx*ny > 8_000_000 {
		return nil, fmt.Errorf("field: raster %d×%d too large; increase CellSize", nx, ny)
	}

	f := &Field{
		Nx: nx, Ny: ny, CellSize: cell, Origin: origin,
		Mask:  make([]bool, nx*ny),
		Kf:    make([]float64, nx*ny),
		P:     make([]float64, nx*ny),
		Vx:    make([]float64, nx*ny),
		Vy:    make([]float64, nx*ny),
		Speed: make([]float64, nx*ny),
	}

	// Rasterize channel footprints (segment rectangles inflated by
	// half width), carrying each channel's side-wall conductivity
	// factor. Where footprints overlap (junctions) the larger factor
	// wins — junctions are locally wider than either channel.
	h := float64(d.Resolved.Geometry.ChannelHeight)
	mu := float64(d.Resolved.Spec.Fluid.Viscosity)
	workers := parallel.Workers(opt.Workers)
	// Per-channel cross-section factors through the shared pool; the
	// raster pass below stays serial because channel footprints
	// overlap at junctions.
	kfs, _ := parallel.Map(len(d.Channels), workers, func(i int) (float64, error) {
		return wallFactor(d.Channels[i].Cross, units.Viscosity(mu)), nil
	})
	for ci, c := range d.Channels {
		hw := float64(c.Cross.Width) / 2
		kf := kfs[ci]
		for _, seg := range c.Path.Segments() {
			r := seg.Expand(hw)
			i0 := int(math.Floor((r.Min.X - origin.X) / cell))
			i1 := int(math.Ceil((r.Max.X - origin.X) / cell))
			j0 := int(math.Floor((r.Min.Y - origin.Y) / cell))
			j1 := int(math.Ceil((r.Max.Y - origin.Y) / cell))
			for j := max(j0, 0); j < min(j1, ny); j++ {
				for i := max(i0, 0); i < min(i1, nx); i++ {
					// Anti-aliased rasterization: weight the cell's
					// conductivity by its coverage fraction, so the
					// effective channel width matches the drawn width
					// regardless of how the grid phases against it. A
					// binary mask would quantize a 225 µm channel on a
					// 75 µm grid to 1–3 cells (up to ±50 % resistance
					// error), badly redistributing the network flows.
					cx0 := origin.X + float64(i)*cell
					cy0 := origin.Y + float64(j)*cell
					ox := math.Min(r.Max.X, cx0+cell) - math.Max(r.Min.X, cx0)
					oy := math.Min(r.Max.Y, cy0+cell) - math.Max(r.Min.Y, cy0)
					if ox <= 0 || oy <= 0 {
						continue
					}
					cover := (ox / cell) * (oy / cell)
					if cover < 0.02 {
						continue
					}
					idx := f.index(i, j)
					f.Mask[idx] = true
					if v := kf * cover; v > f.Kf[idx] {
						f.Kf[idx] = v
					}
				}
			}
		}
	}
	for _, m := range f.Mask {
		if m {
			f.ChannelCells++
		}
	}
	if f.ChannelCells == 0 {
		return nil, errors.New("field: rasterization produced no channel cells")
	}

	// Source terms: pump attach points are the inlet lead start, the
	// outlet lead end, and the recirculation pair (outlet end →
	// connection-0 start).
	k := h * h * h / (12 * mu) // parallel-plate conductivity (per unit width)
	f.kBase = k

	src := make([]float64, nx*ny) // volumetric source [m³/s]
	addSource := func(p geometry.Point, q float64) error {
		i := int((p.X - origin.X) / cell)
		j := int((p.Y - origin.Y) / cell)
		// Snap to the nearest masked cell within a small window.
		bi, bj, found := i, j, false
		bestDist := math.Inf(1)
		for dj := -3; dj <= 3; dj++ {
			for di := -3; di <= 3; di++ {
				ii, jj := i+di, j+dj
				if ii < 0 || jj < 0 || ii >= nx || jj >= ny || !f.Mask[f.index(ii, jj)] {
					continue
				}
				dist := float64(di*di + dj*dj)
				if dist < bestDist {
					bestDist, bi, bj, found = dist, ii, jj, true
				}
			}
		}
		if !found {
			return fmt.Errorf("field: pump attach point (%.3g, %.3g) not on a channel", p.X, p.Y)
		}
		src[f.index(bi, bj)] += q
		return nil
	}

	var inletPt, outletPt, cinPt geometry.Point
	foundIn, foundOut, foundCin := false, false, false
	for _, c := range d.Channels {
		switch c.Kind {
		case core.InletLead:
			inletPt = c.Path.Points[0]
			foundIn = true
		case core.OutletLead:
			outletPt = c.Path.Points[len(c.Path.Points)-1]
			foundOut = true
		case core.ConnectionChannel:
			if c.Index == 0 {
				cinPt = c.Path.Points[0]
				foundCin = true
			}
		}
	}
	if !foundIn || !foundOut || !foundCin {
		return nil, errors.New("field: design lacks inlet/outlet/recirculation ports")
	}
	qin := d.Pumps.Inlet.CubicMetresPerSecond()
	qout := d.Pumps.Outlet.CubicMetresPerSecond()
	qrec := d.Pumps.Recirculation.CubicMetresPerSecond()
	if err := addSource(inletPt, qin); err != nil {
		return nil, err
	}
	if err := addSource(outletPt, -(qout + qrec)); err != nil {
		return nil, err
	}
	if err := addSource(cinPt, qrec); err != nil {
		return nil, err
	}

	// Initial guess: the designer's own pressure profile, interpolated
	// along each channel. The masked domain is effectively a very long
	// 1D chain of cells, on which plain SOR propagates information one
	// cell per sweep; starting from the lumped solution leaves only
	// local corrections around junctions and meander bends, which SOR
	// resolves quickly. The converged solution is independent of the
	// guess.
	seedInitialGuess(f, d, cell)

	// Solve the masked five-point system A·p = b, where A[c,c] is the
	// sum of the face conductivities and A[c,nb] their negatives (the
	// cell size cancels in the finite-volume fluxes, so b = Q/k). The
	// system is singular up to an additive constant; the sources
	// balance, so b is compatible. See solvers.go for the backends and
	// why the masked domain has no multigrid hierarchy.
	tol := opt.Tol
	if tol == 0 {
		tol = 1e-8
	}
	maxIter := opt.MaxIter
	if maxIter == 0 {
		maxIter = 40 * (nx + ny)
	}

	rhs := make([]float64, nx*ny)
	for idx, q := range src {
		if q != 0 {
			rhs[idx] = q / k
		}
	}

	iters, err := backend(ctx, f, rhs, tol, maxIter, workers)
	f.Iterations = iters
	if err != nil {
		return nil, err
	}

	// The solved p is physical pressure [Pa]; the depth-averaged
	// velocity is v = −(h²/12µ)∇p = −(k/h)·∇p with one-sided gradients
	// at walls.
	for j := 1; j < ny-1; j++ {
		for i := 1; i < nx-1; i++ {
			idx := f.index(i, j)
			if !f.Mask[idx] {
				continue
			}
			gx, gy := 0.0, 0.0
			if f.Mask[idx-1] && f.Mask[idx+1] {
				gx = (f.P[idx+1] - f.P[idx-1]) / (2 * cell)
			} else if f.Mask[idx+1] {
				gx = (f.P[idx+1] - f.P[idx]) / cell
			} else if f.Mask[idx-1] {
				gx = (f.P[idx] - f.P[idx-1]) / cell
			}
			if f.Mask[idx-nx] && f.Mask[idx+nx] {
				gy = (f.P[idx+nx] - f.P[idx-nx]) / (2 * cell)
			} else if f.Mask[idx+nx] {
				gy = (f.P[idx+nx] - f.P[idx]) / cell
			} else if f.Mask[idx-nx] {
				gy = (f.P[idx] - f.P[idx-nx]) / cell
			}
			f.Vx[idx] = -(k * f.Kf[idx] / h) * gx
			f.Vy[idx] = -(k * f.Kf[idx] / h) * gy
			f.Speed[idx] = math.Hypot(f.Vx[idx], f.Vy[idx])
			if f.Speed[idx] > f.MaxSpeed {
				f.MaxSpeed = f.Speed[idx]
			}
		}
	}
	return f, nil
}

// faceG returns the harmonic-mean conductivity factor across a face.
func (f *Field) faceG(a, b int) float64 {
	ka, kb := f.Kf[a], f.Kf[b]
	if ka <= 0 || kb <= 0 {
		return 0
	}
	return 2 * ka * kb / (ka + kb)
}

// FlowAcross integrates the volumetric flow through a vertical cut at
// world x across the band [y0, y1], using the exact finite-volume face
// fluxes (discretely conservative): Q = Σ k·g·(p_left − p_right).
// Used to measure module flows from the field, exactly like drawing a
// box in the paper's Fig. 4.
func (f *Field) FlowAcross(d *core.Design, x, y0, y1 float64) float64 {
	i := int((x - f.Origin.X) / f.CellSize)
	if i < 1 || i >= f.Nx-1 {
		return 0
	}
	j0 := int((y0 - f.Origin.Y) / f.CellSize)
	j1 := int((y1 - f.Origin.Y) / f.CellSize)
	if j0 > j1 {
		j0, j1 = j1, j0
	}
	var q float64
	for j := max(j0, 0); j <= min(j1, f.Ny-1); j++ {
		idx := f.index(i, j)
		right := idx + 1
		if !f.Mask[idx] || !f.Mask[right] {
			continue
		}
		q += f.kBase * f.faceG(idx, right) * (f.P[idx] - f.P[right])
	}
	return q
}

// FlowDownAcross integrates the downward volumetric flow through a
// horizontal cut at world y across the band [x0, x1], using the exact
// finite-volume face fluxes: Q = Σ k·g·(p_above − p_below).
func (f *Field) FlowDownAcross(d *core.Design, y, x0, x1 float64) float64 {
	j := int((y - f.Origin.Y) / f.CellSize)
	if j < 1 || j >= f.Ny-1 {
		return 0
	}
	i0 := int((x0 - f.Origin.X) / f.CellSize)
	i1 := int((x1 - f.Origin.X) / f.CellSize)
	if i0 > i1 {
		i0, i1 = i1, i0
	}
	var q float64
	for i := max(i0, 0); i <= min(i1, f.Nx-1); i++ {
		idx := f.index(i, j)
		above := idx + f.Nx
		if !f.Mask[idx] || !f.Mask[above] {
			continue
		}
		q += f.kBase * f.faceG(idx, above) * (f.P[above] - f.P[idx])
	}
	return q
}

// ModuleFlows measures each module channel's flow from the field.
//
// The organ modules themselves are only tens of micrometres long —
// below the raster resolution — so a cut through the module lands in
// an unresolved junction cluster. Instead each module's inflow is
// measured on a control surface: the connection flux through a clean
// vertical cut in the gap before the module plus the supply flux
// through a horizontal cut across the gap-and-module band below the
// feed line (the serpentine's back-and-forth runs cancel, leaving the
// channel's net through-flow). By conservation their sum is the module
// channel flow — the same box construction the paper's Fig. 4 uses.
func (f *Field) ModuleFlows(d *core.Design) []float64 {
	out := make([]float64, len(d.Modules))
	w := float64(d.Resolved.ModuleWidth)
	offS := float64(d.SupplyOffset)
	spacing := float64(d.Resolved.Geometry.Spacing)
	vertW := 1.5 * float64(d.Resolved.Geometry.ChannelHeight)
	margin := w/2 + spacing + vertW/2

	for i, m := range d.Modules {
		inX := float64(m.InletX)
		outX := float64(m.OutletX)
		prevOut := 0.0
		if i > 0 {
			prevOut = float64(d.Modules[i-1].OutletX)
		}
		// Connection inflow: vertical cut halfway across the gap. The
		// band must fully cover the connection channel at y ≈ 0 but
		// stay clear of the meander-run footprints near ±margin (plus
		// one raster cell of anti-aliasing spill); half the margin is
		// comfortably inside.
		connX := (prevOut + inX) / 2
		qConn := f.FlowAcross(d, connX, -margin/2, margin/2)
		// Supply inflow: horizontal cut between the meander margin and
		// the feed line, across the gap + module band.
		qSup := f.FlowDownAcross(d, offS/2, prevOut+f.CellSize, outX)
		if offS/2 < margin { // extremely shallow offsets: cut above margin
			qSup = f.FlowDownAcross(d, (offS+margin)/2, prevOut+f.CellSize, outX)
		}
		out[i] = qConn + qSup
	}
	return out
}

// seedInitialGuess paints the designer-model pressure along every
// channel path into the grid. Node pressures are reconstructed by a
// BFS over the channel graph anchored at the outlet.
func seedInitialGuess(f *Field, d *core.Design, cell float64) {
	nodeP := map[string]float64{"outlet": 0}
	for changed := true; changed; {
		changed = false
		for _, c := range d.Channels {
			dp := float64(c.DesignPressureDrop)
			pf, okF := nodeP[c.From]
			pt, okT := nodeP[c.To]
			switch {
			case okF && !okT:
				nodeP[c.To] = pf - dp
				changed = true
			case okT && !okF:
				nodeP[c.From] = pt + dp
				changed = true
			}
		}
	}
	for _, c := range d.Channels {
		pf, ok := nodeP[c.From]
		if !ok {
			continue
		}
		dp := float64(c.DesignPressureDrop)
		total := float64(c.Length)
		if total <= 0 {
			continue
		}
		hw := float64(c.Cross.Width) / 2
		arc := 0.0
		pts := c.Path.Points
		for s := 1; s < len(pts); s++ {
			a, b := pts[s-1], pts[s]
			segLen := a.Distance(b)
			r := geometry.NewRect(a, b).Expand(hw)
			i0 := int(math.Floor((r.Min.X - f.Origin.X) / cell))
			i1 := int(math.Ceil((r.Max.X - f.Origin.X) / cell))
			j0 := int(math.Floor((r.Min.Y - f.Origin.Y) / cell))
			j1 := int(math.Ceil((r.Max.Y - f.Origin.Y) / cell))
			for j := max(j0, 0); j < min(j1, f.Ny); j++ {
				for i := max(i0, 0); i < min(i1, f.Nx); i++ {
					idx := f.index(i, j)
					if !f.Mask[idx] {
						continue
					}
					cx := f.Origin.X + (float64(i)+0.5)*cell
					cy := f.Origin.Y + (float64(j)+0.5)*cell
					if !r.Contains(geometry.Point{X: cx, Y: cy}) {
						continue
					}
					// Arc position of the projection onto the segment.
					// Segments are rectilinear with copied endpoint
					// coordinates, so orientation is exact equality.
					var along float64
					//ooclint:ignore floatcmp structural equality of copied coordinates
					if b.X != a.X {
						along = math.Abs(cx - a.X)
					} else {
						along = math.Abs(cy - a.Y)
					}
					if along > segLen {
						along = segLen
					}
					frac := (arc + along) / total
					f.P[idx] = pf - dp*frac
				}
			}
			arc += segLen
		}
	}
}

// wallFactor returns the exact-duct conductivity factor 1 − S(h/w)
// for a channel cross-section: the ratio of the exact rectangular-duct
// conductance to the parallel-plate conductance at equal width.
func wallFactor(cs fluid.CrossSection, mu units.Viscosity) float64 {
	w := float64(cs.Width)
	h := float64(cs.Height)
	exact, err := fluid.ResistanceExact(cs, units.Metres(1), mu)
	if err != nil {
		return 1
	}
	plate := 12 * float64(mu) / (h * h * h * w)
	return plate / float64(exact)
}

func max(a, b int) int {
	if a > b {
		return a
	}
	return b
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}
