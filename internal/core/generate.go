package core

import (
	"context"
	"errors"
	"fmt"
	"math"
	"strconv"

	"ooc/internal/fluid"
	"ooc/internal/geometry"
	"ooc/internal/meander"
	"ooc/internal/units"
)

// debugTrace, when non-nil, is invoked once per correction iteration;
// tests use it to observe convergence behaviour.
var debugTrace func(iter int, st *layoutState, req *requiredPressures)

// maxGenerateIterations bounds the pressure/meander/offset correction
// loop. Real instances converge in well under a hundred iterations;
// the bound only guards against pathological specifications.
const maxGenerateIterations = 500

// convergenceTol is the relative change in channel lengths below which
// the correction loop is considered converged.
const convergenceTol = 1e-9

// growFactorOffset and growFactorGap control offset correction: when a
// meander does not fit, the offsets (and, more gently, the module
// gaps) grow until it does.
const (
	growFactorOffset = 1.3
	growFactorGap    = 1.15
)

// Generate runs the complete design automation pipeline of Sec. III-B:
// initialization, then pressure correction, meander insertion and
// offset correction iterated to a fixpoint.
func Generate(spec Spec) (*Design, error) {
	return GenerateContext(context.Background(), spec)
}

// GenerateContext is Generate with cooperative cancellation: the
// correction loop checks ctx between iterations, so a caller's
// deadline budget also covers design generation, not just validation.
func GenerateContext(ctx context.Context, spec Spec) (*Design, error) {
	res, err := Derive(spec)
	if err != nil {
		return nil, err
	}
	plan, err := PlanFlows(res)
	if err != nil {
		return nil, err
	}
	return realize(ctx, res, plan)
}

// layoutState carries the evolving geometry through the correction
// loop. All lengths in metres; module channel row on y = 0.
type layoutState struct {
	n          int
	pitch      float64 // vertical-channel pitch; also the pinned tap offset
	moduleLen  []float64
	gaps       []float64 // gaps[i] is the clear gap before module i; gaps[n] trails the last module
	xIn, xOut  []float64
	supTap     []float64 // supply-feed tap x per module
	disTap     []float64 // discharge-drain tap x per module
	offS, offD float64
	supLen     []float64 // achieved vertical supply lengths
	disLen     []float64
	supPath    []geometry.Polyline // local-frame meander paths
	disPath    []geometry.Polyline
}

// requiredPressures is the outcome of pressure correction: the target
// pressure gradients and lengths for the vertical channels.
type requiredPressures struct {
	supDP, disDP   []float64
	supLen, disLen []float64
}

// newLayoutState builds the starting layout shared by Generate and
// GenerateNaive: the vertical-channel pitch, the module lengths, the
// minimum gaps and the initial offsets. It also returns the margin by
// which meander runs must clear the module row.
func newLayoutState(res *Resolved) (*layoutState, float64) {
	n := len(res.Modules)
	geo := res.Geometry
	spacing := float64(geo.Spacing)
	vertW := float64(res.VerticalCrossSection().Width)
	moduleW := float64(res.ModuleWidth)
	pitch := vertW + spacing
	// Runs must clear the module row and the feed channel bodies (both
	// moduleW wide) by the design rule.
	margin := moduleW/2 + spacing + vertW/2

	st := &layoutState{
		n:         n,
		pitch:     pitch,
		moduleLen: make([]float64, n),
		gaps:      make([]float64, n+1),
		xIn:       make([]float64, n),
		xOut:      make([]float64, n),
		supTap:    make([]float64, n),
		disTap:    make([]float64, n),
		supLen:    make([]float64, n),
		disLen:    make([]float64, n),
		supPath:   make([]geometry.Polyline, n),
		disPath:   make([]geometry.Polyline, n),
	}
	for i, m := range res.Modules {
		st.moduleLen[i] = float64(m.Length)
	}
	minGap := math.Max(float64(geo.MinGap), spacing+2*pitch)
	for i := range st.gaps {
		st.gaps[i] = minGap
	}
	minOffset := 2*margin + 2*pitch
	st.offS = math.Max(float64(geo.InitialOffset), minOffset)
	st.offD = st.offS
	return st, margin
}

func realize(ctx context.Context, res *Resolved, plan *FlowPlan) (*Design, error) {
	st, margin := newLayoutState(res)
	var converged bool
	iter := 0
	for ; iter < maxGenerateIterations; iter++ {
		if err := ctx.Err(); err != nil {
			return nil, fmt.Errorf("core: generating %q: %w", res.Spec.Name, err)
		}
		st.place()
		req, err := pressureCorrect(res, plan, st)
		if err != nil {
			return nil, err
		}
		if debugTrace != nil {
			debugTrace(iter, st, req)
		}
		// Converged when the requirements recomputed from the *current*
		// geometry (including meander tap positions) match what the
		// previous iteration synthesized.
		if st.hasPaths() && st.converged(req) {
			converged = true
			break
		}
		grown, err := insertMeanders(res, st, req, margin)
		if err != nil {
			return nil, err
		}
		if grown {
			continue // offsets/gaps changed; redo pressure correction
		}
	}
	if !converged {
		return nil, fmt.Errorf("core: design %q did not converge within %d iterations",
			res.Spec.Name, maxGenerateIterations)
	}

	return assemble(res, plan, st, iter+1)
}

// place recomputes module positions from the current gaps, and seeds
// tap positions for channels that have no meander yet.
func (st *layoutState) place() {
	x := 0.0
	for i := 0; i < st.n; i++ {
		x += st.gaps[i]
		st.xIn[i] = x
		x += st.moduleLen[i]
		st.xOut[i] = x
	}
	// Taps are pinned one pitch away from the module attachment points
	// (see insertMeanders), making the feed/drain segment lengths
	// functions of the placement alone.
	for i := 0; i < st.n; i++ {
		st.supTap[i] = st.xIn[i] - st.pitch
		st.disTap[i] = st.xOut[i] + st.pitch
		if st.supPath[i].Points == nil {
			st.supLen[i] = st.offS + st.pitch
		}
		if st.disPath[i].Points == nil {
			st.disLen[i] = st.offD + st.pitch
		}
	}
}

// hasPaths reports whether every vertical channel has a synthesized
// route from a previous iteration.
func (st *layoutState) hasPaths() bool {
	for i := 0; i < st.n; i++ {
		if st.supPath[i].Points == nil || st.disPath[i].Points == nil {
			return false
		}
	}
	return true
}

// converged reports whether the achieved vertical lengths match the
// required ones.
func (st *layoutState) converged(req *requiredPressures) bool {
	for i := 0; i < st.n; i++ {
		scale := math.Max(st.supLen[i], req.supLen[i])
		if math.Abs(st.supLen[i]-req.supLen[i]) > convergenceTol*scale {
			return false
		}
		scale = math.Max(st.disLen[i], req.disLen[i])
		if math.Abs(st.disLen[i]-req.disLen[i]) > convergenceTol*scale {
			return false
		}
	}
	return true
}

// feedSegLen returns the supply-feed segment length arriving at tap i
// (i ≥ 1), using the current tap positions.
func (st *layoutState) feedSegLen(i int) float64 { return st.supTap[i] - st.supTap[i-1] }

// drainSegLen returns the discharge-drain segment length leaving tap i
// (i ≥ 1).
func (st *layoutState) drainSegLen(i int) float64 { return st.disTap[i] - st.disTap[i-1] }

// pressureCorrect implements Sec. III-B-2: choose vertical channel
// pressure gradients so that every supply and discharge cycle
// satisfies Kirchhoff's voltage law, with all lengths at or above the
// geometric minimum (the offset).
func pressureCorrect(res *Resolved, plan *FlowPlan, st *layoutState) (*requiredPressures, error) {
	n := st.n
	mu := res.Spec.Fluid.Viscosity
	vertCS := res.VerticalCrossSection()
	modCS := res.ModuleCrossSection()
	feedCS := res.FeedCrossSection()

	// Per-metre resistances under the designer's model (Eq. 6).
	rVert, err := fluid.ResistanceApprox(vertCS, units.Metres(1), mu)
	if err != nil {
		return nil, err
	}
	rMod, err := fluid.ResistanceApprox(modCS, units.Metres(1), mu)
	if err != nil {
		return nil, err
	}
	rFeed, err := fluid.ResistanceApprox(feedCS, units.Metres(1), mu)
	if err != nil {
		return nil, err
	}

	dpModule := func(i int) float64 {
		return float64(rMod) * st.moduleLen[i] * float64(plan.Module[i])
	}
	dpConn := func(i int) float64 {
		return float64(rVert) * st.gaps[i] * float64(plan.Connection[i])
	}
	dpFeed := func(i int) float64 {
		return float64(rFeed) * st.feedSegLen(i) * float64(plan.SupplyFeed[i])
	}
	dpDrain := func(i int) float64 {
		return float64(rFeed) * st.drainSegLen(i) * float64(plan.DischargeDrain[i])
	}

	req := &requiredPressures{
		supDP:  make([]float64, n),
		disDP:  make([]float64, n),
		supLen: make([]float64, n),
		disLen: make([]float64, n),
	}

	// Supply side: the base channel s_0 sits at the geometric minimum.
	// With pinned taps every vertical channel carries at least one
	// pitch of terminal run on top of the offset, so the minimum
	// length is offS + pitch. Then the cycle recursion
	// ΔP(s_{i+1}) = ΔP(s_i) + ΔP(m_i) + ΔP(c_{i+1}) − ΔP(sf_{i+1}).
	minSupLen := st.offS + st.pitch
	req.supDP[0] = float64(rVert) * minSupLen * float64(plan.Supply[0])
	for i := 0; i+1 < n; i++ {
		req.supDP[i+1] = req.supDP[i] + dpModule(i) + dpConn(i+1) - dpFeed(i+1)
	}
	// If any channel would need to be shorter than the offset allows,
	// raise the whole profile (the paper's "make all channels of the
	// succeeding modules longer", applied from the base).
	var deficit float64
	for i := 0; i < n; i++ {
		min := float64(rVert) * minSupLen * float64(plan.Supply[i])
		if d := min - req.supDP[i]; d > deficit {
			deficit = d
		}
	}
	for i := 0; i < n; i++ {
		req.supDP[i] += deficit
		req.supLen[i] = req.supDP[i] / (float64(rVert) * float64(plan.Supply[i]))
	}

	// Discharge side: base channel d_{n-1} straight at the offset, then
	// ΔP(d_i) = ΔP(d_{i+1}) + ΔP(m_{i+1}) + ΔP(c_{i+1}) + ΔP(dd_{i+1})
	// iterating backwards.
	minDisLen := st.offD + st.pitch
	req.disDP[n-1] = float64(rVert) * minDisLen * float64(plan.Discharge[n-1])
	for i := n - 2; i >= 0; i-- {
		req.disDP[i] = req.disDP[i+1] + dpModule(i+1) + dpConn(i+1) + dpDrain(i+1)
	}
	deficit = 0
	for i := 0; i < n; i++ {
		min := float64(rVert) * minDisLen * float64(plan.Discharge[i])
		if d := min - req.disDP[i]; d > deficit {
			deficit = d
		}
	}
	for i := 0; i < n; i++ {
		req.disDP[i] += deficit
		req.disLen[i] = req.disDP[i] / (float64(rVert) * float64(plan.Discharge[i]))
	}
	return req, nil
}

// insertMeanders synthesizes the vertical channels at their required
// lengths (Sec. III-B-3). When a meander does not fit it applies
// offset correction (Sec. III-B-4) — growing the offset of the failing
// side and, more gently, all module gaps — and reports grown = true so
// the caller reruns pressure correction.
func insertMeanders(res *Resolved, st *layoutState, req *requiredPressures, margin float64) (grown bool, err error) {
	spacing := float64(res.Geometry.Spacing)
	vertW := float64(res.VerticalCrossSection().Width)

	boxWidth := func(gap float64) float64 { return gap - spacing - vertW }

	synth := func(off, target, box float64) (meander.Result, error) {
		return meander.Synthesize(meander.Spec{
			Height:       off,
			TargetLength: target,
			ChannelWidth: vertW,
			Spacing:      spacing,
			MaxWidth:     box,
			Margin:       margin,
			EndX:         st.pitch,
		})
	}

	growGaps := func() {
		for i := range st.gaps {
			st.gaps[i] *= growFactorGap
		}
	}

	for i := 0; i < st.n; i++ {
		// Supply meander lives in the gap before module i, mirrored to
		// grow in −x from the module inlet.
		r, err := synth(st.offS, req.supLen[i], boxWidth(st.gaps[i]))
		if errors.Is(err, meander.ErrDoesNotFit) {
			st.offS *= growFactorOffset
			growGaps()
			st.resetPaths()
			return true, nil
		}
		if err != nil {
			return false, fmt.Errorf("core: supply meander %d: %w", i, err)
		}
		st.supPath[i] = r.Path
		st.supLen[i] = r.Length
		st.supTap[i] = st.xIn[i] - r.EndX

		// Discharge meander lives in the gap after module i, growing in
		// +x from the module outlet (and downwards in y).
		r, err = synth(st.offD, req.disLen[i], boxWidth(st.gaps[i+1]))
		if errors.Is(err, meander.ErrDoesNotFit) {
			st.offD *= growFactorOffset
			growGaps()
			st.resetPaths()
			return true, nil
		}
		if err != nil {
			return false, fmt.Errorf("core: discharge meander %d: %w", i, err)
		}
		st.disPath[i] = r.Path
		st.disLen[i] = r.Length
		st.disTap[i] = st.xOut[i] + r.EndX
	}
	return false, nil
}

// resetPaths clears synthesized meanders after a geometry change so
// that place() reseeds straight taps.
func (st *layoutState) resetPaths() {
	for i := 0; i < st.n; i++ {
		st.supPath[i] = geometry.Polyline{}
		st.disPath[i] = geometry.Polyline{}
	}
}

// assemble builds the final Design from the converged layout.
func assemble(res *Resolved, plan *FlowPlan, st *layoutState, iterations int) (*Design, error) {
	n := st.n
	geo := res.Geometry
	mu := res.Spec.Fluid.Viscosity
	vertCS := res.VerticalCrossSection()
	modCS := res.ModuleCrossSection()
	feedCS := res.FeedCrossSection()
	lead := float64(geo.LeadLength)

	// Node names, built once per module index: F<i> and D<i> are the
	// supply-feed and discharge-drain taps, Min<i> and Mout<i> the
	// module ports.
	feedTap := make([]string, n)
	modIn := make([]string, n)
	modOut := make([]string, n)
	drainTap := make([]string, n)
	for i := 0; i < n; i++ {
		idx := strconv.Itoa(i)
		feedTap[i] = "F" + idx
		modIn[i] = "Min" + idx
		modOut[i] = "Mout" + idx
		drainTap[i] = "D" + idx
	}

	// Two leads plus n−1 feed and n−1 drain segments, and n each of
	// supply, module, connection and discharge channels.
	channels := make([]Channel, 0, 6*n)
	addChannel := func(name string, kind ChannelKind, idx int, cs fluid.CrossSection,
		path geometry.Polyline, q units.FlowRate, from, to string) error {
		length := units.Length(path.Length())
		r, err := fluid.ResistanceApprox(cs, length, mu)
		if err != nil {
			return fmt.Errorf("core: channel %q: %w", name, err)
		}
		channels = append(channels, Channel{
			Name:               name,
			Kind:               kind,
			Index:              idx,
			Cross:              cs,
			Path:               path,
			Length:             length,
			From:               from,
			To:                 to,
			DesignFlow:         q,
			DesignResistance:   r,
			DesignPressureDrop: r.PressureDrop(q),
		})
		return nil
	}
	line := func(x0, y0, x1, y1 float64) geometry.Polyline {
		return geometry.Polyline{Points: []geometry.Point{{X: x0, Y: y0}, {X: x1, Y: y1}}}
	}

	// Inlet lead and supply feed segments (y = +offS).
	if err := addChannel("inlet-lead", InletLead, 0, feedCS,
		line(st.supTap[0]-lead, st.offS, st.supTap[0], st.offS),
		plan.SupplyFeed[0], "inlet", feedTap[0]); err != nil {
		return nil, err
	}
	for i := 1; i < n; i++ {
		if err := addChannel("feed-"+strconv.Itoa(i), FeedSegment, i, feedCS,
			line(st.supTap[i-1], st.offS, st.supTap[i], st.offS),
			plan.SupplyFeed[i], feedTap[i-1], feedTap[i]); err != nil {
			return nil, err
		}
	}

	// Vertical supply channels: local meander frame is mirrored in x
	// (meanders grow into the gap, i.e. −x) and attached at the module
	// inlet.
	for i := 0; i < n; i++ {
		world := mirrorTranslate(st.supPath[i], st.xIn[i], 1, true)
		if err := addChannel("supply-"+strconv.Itoa(i), SupplyChannel, i, vertCS,
			reverse(world), plan.Supply[i], feedTap[i], modIn[i]); err != nil {
			return nil, err
		}
	}

	// Module channels along y = 0.
	for i := 0; i < n; i++ {
		if err := addChannel("module-"+strconv.Itoa(i), ModuleChannel, i, modCS,
			line(st.xIn[i], 0, st.xOut[i], 0),
			plan.Module[i], modIn[i], modOut[i]); err != nil {
			return nil, err
		}
	}

	// Connection channels: c_0 from the recirculation inlet, then
	// between consecutive modules.
	if err := addChannel("connection-0", ConnectionChannel, 0, vertCS,
		line(st.xIn[0]-st.gaps[0], 0, st.xIn[0], 0),
		plan.Connection[0], "cin", modIn[0]); err != nil {
		return nil, err
	}
	for i := 1; i < n; i++ {
		if err := addChannel("connection-"+strconv.Itoa(i), ConnectionChannel, i, vertCS,
			line(st.xOut[i-1], 0, st.xIn[i], 0),
			plan.Connection[i], modOut[i-1], modIn[i]); err != nil {
			return nil, err
		}
	}

	// Vertical discharge channels: local frame flipped in y (grow
	// downwards), attached at the module outlet.
	for i := 0; i < n; i++ {
		world := mirrorTranslate(st.disPath[i], st.xOut[i], -1, false)
		if err := addChannel("discharge-"+strconv.Itoa(i), DischargeChannel, i, vertCS,
			world, plan.Discharge[i], modOut[i], drainTap[i]); err != nil {
			return nil, err
		}
	}

	// Discharge drain segments (y = −offD) flowing towards the outlet.
	for i := 1; i < n; i++ {
		if err := addChannel("drain-"+strconv.Itoa(i), DrainSegment, i, feedCS,
			line(st.disTap[i], -st.offD, st.disTap[i-1], -st.offD),
			plan.DischargeDrain[i], drainTap[i], drainTap[i-1]); err != nil {
			return nil, err
		}
	}
	if err := addChannel("outlet-lead", OutletLead, 0, feedCS,
		line(st.disTap[0], -st.offD, st.disTap[0]-lead, -st.offD),
		plan.DischargeDrain[0], drainTap[0], "outlet"); err != nil {
		return nil, err
	}

	inlet, outlet, recirc := plan.Pumps()
	modules := make([]PlacedModule, n)
	for i, m := range res.Modules {
		modules[i] = PlacedModule{
			Module:  m,
			InletX:  units.Length(st.xIn[i]),
			OutletX: units.Length(st.xOut[i]),
		}
	}

	bounds := channels[0].Path.Bounds(float64(channels[0].Cross.Width))
	for _, c := range channels[1:] {
		bounds = bounds.Union(c.Path.Bounds(float64(c.Cross.Width)))
	}

	return &Design{
		Name:            res.Spec.Name,
		Resolved:        res,
		Plan:            plan,
		Modules:         modules,
		Channels:        channels,
		Pumps:           PumpSettings{Inlet: inlet, Outlet: outlet, Recirculation: recirc},
		SupplyOffset:    units.Length(st.offS),
		DischargeOffset: units.Length(st.offD),
		Iterations:      iterations,
		Bounds:          bounds,
	}, nil
}

// mirrorTranslate maps a local meander path (origin at the module
// attachment, +x into the gap, +y towards the feed) into world
// coordinates. mirrorX selects −x growth (supply side); ySign −1 flips
// the path below the module row (discharge side).
func mirrorTranslate(p geometry.Polyline, xAttach, ySign float64, mirrorX bool) geometry.Polyline {
	pts := make([]geometry.Point, len(p.Points))
	for i, pt := range p.Points {
		x := pt.X
		if mirrorX {
			x = -x
		}
		pts[i] = geometry.Point{X: xAttach + x, Y: ySign * pt.Y}
	}
	return geometry.Polyline{Points: pts}
}

// reverse flips a polyline's direction so the stored path runs with
// the design flow (feed → module for supply channels).
func reverse(p geometry.Polyline) geometry.Polyline {
	pts := make([]geometry.Point, len(p.Points))
	for i, pt := range p.Points {
		pts[len(pts)-1-i] = pt
	}
	return geometry.Polyline{Points: pts}
}
