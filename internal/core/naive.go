package core

import (
	"fmt"

	"ooc/internal/geometry"
)

// GenerateNaive builds the baseline design a naive (manual) designer
// would draw: the same modules, taps and channel dimensions as
// Generate, but WITHOUT pressure correction — every vertical supply
// and discharge channel is simply routed straight at the offset
// length, leaving Kirchhoff's voltage law unenforced.
//
// The paper has no algorithmic baseline (it is the first automation
// attempt; the status quo is manual design). This function represents
// that status quo: a topologically correct chip whose flow
// distribution is left to chance. Validating it against the
// specification quantifies what the paper's pressure-correction step
// is worth — see BenchmarkBaselineNaive and the EXPERIMENTS.md
// ablation table.
func GenerateNaive(spec Spec) (*Design, error) {
	res, err := Derive(spec)
	if err != nil {
		return nil, err
	}
	plan, err := PlanFlows(res)
	if err != nil {
		return nil, err
	}

	st, _ := newLayoutState(res)
	// Straight verticals at the minimum length that place sets for a
	// channel without a path — no meanders, no KVL.
	st.place()
	for i := 0; i < st.n; i++ {
		sup, err := straightTap(st.offS, st.pitch)
		if err != nil {
			return nil, fmt.Errorf("core: naive supply %d: %w", i, err)
		}
		st.supPath[i] = sup
		dis, err := straightTap(st.offD, st.pitch)
		if err != nil {
			return nil, fmt.Errorf("core: naive discharge %d: %w", i, err)
		}
		st.disPath[i] = dis
	}

	return assemble(res, plan, st, 1)
}

// straightTap is the minimal pinned-tap route: rise, one-pitch terminal
// run, final rise — the same local frame the meander synthesizer uses,
// with no added length.
func straightTap(height, pitch float64) (geometry.Polyline, error) {
	if height <= 2*pitch {
		return geometry.Polyline{}, fmt.Errorf("offset %g too small for a tap run", height)
	}
	return geometry.Polyline{Points: []geometry.Point{
		{X: 0, Y: 0},
		{X: 0, Y: height - pitch},
		{X: pitch, Y: height - pitch},
		{X: pitch, Y: height},
	}}, nil
}
