package meander

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

// typicalSpec is a representative supply-channel meander problem:
// 225 µm wide channel, 0.5 mm spacing, 5 mm offset, 4 mm box.
func typicalSpec(target float64) Spec {
	return Spec{
		Height:       5e-3,
		TargetLength: target,
		ChannelWidth: 225e-6,
		Spacing:      0.5e-3,
		MaxWidth:     4e-3,
	}
}

func TestStraightChannel(t *testing.T) {
	s := typicalSpec(5e-3)
	r, err := Synthesize(s)
	if err != nil {
		t.Fatal(err)
	}
	if r.Legs != 0 || r.EndX != 0 {
		t.Fatalf("straight channel expected, got legs=%d endX=%g", r.Legs, r.EndX)
	}
	if len(r.Path.Points) != 2 {
		t.Fatalf("straight channel should be a single segment, got %d points", len(r.Path.Points))
	}
	if math.Abs(r.Length-5e-3) > 1e-12 {
		t.Fatalf("length %g", r.Length)
	}
}

func TestExactLengthAcrossRange(t *testing.T) {
	// The synthesizer must achieve the target exactly over a dense
	// range of targets — no quantization dead zones.
	base := typicalSpec(0)
	maxLen := MaxLength(base)
	for i := 0; i <= 400; i++ {
		target := base.Height + (maxLen-base.Height)*float64(i)/400
		s := base
		s.TargetLength = target
		r, err := Synthesize(s)
		if err != nil {
			t.Fatalf("target %g: %v", target, err)
		}
		if math.Abs(r.Length-target) > 1e-9*target {
			t.Fatalf("target %g: achieved %g", target, r.Length)
		}
	}
}

func TestPathInvariants(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		s := Spec{
			Height:       (2 + rng.Float64()*8) * 1e-3,
			ChannelWidth: (100 + rng.Float64()*400) * 1e-6,
			Spacing:      (0.3 + rng.Float64()*1.2) * 1e-3,
			MaxWidth:     (1 + rng.Float64()*5) * 1e-3,
		}
		capacity := MaxLength(s)
		s.TargetLength = s.Height + rng.Float64()*(capacity-s.Height)*0.95
		r, err := Synthesize(s)
		if err != nil {
			// Levels near capacity may be infeasible when the terminal
			// run needs its own level; only accept ErrDoesNotFit.
			return errors.Is(err, ErrDoesNotFit)
		}
		// Invariants: starts at origin, ends on the feed line, stays in
		// the box, rectilinear, not self-intersecting, exact length.
		pts := r.Path.Points
		if pts[0] != (struct{ X, Y float64 }{0, 0}) && (pts[0].X != 0 || pts[0].Y != 0) {
			return false
		}
		last := pts[len(pts)-1]
		//ooclint:ignore floatcmp generated endpoints copy spec coordinates verbatim
		if last.Y != s.Height || last.X < 0 || last.X > s.MaxWidth+1e-15 {
			return false
		}
		if !r.Path.IsRectilinear() || r.Path.SelfIntersects() {
			return false
		}
		if err := r.Path.Validate(); err != nil {
			return false
		}
		for _, p := range pts {
			if p.X < -1e-15 || p.X > s.MaxWidth+1e-12 || p.Y < -1e-15 || p.Y > s.Height+1e-15 {
				return false
			}
		}
		return math.Abs(r.Length-s.TargetLength) <= 1e-9*s.TargetLength
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestRunSpacingRespectsPitch(t *testing.T) {
	s := typicalSpec(20e-3) // long meander, several runs
	r, err := Synthesize(s)
	if err != nil {
		t.Fatal(err)
	}
	if r.Legs < 2 {
		t.Fatalf("expected a real serpentine, got %d legs", r.Legs)
	}
	// Collect distinct horizontal run levels and check pitch.
	var levels []float64
	pts := r.Path.Points
	for i := 1; i < len(pts); i++ {
		//ooclint:ignore floatcmp structural equality of copied coordinates
		if pts[i].Y == pts[i-1].Y && pts[i].X != pts[i-1].X {
			levels = append(levels, pts[i].Y)
		}
	}
	pitch := s.ChannelWidth + s.Spacing
	for i := 1; i < len(levels); i++ {
		if d := levels[i] - levels[i-1]; d < pitch-1e-12 {
			t.Fatalf("run levels %d,%d only %g apart (pitch %g)", i-1, i, d, pitch)
		}
	}
	// Margins to the module row and the feed line.
	margin := s.ChannelWidth/2 + s.Spacing
	if levels[0] < margin-1e-12 {
		t.Fatalf("first run %g violates bottom margin %g", levels[0], margin)
	}
	if levels[len(levels)-1] > s.Height-margin+1e-12 {
		t.Fatalf("last run violates top margin")
	}
}

func TestAmplitudeRespectsDesignRules(t *testing.T) {
	s := typicalSpec(12e-3)
	r, err := Synthesize(s)
	if err != nil {
		t.Fatal(err)
	}
	if r.Legs == 0 {
		t.Skip("no serpentine runs for this target")
	}
	// All x coordinates are either 0 or the amplitude (plus the tap);
	// the amplitude must be ≥ pitch.
	var amp float64
	for _, p := range r.Path.Points {
		if p.X > amp {
			amp = p.X
		}
	}
	if amp < s.ChannelWidth+s.Spacing {
		t.Fatalf("amplitude %g below pitch", amp)
	}
	if amp > s.MaxWidth+1e-12 {
		t.Fatalf("amplitude %g exceeds box width %g", amp, s.MaxWidth)
	}
}

// wantDoesNotFit fails unless err is ErrDoesNotFit and reads as
// fmt.Errorf formats the misfit message for s.
func wantDoesNotFit(t *testing.T, err error, s Spec) {
	t.Helper()
	want := fmt.Errorf("%w: extra length %g exceeds capacity %g (height %g, box width %g)",
		ErrDoesNotFit, s.TargetLength-s.Height, MaxLength(s)-s.Height, s.Height, s.MaxWidth)
	if s.maxRunLevels() < 1 {
		want = fmt.Errorf("%w: height %g leaves no room for a run between margins", ErrDoesNotFit, s.Height)
	}
	if !errors.Is(err, ErrDoesNotFit) || err.Error() != want.Error() {
		t.Fatalf("got %v, want %v", err, want)
	}
}

func TestDoesNotFit(t *testing.T) {
	s := typicalSpec(0)
	s.TargetLength = MaxLength(s) * 3
	_, err := Synthesize(s)
	wantDoesNotFit(t, err, s)

	// A height below both margins leaves no run level at all.
	s = typicalSpec(2e-3)
	s.Height = 1e-3
	_, err = Synthesize(s)
	wantDoesNotFit(t, err, s)
}

func TestGrowingTheBoxFixesDoesNotFit(t *testing.T) {
	// Offset correction's contract: when a meander does not fit,
	// increasing Height (the offset) makes it fit.
	s := typicalSpec(0)
	s.TargetLength = MaxLength(s) * 1.5
	_, err := Synthesize(s)
	wantDoesNotFit(t, err, s)
	for grow := 0; grow < 50; grow++ {
		s.Height *= 1.25
		if s.TargetLength < s.Height {
			s.TargetLength = s.Height
		}
		if r, err := Synthesize(s); err == nil {
			if math.Abs(r.Length-s.TargetLength) > 1e-9*s.TargetLength {
				t.Fatalf("length mismatch after growth")
			}
			return
		}
	}
	t.Fatal("growing the box never made the meander fit")
}

func TestSpecValidation(t *testing.T) {
	bad := []Spec{
		{Height: 0, TargetLength: 1, ChannelWidth: 1e-4, Spacing: 1e-4, MaxWidth: 1e-3},
		{Height: 1e-3, TargetLength: 1e-3, ChannelWidth: 0, Spacing: 1e-4, MaxWidth: 1e-3},
		{Height: 1e-3, TargetLength: 1e-3, ChannelWidth: 1e-4, Spacing: -1, MaxWidth: 1e-3},
		{Height: 1e-3, TargetLength: 1e-3, ChannelWidth: 1e-4, Spacing: 1e-4, MaxWidth: 0},
		{Height: 2e-3, TargetLength: 1e-3, ChannelWidth: 1e-4, Spacing: 1e-4, MaxWidth: 1e-3}, // target < span
	}
	for i, s := range bad {
		if _, err := Synthesize(s); err == nil {
			t.Errorf("case %d: invalid spec accepted", i)
		}
	}
}

func TestMaxLengthIsAchievableApproximately(t *testing.T) {
	// 90 % of the reported capacity must be synthesizable.
	s := typicalSpec(0)
	s.TargetLength = s.Height + (MaxLength(s)-s.Height)*0.9
	if _, err := Synthesize(s); err != nil {
		t.Fatalf("90%% of capacity not achievable: %v", err)
	}
}

func TestTerminalRunOnlySmallExtra(t *testing.T) {
	// A tiny extra length is realized by sliding the tap, not by a
	// full serpentine.
	s := typicalSpec(5.3e-3) // 0.3 mm extra, below one pitch*2
	r, err := Synthesize(s)
	if err != nil {
		t.Fatal(err)
	}
	if r.Legs != 0 {
		t.Fatalf("expected terminal-run-only route, got %d legs", r.Legs)
	}
	if math.Abs(r.EndX-0.3e-3) > 1e-12 {
		t.Fatalf("tap at %g, want 0.3 mm", r.EndX)
	}
}

func TestNarrowBoxFallsBackToTerminalRun(t *testing.T) {
	s := Spec{
		Height:       5e-3,
		TargetLength: 5.2e-3,
		ChannelWidth: 225e-6,
		Spacing:      0.5e-3,
		MaxWidth:     0.4e-3, // below one pitch
	}
	r, err := Synthesize(s)
	if err != nil {
		t.Fatal(err)
	}
	if r.Legs != 0 || math.Abs(r.Length-5.2e-3) > 1e-12 {
		t.Fatalf("legs=%d length=%g", r.Legs, r.Length)
	}
	s.TargetLength = 6e-3 // 1 mm extra cannot fit in a 0.4 mm box
	_, err = Synthesize(s)
	wantDoesNotFit(t, err, s)
}

func TestBendsCountedForValidator(t *testing.T) {
	s := typicalSpec(25e-3)
	r, err := Synthesize(s)
	if err != nil {
		t.Fatal(err)
	}
	bends := r.Path.Bends()
	// A serpentine with n legs has 2 bends per leg (in and out).
	if bends < 2*r.Legs {
		t.Fatalf("bends %d < 2×legs %d", bends, r.Legs)
	}
}

// TestPinnedTapExactLengths: with a pinned tap (the mode the designer
// uses) every target with extra ≥ EndX is exactly realizable, and the
// tap lands exactly at EndX.
func TestPinnedTapExactLengths(t *testing.T) {
	base := Spec{
		Height:       8e-3,
		ChannelWidth: 225e-6,
		Spacing:      1e-3,
		MaxWidth:     5e-3,
		Margin:       1.6e-3,
		EndX:         1.225e-3, // one pitch
	}
	maxLen := MaxLength(base)
	for i := 0; i <= 300; i++ {
		s := base
		s.TargetLength = s.Height + s.EndX + (maxLen-s.Height-s.EndX)*float64(i)/300*0.85
		r, err := Synthesize(s)
		if err != nil {
			t.Fatalf("target %g: %v", s.TargetLength, err)
		}
		if math.Abs(r.Length-s.TargetLength) > 1e-9*s.TargetLength {
			t.Fatalf("target %g: achieved %g", s.TargetLength, r.Length)
		}
		if math.Abs(r.EndX-s.EndX) > 1e-12 {
			t.Fatalf("target %g: tap at %g, want pinned %g", s.TargetLength, r.EndX, s.EndX)
		}
		if r.Path.SelfIntersects() {
			t.Fatalf("target %g: self-intersection", s.TargetLength)
		}
	}
}

func TestPinnedTapValidation(t *testing.T) {
	s := Spec{
		Height: 5e-3, TargetLength: 5e-3, ChannelWidth: 225e-6,
		Spacing: 1e-3, MaxWidth: 4e-3, EndX: 1e-3,
	}
	// Target below Height+EndX is unrealizable with a pinned tap.
	if _, err := Synthesize(s); err == nil {
		t.Fatal("target below minimum accepted for pinned tap")
	}
	s.EndX = -1
	if _, err := Synthesize(s); err == nil {
		t.Fatal("negative EndX accepted")
	}
	s.EndX = 10e-3 // beyond the box
	if _, err := Synthesize(s); err == nil {
		t.Fatal("EndX outside box accepted")
	}
}

// TestPinnedOddRunsOutward: odd run counts with a < EndX use the
// outward terminal branch (a < E requires E > pitch).
func TestPinnedOddRunsOutward(t *testing.T) {
	s := Spec{
		Height:       8e-3,
		ChannelWidth: 225e-6,
		Spacing:      0.5e-3,
		MaxWidth:     5e-3,
		Margin:       1.6e-3,
		EndX:         2.5e-3, // well above pitch (0.725 mm)
	}
	// Sweep a fine range; some targets exercise the a < E branch.
	for i := 0; i <= 200; i++ {
		s.TargetLength = s.Height + s.EndX + float64(i)*0.1e-3
		r, err := Synthesize(s)
		if err != nil {
			continue // capacity edge is fine
		}
		if math.Abs(r.Length-s.TargetLength) > 1e-9*s.TargetLength {
			t.Fatalf("target %g: achieved %g", s.TargetLength, r.Length)
		}
		if math.Abs(r.EndX-s.EndX) > 1e-12 {
			t.Fatalf("tap not pinned at %g", s.EndX)
		}
	}
}

func TestMaxLengthConsistency(t *testing.T) {
	s := Spec{
		Height: 6e-3, ChannelWidth: 225e-6, Spacing: 1e-3,
		MaxWidth: 4e-3, Margin: 1.6e-3,
	}
	capacity := MaxLength(s)
	if capacity <= s.Height {
		t.Fatal("capacity must exceed the straight span")
	}
	// Beyond capacity always fails.
	s.TargetLength = capacity * 1.3
	_, err := Synthesize(s)
	wantDoesNotFit(t, err, s)
}
