// Package meander synthesizes rectilinear meander (serpentine) channel
// routes. The OoC designer's pressure-correction step assigns each
// vertical supply/discharge channel a required length; meander
// insertion (Sec. III-B-3 of the paper, after Grimmer et al.'s Meander
// Designer [5]) realizes that length inside the space between the
// module row and the supply-feed/discharge-drain channel.
//
// A route starts at the module attachment point, local coordinates
// (0, 0), and ends on the feed line y = Height at some x ≥ 0 chosen by
// the synthesizer. Because the feed is a horizontal channel, the end
// tap may slide along it; this extra degree of freedom makes any
// target length in range exactly realizable (no length quantization),
// which in turn lets the designer satisfy Kirchhoff's voltage law
// exactly under its own resistance model.
package meander

import (
	"errors"
	"fmt"
	"math"

	"ooc/internal/geometry"
)

// ErrDoesNotFit is returned when no meander with the requested length
// fits in the available box; the caller (offset correction) must grow
// the box.
var ErrDoesNotFit = errors.New("meander: target length does not fit in the available box")

// doesNotFitError is the ErrDoesNotFit that Synthesize returns for a
// spec. It formats the numbers only in Error: offset correction takes
// a misfit as the signal to grow the box and drops the error, several
// times per design, so nobody reads the text.
type doesNotFitError struct{ s Spec }

func (e *doesNotFitError) Error() string {
	s := e.s
	if s.maxRunLevels() < 1 {
		return fmt.Sprintf("%v: height %g leaves no room for a run between margins", ErrDoesNotFit, s.Height)
	}
	return fmt.Sprintf("%v: extra length %g exceeds capacity %g (height %g, box width %g)",
		ErrDoesNotFit, s.TargetLength-s.Height, MaxLength(s)-s.Height, s.Height, s.MaxWidth)
}

func (e *doesNotFitError) Unwrap() error { return ErrDoesNotFit }

// Spec describes one meander synthesis problem. All lengths in metres.
type Spec struct {
	// Height is the straight-line span between the module row and the
	// feed/drain line (the supply or discharge offset).
	Height float64
	// TargetLength is the required centreline length, ≥ Height.
	TargetLength float64
	// ChannelWidth is the channel's physical width.
	ChannelWidth float64
	// Spacing is the minimum clearance between parallel channel walls
	// (the paper's evaluation sweeps 0.5, 1.0, 1.5 mm).
	Spacing float64
	// MaxWidth is the horizontal extent available for the meander,
	// measured from the attachment line in +x.
	MaxWidth float64
	// Margin is the minimum distance of horizontal runs from the box
	// edges y = 0 and y = Height. Zero selects ChannelWidth/2 + Spacing;
	// callers raise it when the lines at the box edges are wider than
	// this channel (e.g. the 1 mm module row vs. a 225 µm meander).
	Margin float64
	// EndX, when positive, pins the tap at exactly this x instead of
	// letting the synthesizer slide it. With EndX = pitch every target
	// length with extra ≥ pitch remains continuously realizable, and a
	// pinned tap makes the designer's feed-segment lengths constants —
	// which is what keeps the pressure/meander correction loop from
	// oscillating. TargetLength − Height must be ≥ EndX.
	EndX float64
}

// Result is a synthesized meander route.
type Result struct {
	// Path runs from (0, 0) to (EndX, Height); rectilinear.
	Path geometry.Polyline
	// Length is the achieved centreline length (equals the target up
	// to floating-point rounding).
	Length float64
	// EndX is where the route taps the feed line.
	EndX float64
	// Legs is the number of full serpentine runs (excluding the
	// terminal adjustment run).
	Legs int
}

// relTol is the relative length tolerance below which a channel is
// routed straight.
const relTol = 1e-9

// Validate checks the spec for basic sanity.
func (s Spec) Validate() error {
	if s.Height <= 0 {
		return fmt.Errorf("meander: non-positive height %g", s.Height)
	}
	if s.ChannelWidth <= 0 {
		return fmt.Errorf("meander: non-positive channel width %g", s.ChannelWidth)
	}
	if s.Spacing < 0 {
		return fmt.Errorf("meander: negative spacing %g", s.Spacing)
	}
	if s.MaxWidth <= 0 {
		return fmt.Errorf("meander: non-positive box width %g", s.MaxWidth)
	}
	if s.Margin < 0 {
		return fmt.Errorf("meander: negative margin %g", s.Margin)
	}
	if s.TargetLength < s.Height*(1-relTol) {
		return fmt.Errorf("meander: target length %g below straight span %g", s.TargetLength, s.Height)
	}
	if s.EndX < 0 {
		return fmt.Errorf("meander: negative pinned tap position %g", s.EndX)
	}
	if s.EndX > s.MaxWidth {
		return fmt.Errorf("meander: pinned tap %g outside box width %g", s.EndX, s.MaxWidth)
	}
	if s.EndX > 0 && s.TargetLength < s.Height+s.EndX*(1-relTol) {
		return fmt.Errorf("meander: target length %g below minimum %g for pinned tap %g",
			s.TargetLength, s.Height+s.EndX, s.EndX)
	}
	return nil
}

// pitch returns the minimum centreline distance between parallel rails.
func (s Spec) pitch() float64 { return s.ChannelWidth + s.Spacing }

// margin returns the effective run margin (see Spec.Margin).
func (s Spec) margin() float64 {
	if s.Margin > 0 {
		return s.Margin
	}
	return s.ChannelWidth/2 + s.Spacing
}

// maxRunLevels returns how many horizontal run levels fit between the
// margins at the design-rule pitch.
func (s Spec) maxRunLevels() int {
	p := s.pitch()
	usable := s.Height - 2*s.margin()
	if usable < 0 {
		return 0
	}
	return int(usable/p) + 1
}

// MaxLength returns the largest centreline length synthesizable for
// the given spec (the target length is ignored). Offset correction
// uses it to decide how much the box must grow.
func MaxLength(s Spec) float64 {
	return s.Height + float64(s.maxRunLevels())*s.MaxWidth
}

// Synthesize produces a rectilinear route of exactly the target length
// (up to floating-point rounding) from (0,0) to (EndX, Height).
//
// Construction: n serpentine runs of amplitude a alternate between the
// rails x = 0 and x = a; an optional terminal run just below the feed
// line slides the tap to its final x. The achieved extra length is
// n·a + |endX − x_n| where x_n is the rail the serpentine ends on.
// With a ∈ [pitch, MaxWidth] and endX ∈ [0, MaxWidth] the coverage of
// consecutive n overlaps, so any target up to MaxLength is realizable.
func Synthesize(s Spec) (Result, error) {
	if err := s.Validate(); err != nil {
		return Result{}, err
	}
	extra := s.TargetLength - s.Height
	if s.EndX == 0 && extra <= relTol*s.TargetLength {
		path := geometry.Polyline{Points: []geometry.Point{{X: 0, Y: 0}, {X: 0, Y: s.Height}}}
		return Result{Path: path, Length: s.Height, EndX: 0, Legs: 0}, nil
	}

	p := s.pitch()
	aMax := s.MaxWidth
	maxLevels := s.maxRunLevels()
	if maxLevels < 1 {
		return Result{}, &doesNotFitError{s}
	}

	for n := 0; n <= maxLevels; n++ {
		var a, endX, termLen float64
		var ok bool
		if s.EndX > 0 {
			a, endX, termLen, ok = planRunsPinned(n, extra, p, aMax, s.EndX)
		} else {
			a, endX, termLen, ok = planRuns(n, extra, p, aMax)
		}
		if !ok {
			continue
		}
		levels := n
		if termLen > 0 {
			levels++
		}
		if levels > maxLevels {
			continue
		}
		return buildPath(s, n, a, endX)
	}
	return Result{}, &doesNotFitError{s}
}

// planRuns decides, for a fixed number of serpentine runs n, the
// amplitude a and the tap position endX realizing exactly `extra` of
// additional length, or reports infeasibility for this n.
func planRuns(n int, extra, pitch, aMax float64) (a, endX, termLen float64, ok bool) {
	if aMax < pitch {
		// No serpentine possible at all; only the terminal run.
		if n == 0 && extra <= aMax {
			return 0, extra, extra, true
		}
		return 0, 0, 0, false
	}
	if n == 0 {
		if extra <= aMax {
			return 0, extra, extra, true
		}
		return 0, 0, 0, false
	}
	need := extra / float64(n)
	switch {
	case need >= pitch && need <= aMax:
		// The runs alone realize the extra length; tap on the final
		// rail, no terminal run.
		a = need
		if n%2 == 1 {
			endX = a
		}
		return a, endX, 0, true
	case need > aMax:
		// Saturate the amplitude and let the terminal run absorb the
		// remainder.
		a = aMax
		rem := extra - float64(n)*a
		xc := 0.0
		if n%2 == 1 {
			xc = a
		}
		// The terminal run may go either direction from xc.
		if t := xc - rem; t >= 0 {
			return a, t, rem, true
		}
		if t := xc + rem; t <= aMax {
			return a, t, rem, true
		}
		return 0, 0, 0, false
	default: // need < pitch: n runs already exceed the target
		return 0, 0, 0, false
	}
}

// planRunsPinned is the planRuns variant for a pinned tap at x = E
// (callers use E = pitch). The serpentine ends on rail xc ∈ {0, a} and
// the terminal run bridges |E − xc|, so extra = n·a + |E − xc|. With
// E = pitch ≤ aMax the coverage over ascending n is continuous on
// [E, capacity].
func planRunsPinned(n int, extra, pitch, aMax, e float64) (a, endX, termLen float64, ok bool) {
	const eps = 1e-12
	if n == 0 {
		// Terminal run only: extra must equal E.
		if math.Abs(extra-e) <= eps*math.Max(extra, e) {
			return 0, e, e, true
		}
		return 0, 0, 0, false
	}
	if aMax < pitch {
		return 0, 0, 0, false
	}
	if n%2 == 0 {
		// xc = 0, terminal length E: n·a = extra − E.
		a = (extra - e) / float64(n)
		if a < pitch-eps || a > aMax+eps {
			return 0, 0, 0, false
		}
		return clampAmp(a, pitch, aMax), e, e, true
	}
	// n odd, xc = a. Prefer a ≥ E (terminal runs back from the rail):
	// extra = (n+1)·a − E.
	a = (extra + e) / float64(n+1)
	if a >= math.Max(pitch, e)-eps && a <= aMax+eps {
		a = clampAmp(a, math.Max(pitch, e), aMax)
		return a, e, math.Abs(a - e), true
	}
	// Otherwise a < E (terminal continues outward): extra = (n−1)·a + E.
	if n > 1 {
		a = (extra - e) / float64(n-1)
		if a >= pitch-eps && a <= math.Min(aMax, e)+eps {
			a = clampAmp(a, pitch, math.Min(aMax, e))
			return a, e, math.Abs(e - a), true
		}
	}
	return 0, 0, 0, false
}

// clampAmp nudges an amplitude back inside [lo, hi] after tolerance
// checks.
func clampAmp(a, lo, hi float64) float64 {
	if a < lo {
		return lo
	}
	if a > hi {
		return hi
	}
	return a
}

// buildPath lays out n serpentine runs of amplitude a, an optional
// terminal run to endX, and the final rise to the feed line. Run
// levels are packed bottom-up at the design-rule pitch.
func buildPath(s Spec, n int, a, endX float64) (Result, error) {
	p := s.pitch()
	lo := s.margin()

	pts := []geometry.Point{{X: 0, Y: 0}}
	curX := 0.0
	y := lo
	for i := 0; i < n; i++ {
		if i > 0 {
			y += p
		}
		pts = append(pts, geometry.Point{X: curX, Y: y})
		if curX == 0 {
			curX = a
		} else {
			curX = 0
		}
		pts = append(pts, geometry.Point{X: curX, Y: y})
	}
	if math.Abs(endX-curX) > 0 {
		if n > 0 {
			y += p
		}
		pts = append(pts, geometry.Point{X: curX, Y: y})
		curX = endX
		pts = append(pts, geometry.Point{X: curX, Y: y})
	}
	pts = append(pts, geometry.Point{X: curX, Y: s.Height})

	path := geometry.Polyline{Points: pts}
	length := path.Length()
	want := s.TargetLength
	if math.Abs(length-want) > 1e-6*want+1e-15 {
		return Result{}, fmt.Errorf("meander: internal error: achieved %g, want %g", length, want)
	}
	return Result{Path: path, Length: length, EndX: curX, Legs: n}, nil
}
