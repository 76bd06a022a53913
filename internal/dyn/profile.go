package dyn

import (
	"fmt"
	"math"
	"strings"
	"time"
)

// ProfileKind enumerates the pump drive shapes of the transient tier.
type ProfileKind int

const (
	// ProfileConstant holds the pump at its nominal flow: s(t) = 1.
	ProfileConstant ProfileKind = iota
	// ProfileRamp rises linearly from rest to the nominal flow over
	// RampTime, then holds: s(t) = min(t/RampTime, 1). The pump
	// start-up transient of a real perfusion experiment.
	ProfileRamp
	// ProfilePulse modulates the nominal flow sinusoidally:
	// s(t) = 1 + Amplitude·sin(2πt/Period). With Amplitude ≤ 1 the
	// scale stays non-negative — the pulsatile (heartbeat-like)
	// perfusion mode.
	ProfilePulse
)

// Profile is a time-dependent scale factor s(t) ≥ 0 applied to a
// pump's nominal flow. The zero value is ProfileConstant, which is
// valid as-is; the other kinds carry their shape parameters.
type Profile struct {
	Kind ProfileKind
	// RampTime is the rise time [s] of ProfileRamp.
	RampTime float64
	// Amplitude is the relative modulation depth of ProfilePulse,
	// in (0, 1].
	Amplitude float64
	// Period is the oscillation period [s] of ProfilePulse.
	Period float64
}

// ProfileNames lists the valid profile spellings in their canonical
// order; usage and error messages quote it so every consumer (oocsim,
// the oocd query parameter) stays in sync with ParseProfile.
const ProfileNames = "constant, ramp:<rise> (e.g. ramp:2s), pulse:<depth>@<period> (e.g. pulse:0.5@1s)"

// Validate checks the shape parameters of the profile's kind; NaN and
// ±Inf are rejected.
func (p Profile) Validate() error {
	switch p.Kind {
	case ProfileConstant:
		return nil
	case ProfileRamp:
		if !positive(p.RampTime) {
			return fmt.Errorf("dyn: ramp profile needs a positive, finite rise time, got %g s", p.RampTime)
		}
		return nil
	case ProfilePulse:
		if !positive(p.Period) {
			return fmt.Errorf("dyn: pulse profile needs a positive, finite period, got %g s", p.Period)
		}
		if !(p.Amplitude > 0 && p.Amplitude <= 1) {
			return fmt.Errorf("dyn: pulse amplitude %g outside (0, 1]; deeper modulation would reverse the pump", p.Amplitude)
		}
		return nil
	default:
		return fmt.Errorf("dyn: unknown profile kind %d", int(p.Kind))
	}
}

// Scale evaluates s(t). Times before zero clamp to the t = 0 value.
func (p Profile) Scale(t float64) float64 {
	if t < 0 {
		t = 0
	}
	switch p.Kind {
	case ProfileRamp:
		if t >= p.RampTime {
			return 1
		}
		return t / p.RampTime
	case ProfilePulse:
		return 1 + p.Amplitude*math.Sin(2*math.Pi*t/p.Period)
	default:
		return 1
	}
}

// String renders the profile in its ParseProfile spelling, so it can
// round-trip through cache keys and reports.
func (p Profile) String() string {
	switch p.Kind {
	case ProfileRamp:
		return fmt.Sprintf("ramp:%s", formatSeconds(p.RampTime))
	case ProfilePulse:
		return fmt.Sprintf("pulse:%g@%s", p.Amplitude, formatSeconds(p.Period))
	default:
		return "constant"
	}
}

// formatSeconds renders a duration in seconds compactly (1.5s, 200ms).
func formatSeconds(s float64) string {
	return time.Duration(s * float64(time.Second)).String()
}

// ParseProfile resolves a user-supplied profile spelling: "constant",
// "ramp:<rise>" with a Go duration rise time, or
// "pulse:<depth>@<period>" with a relative depth in (0, 1] and a Go
// duration period. The empty string selects the constant profile.
func ParseProfile(name string) (Profile, error) {
	switch {
	case name == "" || name == "constant":
		return Profile{Kind: ProfileConstant}, nil
	case strings.HasPrefix(name, "ramp:"):
		rise, err := time.ParseDuration(strings.TrimPrefix(name, "ramp:"))
		if err != nil || rise <= 0 {
			return Profile{}, fmt.Errorf("dyn: invalid ramp profile %q (want ramp:<rise>, e.g. ramp:2s)", name)
		}
		return Profile{Kind: ProfileRamp, RampTime: rise.Seconds()}, nil
	case strings.HasPrefix(name, "pulse:"):
		spec := strings.TrimPrefix(name, "pulse:")
		depthStr, periodStr, ok := strings.Cut(spec, "@")
		if !ok {
			return Profile{}, fmt.Errorf("dyn: invalid pulse profile %q (want pulse:<depth>@<period>, e.g. pulse:0.5@1s)", name)
		}
		var depth float64
		if _, err := fmt.Sscanf(depthStr, "%g", &depth); err != nil {
			return Profile{}, fmt.Errorf("dyn: invalid pulse depth in %q: %w", name, err)
		}
		period, err := time.ParseDuration(periodStr)
		if err != nil {
			return Profile{}, fmt.Errorf("dyn: invalid pulse period in %q: %w", name, err)
		}
		p := Profile{Kind: ProfilePulse, Amplitude: depth, Period: period.Seconds()}
		if err := p.Validate(); err != nil {
			return Profile{}, err
		}
		return p, nil
	default:
		return Profile{}, fmt.Errorf("dyn: unknown profile %q (valid profiles: %s)", name, ProfileNames)
	}
}
