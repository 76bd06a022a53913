package main

import (
	"math"
	"strings"
	"testing"
	"time"

	"ooc/internal/sim"
)

// TestModelFlagValidation: every valid -model spelling resolves to the
// matching sim.Model, and anything else fails with an error that lists
// the valid models — the message main prints before exiting 2.
func TestModelFlagValidation(t *testing.T) {
	cases := []struct {
		model   string
		want    sim.Model
		wantErr bool
	}{
		{model: "exact", want: sim.ModelExact},
		{model: "approx", want: sim.ModelApprox},
		{model: "numeric", want: sim.ModelNumeric},
		{model: "dynamic", want: sim.ModelDynamic},
		{model: "", want: sim.ModelExact}, // flag default semantics
		{model: "bogus", wantErr: true},
		{model: "EXACT", wantErr: true}, // spellings are case-sensitive
		{model: "auto", wantErr: true},  // oocbench-only spelling
	}
	for _, tc := range cases {
		opt, err := modelOptions(tc.model, true, false)
		if tc.wantErr {
			if err == nil {
				t.Errorf("model %q: expected an error", tc.model)
				continue
			}
			if !strings.Contains(err.Error(), sim.ModelNames) {
				t.Errorf("model %q: error does not list valid models: %v", tc.model, err)
			}
			continue
		}
		if err != nil {
			t.Errorf("model %q: %v", tc.model, err)
			continue
		}
		if opt.Model != tc.want {
			t.Errorf("model %q: got %v want %v", tc.model, opt.Model, tc.want)
		}
		if !opt.DisableBendLosses || opt.DisableJunctionLosses {
			t.Errorf("model %q: loss switches not threaded through: %+v", tc.model, opt)
		}
	}
}

// TestDynamicFlagValidation: the transient-tier flags resolve into
// validated DynamicOptions — malformed profiles and non-positive
// durations are usage errors, and -dose switches species transport on.
func TestDynamicFlagValidation(t *testing.T) {
	def := sim.DefaultDynamicOptions()
	cases := []struct {
		name    string
		dur     time.Duration
		profile string
		dose    float64
		wantErr string
	}{
		{name: "defaults", dur: def.Duration, profile: "constant"},
		{name: "pulse with dose", dur: 2 * time.Second, profile: "pulse:0.5@500ms", dose: 1},
		{name: "ramp", dur: time.Second, profile: "ramp:250ms"},
		{name: "zero duration", dur: 0, profile: "constant", wantErr: "duration"},
		{name: "bad profile", dur: time.Second, profile: "square:1s", wantErr: "profile"},
		{name: "negative dose", dur: time.Second, profile: "constant", dose: -1, wantErr: "dose"},
		{name: "NaN dose", dur: time.Second, profile: "constant", dose: math.NaN(), wantErr: "dose"},
		{name: "infinite dose", dur: time.Second, profile: "constant", dose: math.Inf(1), wantErr: "dose"},
		{name: "NaN pulse depth", dur: time.Second, profile: "pulse:NaN@1s", wantErr: "amplitude"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			o, err := dynamicOptions(tc.dur, def.MaxStep, def.SampleEvery, tc.profile, tc.dose)
			if tc.wantErr != "" {
				if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
					t.Fatalf("err = %v, want mention of %q", err, tc.wantErr)
				}
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			if o.Duration != tc.dur {
				t.Errorf("duration %v, want %v", o.Duration, tc.dur)
			}
			if got := o.Species.Enabled; got != (tc.dose > 0) {
				t.Errorf("species enabled = %v with dose %g", got, tc.dose)
			}
		})
	}
}
