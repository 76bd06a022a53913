package server

import (
	"encoding/json"
	"math"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strings"
	"testing"
	"time"

	"ooc/internal/sim"
)

// TestValidateDynamicEndpoint exercises the transient tier end to end
// over HTTP: JSON with a time series and telemetry, text and CSV
// renderings, and response caching keyed on the run parameters.
func TestValidateDynamicEndpoint(t *testing.T) {
	s := New(Config{})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	body := specBody(t, "male_simple")
	url := ts.URL + "/v1/validate?model=dynamic&duration=500ms"

	resp, raw := post(t, ts.Client(), url, body, nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("dynamic validate: %d: %s", resp.StatusCode, raw)
	}
	var out dynamicResult
	if err := json.Unmarshal(raw, &out); err != nil {
		t.Fatalf("parsing dynamic result: %v", err)
	}
	if out.Model != "dynamic" {
		t.Errorf("model = %q, want dynamic", out.Model)
	}
	if out.Steps <= 0 || len(out.TimesS) < 2 {
		t.Errorf("empty transient series: steps=%d samples=%d", out.Steps, len(out.TimesS))
	}
	if len(out.ModuleFlowsM3S) != len(out.ModuleNames) {
		t.Errorf("%d flow series for %d modules", len(out.ModuleFlowsM3S), len(out.ModuleNames))
	}
	if out.SimulatedTimeS < 0.5 {
		t.Errorf("simulated %g s, want the full 0.5 s", out.SimulatedTimeS)
	}

	// Identical request: served from cache, byte-identical.
	resp2, raw2 := post(t, ts.Client(), url, body, nil)
	if resp2.Header.Get("X-Cache") != "hit" {
		t.Errorf("second identical dynamic request: X-Cache = %q, want hit", resp2.Header.Get("X-Cache"))
	}
	if string(raw2) != string(raw) {
		t.Error("cached dynamic reply differs from the original")
	}

	// A different duration is a different run — never a cache hit.
	resp3, _ := post(t, ts.Client(), ts.URL+"/v1/validate?model=dynamic&duration=600ms", body, nil)
	if resp3.Header.Get("X-Cache") != "miss" {
		t.Errorf("different duration: X-Cache = %q, want miss", resp3.Header.Get("X-Cache"))
	}

	// Text rendering carries the stepper summary and the module table.
	respText, rawText := post(t, ts.Client(), url, body, map[string]string{"Accept": "text/plain"})
	if respText.StatusCode != http.StatusOK || !strings.Contains(string(rawText), "CFL-limited") {
		t.Errorf("text rendering: %d: %s", respText.StatusCode, rawText)
	}

	// CSV rendering: a header row plus one line per sample.
	respCSV, rawCSV := post(t, ts.Client(), url, body, map[string]string{"Accept": "text/csv"})
	if respCSV.StatusCode != http.StatusOK {
		t.Fatalf("csv rendering: %d: %s", respCSV.StatusCode, rawCSV)
	}
	lines := strings.Split(strings.TrimSpace(string(rawCSV)), "\n")
	if !strings.HasPrefix(lines[0], "t_s,pump_scale,pump_pressure_pa") {
		t.Errorf("csv header = %q", lines[0])
	}
	if len(lines) != len(out.TimesS)+1 {
		t.Errorf("csv has %d data rows, series has %d samples", len(lines)-1, len(out.TimesS))
	}
}

// TestValidateDynamicSpecies checks ?profile= and ?dose=: the pulsatile
// dosed run reports arrivals and a closed species mass ledger.
func TestValidateDynamicSpecies(t *testing.T) {
	s := New(Config{})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	url := ts.URL + "/v1/validate?model=dynamic&duration=1s&profile=pulse:0.5@250ms&dose=1"

	resp, raw := post(t, ts.Client(), url, specBody(t, "male_simple"), nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("dosed dynamic validate: %d: %s", resp.StatusCode, raw)
	}
	var out dynamicResult
	if err := json.Unmarshal(raw, &out); err != nil {
		t.Fatalf("parsing dynamic result: %v", err)
	}
	if len(out.ArrivalTimesS) != len(out.ModuleNames) {
		t.Fatalf("%d arrival times for %d modules", len(out.ArrivalTimesS), len(out.ModuleNames))
	}
	for m, at := range out.ArrivalTimesS {
		if at <= 0 {
			t.Errorf("module %s: species never arrived (%g)", out.ModuleNames[m], at)
		}
	}
	if out.MassBalanceError > 1e-9 {
		t.Errorf("mass balance error %g, want ≤ 1e-9", out.MassBalanceError)
	}
}

// TestValidateDynamicBadRequests pins the 4xx surface: a duration that
// cannot fit the deadline budget, one whose series would exceed the
// sample cap, malformed transient parameters, and transient parameters
// leaking onto a steady-state model.
func TestValidateDynamicBadRequests(t *testing.T) {
	s := New(Config{})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	body := specBody(t, "male_simple")

	cases := []struct {
		name, query, wantSubstr string
	}{
		{"over budget", "?model=dynamic&duration=3000s&timeout=100ms", "deadline budget"},
		{"too many samples", "?model=dynamic&duration=24h&timeout=1s", "samples"},
		{"bad duration", "?model=dynamic&duration=banana", "invalid duration"},
		{"negative duration", "?model=dynamic&duration=-2s", "invalid duration"},
		{"bad profile", "?model=dynamic&profile=square:1s", "profile"},
		{"bad dose", "?model=dynamic&dose=-1", "invalid dose"},
		{"duration on exact", "?model=exact&duration=2s", "only valid with model=dynamic"},
		{"dose on numeric", "?model=numeric&dose=1", "only valid with model=dynamic"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			resp, raw := post(t, ts.Client(), ts.URL+"/v1/validate"+tc.query, body, nil)
			if resp.StatusCode != http.StatusBadRequest {
				t.Fatalf("%s: status %d: %s", tc.query, resp.StatusCode, raw)
			}
			if !strings.Contains(string(raw), tc.wantSubstr) {
				t.Errorf("%s: error %s does not mention %q", tc.query, raw, tc.wantSubstr)
			}
		})
	}
}

// TestValidateDynamicNonFinite: NaN and infinite transient parameters
// are a synchronous 400 — before this check they ran the whole solve
// and then failed to encode the NaN-laden result as a 500.
func TestValidateDynamicNonFinite(t *testing.T) {
	s := New(Config{})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	body := specBody(t, "male_simple")
	for _, query := range []string{
		"?model=dynamic&duration=1s&dose=NaN",
		"?model=dynamic&duration=1s&dose=Inf",
		"?model=dynamic&duration=1s&profile=pulse:NaN@1s",
	} {
		t.Run(query, func(t *testing.T) {
			resp, raw := post(t, ts.Client(), ts.URL+"/v1/validate"+query, body, nil)
			if resp.StatusCode != http.StatusBadRequest {
				t.Fatalf("status %d: %s", resp.StatusCode, raw)
			}
		})
	}
	if steps := s.Collector().Snapshot().Counter("dyn.steps"); steps != 0 {
		t.Errorf("rejected requests ran %d transient steps, want none", steps)
	}
}

// FuzzParseDynamicQuery: whatever ?duration=, ?profile= and ?dose= say,
// parseDynamicQuery either rejects them or yields options that
// validate and carry only finite floats.
func FuzzParseDynamicQuery(f *testing.F) {
	f.Add("", "", "NaN")
	f.Add("", "", "Inf")
	f.Add("", "pulse:NaN@1s", "")
	f.Add("", "", "1e308")
	f.Add("", "ramp:1ns", "")
	f.Add("2s", "pulse:0.5@250ms", "1")
	f.Fuzz(func(t *testing.T, duration, profile, dose string) {
		q := url.Values{}
		q.Set("duration", duration)
		q.Set("profile", profile)
		q.Set("dose", dose)
		o := sim.DefaultDynamicOptions()
		if err := parseDynamicQuery(q, &o); err != nil {
			return
		}
		if err := o.Validate(); err != nil {
			t.Fatalf("parsed options fail Validate: %v", err)
		}
		for _, v := range []float64{
			o.StepTol, o.Compliance,
			o.Profile.RampTime, o.Profile.Amplitude, o.Profile.Period,
			o.Species.DoseConcentration, o.Species.DoseStart, o.Species.DoseDuration, o.Species.ArrivalThreshold,
		} {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				t.Fatalf("parsed options carry a non-finite value: %+v", o)
			}
		}
	})
}

// TestCheckDynamicBudget pins the admission gate to the measured step
// cost: ten simulated minutes (≈0.2 s of wall clock on the cheapest
// chip) fit a 1 s budget, a simulated day does not.
func TestCheckDynamicBudget(t *testing.T) {
	o := sim.DefaultDynamicOptions()
	o.Duration = 600 * time.Second
	if err := checkDynamicBudget(o, time.Second); err != nil {
		t.Errorf("600s@1s rejected: %v", err)
	}
	o.Duration = 24 * time.Hour
	if err := checkDynamicBudget(o, time.Second); err == nil {
		t.Error("24h@1s admitted, want the deadline-budget rejection")
	}
}
