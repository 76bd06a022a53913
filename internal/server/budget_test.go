package server

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"ooc/internal/modelsel"
)

// TestValidateErrorBudget: ?error_budget= selects the cheapest
// calibrated rung, echoes it in the header and the report, caches the
// response under a budget-specific key (no aliasing with fixed-model
// entries), and repeats deterministically.
func TestValidateErrorBudget(t *testing.T) {
	s := New(Config{})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	body := specBody(t, "male_simple")

	table, err := modelsel.Default()
	if err != nil {
		t.Fatal(err)
	}
	wantRung, err := table.Select("male_simple", 0.01)
	if err != nil {
		t.Fatal(err)
	}

	resp, raw := post(t, ts.Client(), ts.URL+"/v1/validate?error_budget=0.01", body, nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, raw)
	}
	if got := resp.Header.Get("X-OOC-Model-Selected"); got != wantRung.Name {
		t.Fatalf("X-OOC-Model-Selected %q, want %q", got, wantRung.Name)
	}
	if resp.Header.Get("X-Cache") != "miss" {
		t.Fatalf("first budgeted request X-Cache %q", resp.Header.Get("X-Cache"))
	}
	var out struct {
		Model         string  `json:"model"`
		ModelSelected string  `json:"model_selected"`
		ErrorBudget   float64 `json:"error_budget"`
	}
	if err := json.Unmarshal(raw, &out); err != nil {
		t.Fatal(err)
	}
	if out.ModelSelected != wantRung.Name || fmt.Sprintf("%g", out.ErrorBudget) != "0.01" {
		t.Fatalf("report selection %q budget %g, want %q budget 0.01", out.ModelSelected, out.ErrorBudget, wantRung.Name)
	}
	if out.Model != wantRung.Model.String() {
		t.Fatalf("report model %q, want the selected rung's model %q", out.Model, wantRung.Model)
	}

	// A fixed-model request for the same spec and model must NOT hit
	// the budget-selected entry: the bodies differ (selection fields),
	// so the keys must too.
	respFixed, rawFixed := post(t, ts.Client(),
		ts.URL+"/v1/validate?model="+wantRung.Model.String(), body, nil)
	if respFixed.StatusCode != http.StatusOK {
		t.Fatalf("fixed-model status %d: %s", respFixed.StatusCode, rawFixed)
	}
	if respFixed.Header.Get("X-Cache") != "miss" {
		t.Fatal("fixed-model request aliased the budget-selected cache entry")
	}
	if respFixed.Header.Get("X-OOC-Model-Selected") != "" {
		t.Fatal("fixed-model request carries a selection header")
	}

	// The identical budgeted repeat is a hit with the same header and
	// byte-identical body.
	resp2, raw2 := post(t, ts.Client(), ts.URL+"/v1/validate?error_budget=0.01", body, nil)
	if resp2.Header.Get("X-Cache") != "hit" {
		t.Fatal("identical budgeted repeat missed the cache")
	}
	if resp2.Header.Get("X-OOC-Model-Selected") != wantRung.Name {
		t.Fatal("cache hit dropped the selection header")
	}
	if string(raw) != string(raw2) {
		t.Fatal("cached budgeted response differs from the fresh one")
	}

	snap := s.Collector().Snapshot()
	if got := snap.Counter("modelsel.selected." + wantRung.Name); got != 2 {
		t.Fatalf("modelsel.selected.%s = %d, want 2", wantRung.Name, got)
	}
}

// TestValidateErrorBudgetTaxonomy: invalid and unmeetable budgets are
// 400s with actionable messages; an explicit ?model= wins over the
// budget (counted, no selection header).
func TestValidateErrorBudgetTaxonomy(t *testing.T) {
	s := New(Config{})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	body := specBody(t, "male_simple")

	for _, raw := range []string{"banana", "0", "-0.5", "1.5"} {
		resp, rawBody := post(t, ts.Client(), ts.URL+"/v1/validate?error_budget="+raw, body, nil)
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("error_budget=%s: status %d, want 400 (%s)", raw, resp.StatusCode, rawBody)
		}
	}

	// Tighter than every calibrated rung: 400 naming the tightest.
	resp, rawBody := post(t, ts.Client(), ts.URL+"/v1/validate?error_budget=1e-12", body, nil)
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("unmeetable budget: status %d (%s)", resp.StatusCode, rawBody)
	}
	if !strings.Contains(string(rawBody), "tightest") {
		t.Fatalf("unmeetable error does not name the tightest rung: %s", rawBody)
	}
	if got := resp.Header.Get("X-OOC-Model-Selected"); got != "" {
		t.Fatalf("unmeetable budget still set selection header %q", got)
	}

	// Explicit model wins: 200 under the requested model, override
	// counted, selection skipped.
	resp, rawBody = post(t, ts.Client(), ts.URL+"/v1/validate?model=exact&error_budget=0.01", body, nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("explicit model + budget: status %d (%s)", resp.StatusCode, rawBody)
	}
	if got := resp.Header.Get("X-OOC-Model-Selected"); got != "" {
		t.Fatalf("explicit model still selected a rung: %q", got)
	}
	var out struct {
		Model         string `json:"model"`
		ModelSelected string `json:"model_selected"`
	}
	if err := json.Unmarshal(rawBody, &out); err != nil {
		t.Fatal(err)
	}
	if out.Model != "exact" || out.ModelSelected != "" {
		t.Fatalf("explicit model report: model %q selected %q", out.Model, out.ModelSelected)
	}

	snap := s.Collector().Snapshot()
	if got := snap.Counter("modelsel.explicit_override"); got != 1 {
		t.Fatalf("modelsel.explicit_override = %d, want 1", got)
	}
	if got := snap.Counter("modelsel.unmeetable"); got != 1 {
		t.Fatalf("modelsel.unmeetable = %d, want 1", got)
	}

	// The selection telemetry reaches /metrics under its own families.
	metrics := s.MetricsText()
	for _, want := range []string{
		"ooc_model_selection_overridden_total 1",
		"ooc_model_selection_unmeetable_total 1",
	} {
		if !strings.Contains(metrics, want) {
			t.Errorf("/metrics lacks %q", want)
		}
	}
}

// TestDesignErrorBudget: /v1/design answers the selection question in
// the header without forking the cached body, and rejects bad budgets
// before generating anything.
func TestDesignErrorBudget(t *testing.T) {
	s := New(Config{})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	body := specBody(t, "male_simple")

	resp, raw := post(t, ts.Client(), ts.URL+"/v1/design?error_budget=0.01", body, nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, raw)
	}
	rung := resp.Header.Get("X-OOC-Model-Selected")
	if rung == "" {
		t.Fatal("budgeted design request has no selection header")
	}

	// The budget-less request for the same spec shares the cache entry:
	// the design body does not depend on the selection.
	resp2, _ := post(t, ts.Client(), ts.URL+"/v1/design", body, nil)
	if resp2.Header.Get("X-Cache") != "hit" {
		t.Fatal("design body unexpectedly forked by the budget")
	}
	if resp2.Header.Get("X-OOC-Model-Selected") != "" {
		t.Fatal("budget-less design request carries a selection header")
	}

	resp3, _ := post(t, ts.Client(), ts.URL+"/v1/design?error_budget=2", body, nil)
	if resp3.StatusCode != http.StatusBadRequest {
		t.Fatalf("out-of-range budget: status %d, want 400", resp3.StatusCode)
	}
}

// TestJobsErrorBudget: a job submitted with ?error_budget= runs its
// full-fidelity rung at the selected model; an explicit body model
// wins.
func TestJobsErrorBudget(t *testing.T) {
	s := New(Config{})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	submit := func(query string, bodyModel string) (*http.Response, []byte) {
		t.Helper()
		spec := specBody(t, "male_simple")
		req := map[string]any{
			"spec":               json.RawMessage(spec),
			"channel_heights_um": []float64{150},
			"min_gaps_mm":        []float64{2},
		}
		if bodyModel != "" {
			req["model"] = bodyModel
		}
		raw, err := json.Marshal(req)
		if err != nil {
			t.Fatal(err)
		}
		return post(t, ts.Client(), ts.URL+"/v1/jobs"+query, raw, nil)
	}

	resp, raw := submit("?error_budget=0.01", "")
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("budgeted submit: status %d: %s", resp.StatusCode, raw)
	}
	if resp.Header.Get("X-OOC-Model-Selected") == "" {
		t.Fatal("budgeted job submit has no selection header")
	}

	resp, raw = submit("?error_budget=0.01", "exact")
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("explicit-model submit: status %d: %s", resp.StatusCode, raw)
	}
	if got := resp.Header.Get("X-OOC-Model-Selected"); got != "" {
		t.Fatalf("explicit body model still selected rung %q", got)
	}

	resp, raw = submit("?error_budget=1e-12", "")
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("unmeetable job budget: status %d: %s", resp.StatusCode, raw)
	}
	if !strings.Contains(string(raw), "tightest") {
		t.Fatalf("unmeetable job error does not name the tightest rung: %s", raw)
	}
}

// TestSelectionUnavailable: a server whose calibration failed to load
// answers budgeted requests with 500 (and an explanation), not a
// silent fallback model.
func TestSelectionUnavailable(t *testing.T) {
	s := New(Config{})
	s.calib, s.calibErr = nil, fmt.Errorf("synthetic load failure")
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	resp, raw := post(t, ts.Client(), ts.URL+"/v1/validate?error_budget=0.01", specBody(t, "male_simple"), nil)
	if resp.StatusCode != http.StatusInternalServerError {
		t.Fatalf("status %d, want 500: %s", resp.StatusCode, raw)
	}
	if !strings.Contains(string(raw), "unavailable") {
		t.Fatalf("error body does not explain unavailability: %s", raw)
	}

	// Fixed-model traffic is unaffected.
	resp, _ = post(t, ts.Client(), ts.URL+"/v1/validate?model=exact", specBody(t, "male_simple"), nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("fixed-model request on a calib-less server: status %d", resp.StatusCode)
	}
}
