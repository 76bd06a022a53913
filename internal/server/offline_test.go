package server

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"

	"ooc/internal/core"
	"ooc/internal/obs"
	"ooc/internal/sim"
)

// TestNoRequestReachesFDM: every kind of request the server still
// serves — design, steady validation at each served model and under a
// budget, dosed dynamic validation, grid and halving jobs — leaves the
// FDM untouched: the collector holds no solver or cross-section cache
// aggregate, and the process-wide cross-section cache stays empty.
func TestNoRequestReachesFDM(t *testing.T) {
	sim.ResetCrossSectionCache()
	s := New(Config{})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	body := specBody(t, "male_simple")

	for _, path := range []string{
		"/v1/design",
		"/v1/validate?model=exact",
		"/v1/validate?model=approx",
		"/v1/validate?error_budget=0.01",
		"/v1/validate?model=dynamic&duration=1s&profile=pulse:0.5@500ms&dose=1",
	} {
		if resp, raw := post(t, ts.Client(), ts.URL+path, body, nil); resp.StatusCode != http.StatusOK {
			t.Fatalf("%s: status %d: %s", path, resp.StatusCode, raw)
		}
	}
	for _, strategy := range []string{"grid", "halving"} {
		resp, raw := post(t, ts.Client(), ts.URL+"/v1/jobs", jobBody(t, "male_simple", map[string]any{"strategy": strategy}), nil)
		if resp.StatusCode != http.StatusAccepted {
			t.Fatalf("%s job: status %d: %s", strategy, resp.StatusCode, raw)
		}
		var sub map[string]any
		if err := json.Unmarshal(raw, &sub); err != nil {
			t.Fatal(err)
		}
		if final := pollJob(t, ts, sub["id"].(string)); final["state"] != "succeeded" {
			t.Fatalf("%s job ended %v: %v", strategy, final["state"], final["error"])
		}
	}

	snap := s.Collector().Snapshot()
	if solvers := snap.Solvers(); len(solvers) != 0 {
		t.Errorf("served requests ran iterative solves: %+v", solvers)
	}
	for _, name := range []string{obs.CrossSectionHits, obs.CrossSectionMisses, obs.CrossSectionJoinAborts} {
		if n := snap.Counter(name); n != 0 {
			t.Errorf("served requests looked up the cross-section cache: %s = %d", name, n)
		}
	}
	if n := sim.CrossSectionCacheSize(); n != 0 {
		t.Errorf("served requests filled %d cross-section cache slots", n)
	}
}

// TestNumericRejected: ?model=numeric is a 400 naming the offline
// route before the body is read — a malformed body still gets the
// numeric answer — whatever rides along, and the pipeline never runs;
// a numeric job model is a 400 that admits no job.
func TestNumericRejected(t *testing.T) {
	s := New(Config{})
	var generated atomic.Int64
	s.generate = func(ctx context.Context, spec core.Spec) (*core.Design, error) {
		generated.Add(1)
		return core.GenerateContext(ctx, spec)
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	for _, query := range []string{"?model=numeric", "?model=numeric&dose=1", "?model=numeric&error_budget=0.01"} {
		for _, body := range [][]byte{specBody(t, "male_simple"), []byte("{not json")} {
			resp, raw := post(t, ts.Client(), ts.URL+"/v1/validate"+query, body, nil)
			if resp.StatusCode != http.StatusBadRequest || !strings.Contains(string(raw), "oocsim -model numeric") {
				t.Errorf("%s: status %d, want a 400 naming the offline route: %s", query, resp.StatusCode, raw)
			}
		}
	}
	if n := generated.Load(); n != 0 {
		t.Fatalf("rejected numeric requests ran the pipeline %d times", n)
	}

	resp, raw := post(t, ts.Client(), ts.URL+"/v1/jobs", jobBody(t, "male_simple", map[string]any{"model": "numeric"}), nil)
	if resp.StatusCode != http.StatusBadRequest || !strings.Contains(string(raw), "oocsim -model numeric") {
		t.Fatalf("numeric job: status %d, want a 400 naming the offline route: %s", resp.StatusCode, raw)
	}
	if list := s.jobs.List(); len(list) != 0 {
		t.Fatalf("rejected numeric job admitted %d jobs", len(list))
	}
}
