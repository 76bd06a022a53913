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
	"ooc/internal/specio"
	"ooc/internal/usecases"
)

// specPaths are the spec-taking endpoints: design and validation at
// every served model and budget.
var specPaths = []string{
	"/v1/design", "/v1/validate", "/v1/validate?model=exact", "/v1/validate?model=approx",
	"/v1/validate?error_budget=0.05", "/v1/validate?model=dynamic&duration=100ms",
}

// maleSimpleFile returns male_simple's document with edit applied.
func maleSimpleFile(t *testing.T, edit func(*specio.File)) []byte {
	t.Helper()
	uc, err := usecases.ByName("male_simple")
	if err != nil {
		t.Fatal(err)
	}
	f := specio.FromSpec(uc.Build())
	edit(&f)
	body, err := json.Marshal(f)
	if err != nil {
		t.Fatal(err)
	}
	return body
}

// countingServer returns a server whose generate calls are counted,
// and its test listener.
func countingServer(t *testing.T) (*Server, *httptest.Server, *atomic.Int64) {
	t.Helper()
	s := New(Config{})
	generated := new(atomic.Int64)
	s.generate = func(ctx context.Context, spec core.Spec) (*core.Design, error) {
		generated.Add(1)
		return core.GenerateContext(ctx, spec)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return s, ts, generated
}

// expectParseRejection posts body to every spec-taking endpoint and as
// a /v1/jobs spec, and requires a 400 containing want from each.
func expectParseRejection(t *testing.T, ts *httptest.Server, label string, body []byte, want string) {
	t.Helper()
	for _, path := range specPaths {
		resp, raw := post(t, ts.Client(), ts.URL+path, body, nil)
		if resp.StatusCode != http.StatusBadRequest || !strings.Contains(string(raw), want) {
			t.Errorf("%s %s: status %d, want a 400 naming %q: %s", label, path, resp.StatusCode, want, raw)
		}
	}
	job, err := json.Marshal(map[string]any{"spec": json.RawMessage(body)})
	if err != nil {
		t.Fatal(err)
	}
	resp, raw := post(t, ts.Client(), ts.URL+"/v1/jobs", job, nil)
	if resp.StatusCode != http.StatusBadRequest || !strings.Contains(string(raw), want) {
		t.Errorf("%s job: status %d, want a 400 naming %q: %s", label, resp.StatusCode, want, raw)
	}
}

// TestMassBoundRejected: an explicit organism or module mass above
// core.MaxMass gets a 400 naming the field from every spec-taking
// endpoint, before the cache key, admission or the pipeline; an
// organism mass derived from an anchor module above the bound gets a
// 4xx from core's derivation, before realize lays out the chip.
// Without the bound each body is served (male_simple at 1 kg is a
// 147 KB design), and the chip grows with the mass until memory runs
// out.
func TestMassBoundRejected(t *testing.T) {
	s, ts, generated := countingServer(t)
	expectParseRejection(t, ts, "organism 1 kg", maleSimpleFile(t, func(f *specio.File) {
		f.OrganismMassKg = 1
	}), "organism_mass_kg")
	expectParseRejection(t, ts, "module 10 g", maleSimpleFile(t, func(f *specio.File) {
		for i := range f.Modules {
			f.Modules[i].MassKg = 1e-2
		}
	}), "mass_kg")
	if n := generated.Load(); n != 0 {
		t.Errorf("explicit masses over the bound ran the pipeline %d times", n)
	}
	if m := s.Collector().Snapshot().Counter("server.cache.misses"); m != 0 {
		t.Errorf("explicit masses over the bound reached the cache: %d misses", m)
	}
	if list := s.jobs.List(); len(list) != 0 {
		t.Errorf("explicit masses over the bound admitted %d jobs", len(list))
	}

	// A 0.1 g lung anchors a 14 g organism.
	anchored := maleSimpleFile(t, func(f *specio.File) {
		f.OrganismMassKg = 0
		f.Modules[0].MassKg = 1e-4
	})
	for _, path := range specPaths {
		resp, raw := post(t, ts.Client(), ts.URL+path, anchored, nil)
		if resp.StatusCode != http.StatusUnprocessableEntity || !strings.Contains(string(raw), "derived organism mass") {
			t.Errorf("anchored %s: status %d, want a 422 naming the derived organism mass: %s", path, resp.StatusCode, raw)
		}
	}
}

// TestGeometryAndPerfusionRejected: a negative spacing_m or
// channel_height_m and a subnormal module perfusion get a 400 naming
// the field from every spec-taking endpoint before the pipeline runs.
// Without the checks a negative length is served as if absent, and a
// perfusion of 5e-324 makes every validation answer 500 with a +Inf
// deviation.
func TestGeometryAndPerfusionRejected(t *testing.T) {
	s, ts, generated := countingServer(t)
	expectParseRejection(t, ts, "spacing -1", maleSimpleFile(t, func(f *specio.File) {
		f.SpacingM = -1
	}), "spacing_m")
	expectParseRejection(t, ts, "channel height -1e-4", maleSimpleFile(t, func(f *specio.File) {
		f.ChannelHeightM = -1e-4
	}), "channel_height_m")
	expectParseRejection(t, ts, "perfusion 5e-324", maleSimpleFile(t, func(f *specio.File) {
		for i := range f.Modules {
			f.Modules[i].Perfusion = 5e-324
		}
	}), "perfusion 5e-324")
	if n := generated.Load(); n != 0 {
		t.Errorf("rejected bodies ran the pipeline %d times", n)
	}
	if m := s.Collector().Snapshot().Counter("server.cache.misses"); m != 0 {
		t.Errorf("rejected bodies reached the cache: %d misses", m)
	}
	if list := s.jobs.List(); len(list) != 0 {
		t.Errorf("rejected bodies admitted %d jobs", len(list))
	}
}
