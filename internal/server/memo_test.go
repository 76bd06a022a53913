package server

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/json"
	"errors"
	"fmt"
	"maps"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"ooc/internal/core"
	"ooc/internal/obs"
	"ooc/internal/specio"
	"ooc/internal/units"
	"ooc/internal/usecases"
)

// serve sends one POST straight to the handler.
func serve(h http.Handler, path string, body []byte, accept string) *httptest.ResponseRecorder {
	req := httptest.NewRequest(http.MethodPost, path, bytes.NewReader(body))
	if accept != "" {
		req.Header.Set("Accept", accept)
	}
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	return rec
}

// counterDelta returns the counters that moved from before to after.
func counterDelta(before, after obs.Summary) map[string]int64 {
	d := map[string]int64{}
	for _, c := range after.Counters {
		if v := c.Value - before.Counter(c.Name); v != 0 {
			d[c.Name] = v
		}
	}
	return d
}

// stubDesign makes s generate male_simple's design for any spec, so
// admission tests pay for rendering only.
func stubDesign(t *testing.T, s *Server) {
	t.Helper()
	d, err := core.Generate(usecases.Fig4Instance().Spec)
	if err != nil {
		t.Fatal(err)
	}
	s.generate = func(context.Context, core.Spec) (*core.Design, error) { return d, nil }
}

// namedBody is male_simple's body under another name, so each name
// is its own response-cache key.
func namedBody(t *testing.T, name string) []byte {
	t.Helper()
	spec := usecases.Fig4Instance().Spec
	spec.Name = name
	raw, err := specio.Marshal(spec)
	if err != nil {
		t.Fatal(err)
	}
	return raw
}

// TestMemoServesParsedBytes: for every use case and request kind, the
// third identical body, served from the memo, gets the first reply's
// status, body and X-OOC-Model-Selected with X-Cache: hit, and moves
// exactly the counters the parsed second request moved.
func TestMemoServesParsedBytes(t *testing.T) {
	for _, rq := range []struct{ name, path, accept string }{
		{"design", "/v1/design", ""},
		{"design_budget", "/v1/design?error_budget=0.01", ""},
		{"validate_exact", "/v1/validate?model=exact", ""},
		{"validate_approx", "/v1/validate?model=approx", ""},
		{"validate_budget", "/v1/validate?error_budget=0.01", ""},
		{"validate_text", "/v1/validate", "text/plain"},
	} {
		t.Run(rq.name, func(t *testing.T) {
			s := New(Config{})
			h := s.Handler()
			for _, uc := range usecases.All() {
				body := specBody(t, uc.Name)
				sum := sha256.Sum256(body)
				var recs [3]*httptest.ResponseRecorder
				var deltas [3]map[string]int64
				for i := range recs {
					if _, ok := s.memo.Get(sum); ok != (i == 2) {
						t.Fatalf("%s: before request %d memoized = %v", uc.Name, i+1, ok)
					}
					before := s.Collector().Snapshot()
					recs[i] = serve(h, rq.path, body, rq.accept)
					deltas[i] = counterDelta(before, s.Collector().Snapshot())
				}
				first, third := recs[0], recs[2]
				if first.Code != http.StatusOK {
					t.Fatalf("%s: status %d: %s", uc.Name, first.Code, first.Body)
				}
				if third.Code != first.Code || !bytes.Equal(third.Body.Bytes(), first.Body.Bytes()) {
					t.Errorf("%s: memoized reply %d differs from the parsed one %d", uc.Name, third.Code, first.Code)
				}
				if got := third.Header().Get("X-Cache"); got != "hit" {
					t.Errorf("%s: memoized reply X-Cache = %q", uc.Name, got)
				}
				if got, want := third.Header().Get("X-OOC-Model-Selected"), first.Header().Get("X-OOC-Model-Selected"); got != want {
					t.Errorf("%s: memoized reply selected %q, parsed %q", uc.Name, got, want)
				}
				if deltas[1]["server.cache.hits"] != 1 || !maps.Equal(deltas[2], deltas[1]) {
					t.Errorf("%s: memoized request moved %v, parsed hit %v", uc.Name, deltas[2], deltas[1])
				}
			}
		})
	}
}

// TestMemoAdmission: a body is memoized only once the response cache
// has answered it with a 200, and the memo never outgrows CacheSize.
func TestMemoAdmission(t *testing.T) {
	t.Run("never repeated", func(t *testing.T) {
		s := New(Config{})
		stubDesign(t, s)
		h := s.Handler()
		for i := 0; i < 300; i++ {
			if rec := serve(h, "/v1/design", namedBody(t, fmt.Sprintf("chip%d", i)), ""); rec.Code != http.StatusOK {
				t.Fatalf("body %d: status %d: %s", i, rec.Code, rec.Body)
			}
		}
		if n := s.memo.Len(); n != 0 {
			t.Fatalf("300 never-repeated bodies left %d memo entries", n)
		}
	})
	t.Run("4xx", func(t *testing.T) {
		s := New(Config{})
		s.generate = func(context.Context, core.Spec) (*core.Design, error) {
			return nil, errors.New("no design")
		}
		h := s.Handler()
		spec := usecases.Fig4Instance().Spec
		spec.Fluid.Viscosity = units.PascalSeconds(-1)
		negative, err := specio.Marshal(spec)
		if err != nil {
			t.Fatal(err)
		}
		for _, c := range []struct {
			body []byte
			want int
		}{
			{[]byte(`{"modules": [`), http.StatusBadRequest},
			{negative, http.StatusBadRequest},
			{specBody(t, "male_simple"), http.StatusUnprocessableEntity},
		} {
			for _, path := range []string{"/v1/design", "/v1/validate"} {
				for i := 0; i < 3; i++ {
					if rec := serve(h, path, c.body, ""); rec.Code != c.want {
						t.Fatalf("%s: status %d, want %d: %s", path, rec.Code, c.want, rec.Body)
					}
				}
			}
		}
		if n := s.memo.Len(); n != 0 {
			t.Fatalf("4xx bodies left %d memo entries", n)
		}
	})
	t.Run("joined 422", func(t *testing.T) {
		// A request that joins an in-flight fill counts as a hit but
		// receives the owner's reply, here a 422: not memoized.
		gate := make(chan struct{})
		s := New(Config{})
		s.generate = func(context.Context, core.Spec) (*core.Design, error) {
			<-gate
			return nil, errors.New("no design")
		}
		h := s.Handler()
		body := specBody(t, "male_simple")
		var wg sync.WaitGroup
		codes := make([]int, 2)
		fire := func(i int) {
			wg.Add(1)
			go func() {
				defer wg.Done()
				codes[i] = serve(h, "/v1/design", body, "").Code
			}()
		}
		fire(0)
		deadline := time.Now().Add(5 * time.Second)
		for s.Collector().Snapshot().Counter("server.cache.misses") == 0 {
			if time.Now().After(deadline) {
				t.Fatal("owner request never reached the cache")
			}
			time.Sleep(time.Millisecond)
		}
		fire(1)
		time.Sleep(20 * time.Millisecond) // let the follower join in flight
		close(gate)
		wg.Wait()
		for i, code := range codes {
			if code != http.StatusUnprocessableEntity {
				t.Fatalf("request %d: status %d, want 422", i, code)
			}
		}
		if n := s.memo.Len(); n != 0 {
			t.Fatalf("a joined 422 left %d memo entries", n)
		}
	})
	t.Run("bounded", func(t *testing.T) {
		s := New(Config{CacheSize: 2})
		stubDesign(t, s)
		h := s.Handler()
		for i := 0; i < 5; i++ {
			body := namedBody(t, fmt.Sprintf("chip%d", i))
			for j := 0; j < 2; j++ {
				if rec := serve(h, "/v1/design", body, ""); rec.Code != http.StatusOK {
					t.Fatalf("body %d: status %d: %s", i, rec.Code, rec.Body)
				}
			}
			if n, want := s.memo.Len(), min(i+1, 2); n != want {
				t.Fatalf("after %d repeated bodies the memo holds %d, want %d", i+1, n, want)
			}
		}
	})
}

// TestMemoConcurrentSharing: memoized specs are shared read-only by
// concurrent requests. Once the memo holds every use case's body, 8
// goroutines send them at once to design, budgeted validation and a
// short transient run (fills included), and every reply equals the
// one a fresh server gives.
func TestMemoConcurrentSharing(t *testing.T) {
	paths := []string{"/v1/design", "/v1/validate?error_budget=0.01", "/v1/validate?model=dynamic&duration=100ms"}
	var bodies [][]byte
	for _, uc := range usecases.All() {
		bodies = append(bodies, specBody(t, uc.Name))
	}
	ref := New(Config{}).Handler()
	want := make([][]byte, len(paths)*len(bodies))
	for i := range want {
		rec := serve(ref, paths[i%len(paths)], bodies[i/len(paths)], "")
		if rec.Code != http.StatusOK {
			t.Fatalf("%s: status %d: %s", paths[i%len(paths)], rec.Code, rec.Body)
		}
		want[i] = rec.Body.Bytes()
	}

	s := New(Config{})
	h := s.Handler()
	for _, body := range bodies {
		serve(h, "/v1/design", body, "")
		serve(h, "/v1/design", body, "")
	}
	if n := s.memo.Len(); n != len(bodies) {
		t.Fatalf("memo holds %d bodies, want %d", n, len(bodies))
	}
	const workers = 8
	var wg sync.WaitGroup
	for g := 0; g < workers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for k := range want {
				i := (k + g*len(want)/workers) % len(want)
				path := paths[i%len(paths)]
				rec := serve(h, path, bodies[i/len(paths)], "")
				if rec.Code != http.StatusOK || !bytes.Equal(rec.Body.Bytes(), want[i]) {
					t.Errorf("worker %d %s body %d: status %d, reply differs from a fresh server's", g, path, i/len(paths), rec.Code)
				}
			}
		}(g)
	}
	wg.Wait()
	if n := s.memo.Len(); n != len(bodies) {
		t.Fatalf("memo holds %d bodies after the run, want %d", n, len(bodies))
	}
}

// FuzzServeSpec: whatever the body, /v1/design and exact validation
// answer without a 500 or a panic, every 2xx body is JSON, and the
// same body sent twice more, parsed and then memoized, gets the first
// reply again unless a deadline or cancellation intervened.
func FuzzServeSpec(f *testing.F) {
	marshal := func(spec core.Spec) []byte {
		raw, err := specio.Marshal(spec)
		if err != nil {
			f.Fatal(err)
		}
		return raw
	}
	for _, uc := range usecases.All() {
		f.Add(marshal(uc.Build()))
	}
	fig4 := usecases.Fig4Instance().Spec
	for _, fl := range []struct{ viscosity, density float64 }{
		{1e300, 0}, {1e-300, 0}, {1e-5, 1e300}, {-1, -5},
	} {
		spec := fig4
		spec.Fluid.Viscosity = units.PascalSeconds(fl.viscosity)
		if fl.density != 0 {
			spec.Fluid.Density = units.KilogramsPerCubicMetre(fl.density)
		}
		f.Add(marshal(spec))
	}
	generic4, err := usecases.ByName("generic4")
	if err != nil {
		f.Fatal(err)
	}
	wide := generic4.Build()
	first := wide.Modules[0]
	wide.Modules = nil
	for i := 0; i < 17; i++ {
		m := first
		m.Name = fmt.Sprintf("module%d", i)
		wide.Modules = append(wide.Modules, m)
	}
	f.Add(marshal(wide))
	// An ignored field pads the body to half a megabyte; the spec it
	// parses to is male_simple's.
	fig4Body := marshal(fig4)
	f.Add([]byte(`{"padding": "` + strings.Repeat("x", 512<<10) + `",` + string(fig4Body[1:])))

	h := New(Config{}).Handler()
	f.Fuzz(func(t *testing.T, body []byte) {
		for _, path := range []string{"/v1/design?timeout=2s", "/v1/validate?model=exact&timeout=2s"} {
			var recs [3]*httptest.ResponseRecorder
			interrupted := false
			for i := range recs {
				rec := serve(h, path, body, "")
				recs[i] = rec
				switch {
				case rec.Code == http.StatusInternalServerError:
					t.Fatalf("%s: 500: %s", path, rec.Body)
				case rec.Code/100 == 2 && !json.Valid(rec.Body.Bytes()):
					t.Fatalf("%s: %d reply is not JSON: %.200s", path, rec.Code, rec.Body)
				case rec.Code == http.StatusServiceUnavailable || rec.Code == http.StatusGatewayTimeout:
					interrupted = true
				}
			}
			if interrupted {
				continue
			}
			for i := 1; i < len(recs); i++ {
				if recs[i].Code != recs[0].Code || !bytes.Equal(recs[i].Body.Bytes(), recs[0].Body.Bytes()) {
					t.Fatalf("%s: reply %d (%d) differs from the first (%d)", path, i+1, recs[i].Code, recs[0].Code)
				}
			}
		}
	})
}
