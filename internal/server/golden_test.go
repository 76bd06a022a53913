package server

import (
	"bytes"
	"flag"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"testing"
)

// Served bodies are pinned byte for byte: clients parse them, and the
// response cache, its snapshots and peer fills hold them verbatim, so
// any change to how a document is encoded shows up as a diff.
// Regenerate only after an intentional change to a served document
// with:
//
//	go test ./internal/server/ -run TestGoldenBodies -update
var update = flag.Bool("update", false, "rewrite the golden files")

// goldenRequests are the pinned requests: a design, an exact and a
// budgeted validation, and a dosed transient run.
var goldenRequests = []struct{ name, path string }{
	{"design", "/v1/design"},
	{"validate_exact", "/v1/validate"},
	{"validate_budget", "/v1/validate?error_budget=0.01"},
	{"validate_dynamic", "/v1/validate?model=dynamic&duration=1s&profile=pulse:0.5@500ms&dose=1"},
}

// TestGoldenBodies sends each golden request for the smallest organ
// chip (male_simple) and the largest generic chip (generic4) and
// compares the reply body with its golden file.
func TestGoldenBodies(t *testing.T) {
	h := New(Config{}).Handler()
	for _, uc := range []string{"male_simple", "generic4"} {
		body := specBody(t, uc)
		for _, g := range goldenRequests {
			t.Run(uc+"/"+g.name, func(t *testing.T) {
				rec := httptest.NewRecorder()
				h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, g.path, bytes.NewReader(body)))
				if rec.Code != http.StatusOK {
					t.Fatalf("status %d: %s", rec.Code, rec.Body)
				}
				checkGolden(t, g.name+"_"+uc+".json", rec.Body.Bytes())
			})
		}
	}
}

func checkGolden(t *testing.T, name string, got []byte) {
	t.Helper()
	path := filepath.Join("testdata", name+".golden")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden file (run with -update to create): %v", err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("%s drifted from %s\n--- got ---\n%s--- want ---\n%s", name, path, got, want)
	}
}
