package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"ooc/internal/cachesnap"
	"ooc/internal/core"
)

// snapshotServer builds a Server whose generate/validate are counting
// stubs, so tests can pin "served from cache, zero pipeline calls".
func snapshotServer(t *testing.T, calls *int) (*Server, *httptest.Server) {
	t.Helper()
	s := New(Config{})
	s.generate = func(ctx context.Context, spec core.Spec) (*core.Design, error) {
		*calls++
		return core.Generate(spec)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return s, ts
}

func putSnapshot(t *testing.T, url string, body []byte) *http.Response {
	t.Helper()
	req, err := http.NewRequest(http.MethodPut, url+"/v1/cache", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", cachesnap.ContentType)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = resp.Body.Close() })
	return resp
}

// TestCachePeerFill: GET /v1/cache on a warmed server, PUT the body
// into a cold one, and the cold server answers the same requests as
// hits without ever invoking the pipeline — the peer-fill protocol end
// to end, over real HTTP.
func TestCachePeerFill(t *testing.T) {
	var warmCalls int
	_, warm := snapshotServer(t, &warmCalls)
	spec := specBody(t, "male_simple")
	paths := []string{"/v1/design", "/v1/validate?model=exact"}

	for _, path := range paths {
		resp, err := http.Post(warm.URL+path, "application/json", bytes.NewReader(spec))
		if err != nil {
			t.Fatal(err)
		}
		_ = resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("warm %s request: %d", path, resp.StatusCode)
		}
	}
	if warmCalls != len(paths) {
		t.Fatalf("warm server pipeline calls = %d, want %d", warmCalls, len(paths))
	}

	exp, err := http.Get(warm.URL + "/v1/cache")
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = exp.Body.Close() }()
	if exp.StatusCode != http.StatusOK {
		t.Fatalf("GET /v1/cache: %d", exp.StatusCode)
	}
	if ct := exp.Header.Get("Content-Type"); ct != cachesnap.ContentType {
		t.Fatalf("snapshot content type %q", ct)
	}
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(exp.Body); err != nil {
		t.Fatal(err)
	}

	var coldCalls int
	coldSrv, cold := snapshotServer(t, &coldCalls)
	put := putSnapshot(t, cold.URL, buf.Bytes())
	if put.StatusCode != http.StatusOK {
		t.Fatalf("PUT /v1/cache: %d", put.StatusCode)
	}
	var st RestoreStats
	if err := json.NewDecoder(put.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	if st.Responses != len(paths) {
		t.Fatalf("imported %d responses, want %d", st.Responses, len(paths))
	}

	for _, path := range paths {
		resp2, err := http.Post(cold.URL+path, "application/json", bytes.NewReader(spec))
		if err != nil {
			t.Fatal(err)
		}
		_ = resp2.Body.Close()
		if resp2.StatusCode != http.StatusOK {
			t.Fatalf("cold %s request: %d", path, resp2.StatusCode)
		}
		if got := resp2.Header.Get("X-Cache"); got != "hit" {
			t.Fatalf("cold server %s X-Cache = %q, want hit", path, got)
		}
	}
	if coldCalls != 0 {
		t.Fatalf("cold server ran the pipeline %d times despite the import", coldCalls)
	}
	snap := coldSrv.Collector().Snapshot()
	if got := snap.Counter("server.cache.snapshot.imports"); got != 1 {
		t.Fatalf("snapshot.imports = %d, want 1", got)
	}
	if got := snap.Counter("server.cache.hits"); got != int64(len(paths)) {
		t.Fatalf("response cache hits = %d, want %d", got, len(paths))
	}
}

// TestCachePutRejections: a corrupt body is 400, a version or schema
// mismatch is 409, and a rejected PUT leaves the cache untouched.
func TestCachePutRejections(t *testing.T) {
	var calls int
	s, ts := snapshotServer(t, &calls)

	good := new(bytes.Buffer)
	if err := cachesnap.Write(good, &cachesnap.Snapshot{}); err != nil {
		t.Fatal(err)
	}
	base := good.Bytes()

	futureVersion := append([]byte(nil), base...)
	futureVersion[8+3] ^= 0xFF // version field, bytes 8..11
	schemaFlip := append([]byte(nil), base...)
	schemaFlip[12] ^= 0x01 // schema hash, bytes 12..19
	crcFlip := append([]byte(nil), base...)
	crcFlip[len(crcFlip)-1] ^= 0x01

	cases := []struct {
		name string
		body []byte
		want int
	}{
		{"garbage", []byte("not a snapshot at all"), http.StatusBadRequest},
		{"truncated", base[:10], http.StatusBadRequest},
		{"crc", crcFlip, http.StatusBadRequest},
		{"version", futureVersion, http.StatusConflict},
		{"schema", schemaFlip, http.StatusConflict},
	}
	for _, tc := range cases {
		resp := putSnapshot(t, ts.URL, tc.body)
		if resp.StatusCode != tc.want {
			t.Errorf("%s: status %d, want %d", tc.name, resp.StatusCode, tc.want)
		}
	}
	if got := s.cache.Len(); got != 0 {
		t.Fatalf("rejected snapshots installed %d entries", got)
	}
	if got := s.Collector().Snapshot().Counter("server.cache.snapshot.imports"); got != 0 {
		t.Fatalf("rejected snapshots counted %d imports", got)
	}

	// The happy path still works after the rejections.
	if resp := putSnapshot(t, ts.URL, base); resp.StatusCode != http.StatusOK {
		t.Fatalf("valid empty snapshot: %d", resp.StatusCode)
	}
}

// TestWriteSnapshotRoundTrip: Server.WriteSnapshot → cachesnap.Read →
// RestoreSnapshot restores the response cache (the file-based
// warm-boot path that cmd/oocd drives, minus the filesystem).
func TestWriteSnapshotRoundTrip(t *testing.T) {
	var calls int
	s, ts := snapshotServer(t, &calls)

	// An exact validate populates the response cache.
	resp, err := http.Post(ts.URL+"/v1/validate?model=exact", "application/json", bytes.NewReader(specBody(t, "male_simple")))
	if err != nil {
		t.Fatal(err)
	}
	_ = resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("validate: %d", resp.StatusCode)
	}

	var buf bytes.Buffer
	if err := s.WriteSnapshot(&buf); err != nil {
		t.Fatal(err)
	}
	snap, err := cachesnap.Read(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if len(snap.Responses) != 1 {
		t.Fatalf("snapshot holds %d responses, want 1", len(snap.Responses))
	}

	var coldCalls int
	cold, _ := snapshotServer(t, &coldCalls)
	st := cold.RestoreSnapshot(snap)
	if st.Responses != 1 {
		t.Fatalf("restore stats %+v", st)
	}
	if cold.cache.LenCompleted() != 1 {
		t.Fatalf("restored response cache holds %d entries", cold.cache.LenCompleted())
	}
}

// TestMetricsExposesCacheCounters: the new counters render under their
// own names in /metrics, not as generic ooc_counter lines.
func TestMetricsExposesCacheCounters(t *testing.T) {
	s := New(Config{})
	s.col.Add("server.cache.join_aborts", 2)
	s.col.Add("server.cache.snapshot.exports", 1)
	s.col.Add("server.cache.snapshot.imports", 1)
	s.col.Add("server.cache.import.responses", 3)
	text := s.MetricsText()
	for _, want := range []string{
		"ooc_response_cache_join_aborts_total 2",
		"ooc_cache_snapshot_exports_total 1",
		"ooc_cache_snapshot_imports_total 1",
		`ooc_cache_imported_entries_total{cache="response"} 3`,
	} {
		if !strings.Contains(text, want) {
			t.Errorf("metrics missing %q:\n%s", want, text)
		}
	}
	if strings.Contains(text, fmt.Sprintf("ooc_counter{name=%q}", "server.cache.join_aborts")) {
		t.Error("join_aborts fell through to the generic counter rendering")
	}
}
