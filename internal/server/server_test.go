package server

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"ooc/internal/core"
	"ooc/internal/obs"
	"ooc/internal/render"
	"ooc/internal/sim"
	"ooc/internal/specio"
	"ooc/internal/usecases"
)

// specBody marshals a built-in use case into a request body.
func specBody(t *testing.T, name string) []byte {
	t.Helper()
	uc, err := usecases.ByName(name)
	if err != nil {
		t.Fatal(err)
	}
	raw, err := specio.Marshal(uc.Build())
	if err != nil {
		t.Fatal(err)
	}
	return raw
}

func post(t *testing.T, client *http.Client, url string, body []byte, header map[string]string) (*http.Response, []byte) {
	t.Helper()
	req, err := http.NewRequest(http.MethodPost, url, strings.NewReader(string(body)))
	if err != nil {
		t.Fatal(err)
	}
	for k, v := range header {
		req.Header.Set(k, v)
	}
	resp, err := client.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if err := resp.Body.Close(); err != nil {
			t.Error(err)
		}
	}()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp, raw
}

// TestDesignEndToEnd: a real spec in, a loadable design out; the
// second identical request is a cache hit with byte-identical body,
// and /metrics reflects all of it.
func TestDesignEndToEnd(t *testing.T) {
	s := New(Config{})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	body := specBody(t, "male_simple")
	resp1, raw1 := post(t, ts.Client(), ts.URL+"/v1/design", body, nil)
	if resp1.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp1.StatusCode, raw1)
	}
	if got := resp1.Header.Get("X-Cache"); got != "miss" {
		t.Fatalf("first request X-Cache = %q", got)
	}
	d, err := render.ParseJSON(raw1)
	if err != nil {
		t.Fatalf("response is not a loadable design: %v", err)
	}
	if d.Name != "male_simple" || len(d.Modules) != 3 {
		t.Fatalf("unexpected design: %s with %d modules", d.Name, len(d.Modules))
	}

	resp2, raw2 := post(t, ts.Client(), ts.URL+"/v1/design", body, nil)
	if resp2.StatusCode != http.StatusOK || resp2.Header.Get("X-Cache") != "hit" {
		t.Fatalf("second request: status %d X-Cache %q", resp2.StatusCode, resp2.Header.Get("X-Cache"))
	}
	if string(raw1) != string(raw2) {
		t.Fatal("cached response differs from the fresh one")
	}

	// The same logical spec with different formatting still hits.
	var generic map[string]any
	if err := json.Unmarshal(body, &generic); err != nil {
		t.Fatal(err)
	}
	compact, err := json.Marshal(generic)
	if err != nil {
		t.Fatal(err)
	}
	resp3, _ := post(t, ts.Client(), ts.URL+"/v1/design", compact, nil)
	if resp3.Header.Get("X-Cache") != "hit" {
		t.Fatal("reformatted identical spec missed the cache")
	}

	snap := s.Collector().Snapshot()
	if got := snap.Counter("requests.design.200"); got != 3 {
		t.Fatalf("request counter: %d", got)
	}
	if snap.Counter("server.cache.hits") != 2 || snap.Counter("server.cache.misses") != 1 {
		t.Fatalf("cache counters: %+v", snap.Counters)
	}

	mResp, mRaw := func() (*http.Response, []byte) {
		resp, err := ts.Client().Get(ts.URL + "/metrics")
		if err != nil {
			t.Fatal(err)
		}
		defer func() {
			if err := resp.Body.Close(); err != nil {
				t.Error(err)
			}
		}()
		raw, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return resp, raw
	}()
	if mResp.StatusCode != http.StatusOK {
		t.Fatalf("/metrics status %d", mResp.StatusCode)
	}
	metrics := string(mRaw)
	for _, want := range []string{
		`ooc_requests_total{endpoint="design",status="200"} 3`,
		`ooc_response_cache_hits_total 2`,
		`ooc_response_cache_misses_total 1`,
		`ooc_request_duration_micros_count{endpoint="design"} 3`,
	} {
		if !strings.Contains(metrics, want) {
			t.Errorf("/metrics lacks %q:\n%s", want, metrics)
		}
	}
}

// TestValidateEndpoint: JSON and text renderings, model selection, and
// rejection of unknown models with the valid spellings.
func TestValidateEndpoint(t *testing.T) {
	s := New(Config{})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	body := specBody(t, "male_simple")

	resp, raw := post(t, ts.Client(), ts.URL+"/v1/validate?model=exact", body, nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, raw)
	}
	var out validateResult
	if err := json.Unmarshal(raw, &out); err != nil {
		t.Fatal(err)
	}
	if out.Name != "male_simple" || out.Model != "exact" || len(out.Modules) != 3 {
		t.Fatalf("unexpected report: %+v", out)
	}
	if out.MaxFlowDeviation <= 0 || out.MaxFlowDeviation > 0.10 {
		t.Fatalf("implausible max flow deviation %g", out.MaxFlowDeviation)
	}

	// Text rendering via Accept, and it is a distinct cache entry.
	respText, rawText := post(t, ts.Client(), ts.URL+"/v1/validate?model=exact", body,
		map[string]string{"Accept": "text/plain"})
	if respText.StatusCode != http.StatusOK || respText.Header.Get("X-Cache") != "miss" {
		t.Fatalf("text rendering: status %d X-Cache %q", respText.StatusCode, respText.Header.Get("X-Cache"))
	}
	if !strings.Contains(string(rawText), "module flow rates") || !strings.Contains(string(rawText), "aggregate:") {
		t.Fatalf("text rendering unexpected:\n%s", rawText)
	}

	respBad, rawBad := post(t, ts.Client(), ts.URL+"/v1/validate?model=spectral", body, nil)
	if respBad.StatusCode != http.StatusBadRequest {
		t.Fatalf("unknown model: status %d", respBad.StatusCode)
	}
	if !strings.Contains(string(rawBad), sim.ModelNames) {
		t.Fatalf("unknown-model error does not list valid models: %s", rawBad)
	}
}

// TestBadRequests: malformed body, wrong method, bad timeout.
func TestBadRequests(t *testing.T) {
	s := New(Config{})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	resp, _ := post(t, ts.Client(), ts.URL+"/v1/design", []byte("{not json"), nil)
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("malformed body: status %d", resp.StatusCode)
	}
	getResp, err := ts.Client().Get(ts.URL + "/v1/design")
	if err != nil {
		t.Fatal(err)
	}
	if err := getResp.Body.Close(); err != nil {
		t.Error(err)
	}
	if getResp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("GET design: status %d", getResp.StatusCode)
	}
	resp, _ = post(t, ts.Client(), ts.URL+"/v1/design?timeout=banana", specBody(t, "male_simple"), nil)
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad timeout: status %d", resp.StatusCode)
	}
	// A spec the pipeline rejects is 422, not cached.
	resp, _ = post(t, ts.Client(), ts.URL+"/v1/design", []byte(`{"name":"empty"}`), nil)
	if resp.StatusCode != http.StatusUnprocessableEntity {
		t.Fatalf("empty spec: status %d", resp.StatusCode)
	}
	resp, _ = post(t, ts.Client(), ts.URL+"/v1/design", []byte(`{"name":"empty"}`), nil)
	if resp.Header.Get("X-Cache") != "miss" {
		t.Fatal("a failed generate must not be cached")
	}
}

// TestSingleflight: N identical concurrent requests perform exactly
// one solve; everyone gets the same 200.
func TestSingleflight(t *testing.T) {
	const n = 8
	var solves atomic.Int64
	gate := make(chan struct{})
	s := New(Config{MaxConcurrent: n, QueueDepth: n})
	s.generate = func(_ context.Context, spec core.Spec) (*core.Design, error) {
		solves.Add(1)
		<-gate
		return core.Generate(spec)
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	body := specBody(t, "male_simple")

	var wg sync.WaitGroup
	statuses := make([]int, n)
	fire := func(i int) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			resp, raw := post(t, ts.Client(), ts.URL+"/v1/design", body, nil)
			statuses[i] = resp.StatusCode
			_ = raw
		}()
	}
	// Let the first request own the singleflight slot before the rest
	// arrive: a miss is counted only after the slot is installed, so
	// once it shows the others can only join (or, post-completion, hit)
	// that entry — never start a second solve. Joined waiters are not
	// observable through the counters any more (a join is counted as a
	// hit only once the waiter actually receives the owner's result —
	// counting at join time was the accounting bug this pins against),
	// so the followers simply block on the entry until the gate opens.
	fire(0)
	deadline := time.Now().Add(5 * time.Second)
	for s.Collector().Snapshot().Counter("server.cache.misses") == 0 {
		if time.Now().After(deadline) {
			t.Fatal("owner request never reached the cache")
		}
		time.Sleep(time.Millisecond)
	}
	for i := 1; i < n; i++ {
		fire(i)
	}
	time.Sleep(20 * time.Millisecond) // let the followers join in flight
	close(gate)
	wg.Wait()

	for i, st := range statuses {
		if st != http.StatusOK {
			t.Fatalf("request %d: status %d", i, st)
		}
	}
	if got := solves.Load(); got != 1 {
		t.Fatalf("%d identical concurrent requests performed %d solves, want exactly 1", n, got)
	}
	snap := s.Collector().Snapshot()
	if snap.Counter("server.cache.misses") != 1 || snap.Counter("server.cache.hits") != n-1 {
		t.Fatalf("cache counters: %+v", snap.Counters)
	}
	if snap.Counter("server.cache.join_aborts") != 0 {
		t.Fatalf("no waiter expired, yet join_aborts = %d", snap.Counter("server.cache.join_aborts"))
	}
}

// TestQueueOverflow429: with one slot and a queue of one, a third
// distinct request is rejected with 429 + Retry-After while the others
// eventually succeed.
func TestQueueOverflow429(t *testing.T) {
	gate := make(chan struct{})
	s := New(Config{MaxConcurrent: 1, QueueDepth: 1})
	s.generate = func(_ context.Context, spec core.Spec) (*core.Design, error) {
		<-gate
		return core.Generate(spec)
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	type result struct {
		status int
	}
	results := make(chan result, 2)
	for _, name := range []string{"male_simple", "female_simple"} {
		go func(name string) {
			resp, _ := post(t, ts.Client(), ts.URL+"/v1/design", specBody(t, name), nil)
			results <- result{resp.StatusCode}
		}(name)
	}
	// Wait until one request holds the slot and one waits in the queue.
	deadline := time.Now().Add(5 * time.Second)
	for {
		inflight, queued := s.adm.gauges()
		if inflight == 1 && queued == 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("occupancy never reached 1/1: inflight %d queued %d", inflight, queued)
		}
		time.Sleep(time.Millisecond)
	}

	resp, raw := post(t, ts.Client(), ts.URL+"/v1/design", specBody(t, "male_kidney"), nil)
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("overflow request: status %d body %s", resp.StatusCode, raw)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("429 without Retry-After")
	}

	close(gate)
	for i := 0; i < 2; i++ {
		if r := <-results; r.status != http.StatusOK {
			t.Fatalf("blocked request finished with %d", r.status)
		}
	}
	if got := s.Collector().Snapshot().Counter("requests.design.429"); got != 1 {
		t.Fatalf("429 counter: %d", got)
	}
}

// TestDeadline504: a request whose budget expires — in the queue or in
// the solve — is answered with 504, and the error wraps the deadline
// (not a generic failure).
func TestDeadline504(t *testing.T) {
	// Queue-wait expiry: one slot held forever, the second request's
	// 50ms budget burns down while waiting.
	gate := make(chan struct{})
	s := New(Config{MaxConcurrent: 1, QueueDepth: 2})
	s.generate = func(_ context.Context, spec core.Spec) (*core.Design, error) {
		<-gate
		return core.Generate(spec)
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	holder := make(chan int, 1)
	go func() {
		resp, _ := post(t, ts.Client(), ts.URL+"/v1/design", specBody(t, "male_simple"), nil)
		holder <- resp.StatusCode
	}()
	deadline := time.Now().Add(5 * time.Second)
	for {
		if inflight, _ := s.adm.gauges(); inflight == 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("holder never claimed the slot")
		}
		time.Sleep(time.Millisecond)
	}
	resp, raw := post(t, ts.Client(), ts.URL+"/v1/design?timeout=50ms", specBody(t, "female_simple"), nil)
	if resp.StatusCode != http.StatusGatewayTimeout {
		t.Fatalf("queued past deadline: status %d body %s", resp.StatusCode, raw)
	}
	if !strings.Contains(string(raw), "deadline") {
		t.Fatalf("504 body does not mention the deadline: %s", raw)
	}
	close(gate)
	if st := <-holder; st != http.StatusOK {
		t.Fatalf("holder finished with %d", st)
	}

	// Solve expiry: the validate pipeline consumes the whole budget;
	// the deadline propagates through the context plumbing to a 504.
	s2 := New(Config{})
	s2.validate = func(ctx context.Context, d *core.Design, opt sim.Options) (*sim.Report, error) {
		<-ctx.Done()
		return nil, fmt.Errorf("sim: aborted: %w", ctx.Err())
	}
	ts2 := httptest.NewServer(s2.Handler())
	defer ts2.Close()
	resp2, raw2 := post(t, ts2.Client(), ts2.URL+"/v1/validate?timeout=50ms", specBody(t, "male_simple"), nil)
	if resp2.StatusCode != http.StatusGatewayTimeout {
		t.Fatalf("solve past deadline: status %d body %s", resp2.StatusCode, raw2)
	}
	// The failed solve must not be cached: the next request with a
	// real budget succeeds.
	s2.validate = sim.ValidateContext
	resp3, raw3 := post(t, ts2.Client(), ts2.URL+"/v1/validate", specBody(t, "male_simple"), nil)
	if resp3.StatusCode != http.StatusOK {
		t.Fatalf("post-timeout retry: status %d body %s", resp3.StatusCode, raw3)
	}
}

// TestGracefulDrain: cancelling the Serve context stops the listener,
// lets the in-flight request finish, and Serve returns cleanly.
func TestGracefulDrain(t *testing.T) {
	gate := make(chan struct{})
	s := New(Config{MaxConcurrent: 2, DrainTimeout: 5 * time.Second})
	s.generate = func(_ context.Context, spec core.Spec) (*core.Design, error) {
		<-gate
		return core.Generate(spec)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	serveDone := make(chan error, 1)
	go func() { serveDone <- s.Serve(ctx, ln) }()

	url := "http://" + ln.Addr().String()
	client := &http.Client{}
	inflightDone := make(chan int, 1)
	go func() {
		resp, _ := post(t, client, url+"/v1/design", specBody(t, "male_simple"), nil)
		inflightDone <- resp.StatusCode
	}()
	deadline := time.Now().Add(5 * time.Second)
	for {
		if inflight, _ := s.adm.gauges(); inflight == 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("request never started solving")
		}
		time.Sleep(time.Millisecond)
	}

	cancel() // begin the drain
	// New connections are refused once the listener closes.
	refusedBy := time.Now().Add(5 * time.Second)
	for {
		conn, err := (&net.Dialer{}).Dial("tcp", ln.Addr().String())
		if err != nil {
			break
		}
		// A probe accepted before the listener closed never sends a
		// request; left open, Shutdown would wait up to 5 s on it and
		// exhaust the drain budget. Only the dial matters, so a Close
		// error is irrelevant.
		_ = conn.Close()
		if time.Now().After(refusedBy) {
			t.Fatal("listener still accepting after drain began")
		}
		time.Sleep(5 * time.Millisecond)
	}
	select {
	case err := <-serveDone:
		t.Fatalf("Serve returned before the in-flight request finished: %v", err)
	case <-time.After(100 * time.Millisecond):
	}

	close(gate) // let the in-flight request complete
	if st := <-inflightDone; st != http.StatusOK {
		t.Fatalf("in-flight request finished with %d during drain", st)
	}
	select {
	case err := <-serveDone:
		if err != nil {
			t.Fatalf("drain was not clean: %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Serve did not return after the drain")
	}
}

// TestDrainTimeoutCancelsStragglers: a request that outlives the drain
// budget has its context cancelled instead of being waited on forever.
func TestDrainTimeoutCancelsStragglers(t *testing.T) {
	released := make(chan struct{})
	s := New(Config{DrainTimeout: 100 * time.Millisecond})
	s.validate = func(ctx context.Context, d *core.Design, opt sim.Options) (*sim.Report, error) {
		<-ctx.Done() // simulate a solve that only stops cooperatively
		close(released)
		return nil, fmt.Errorf("sim: aborted: %w", ctx.Err())
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	serveDone := make(chan error, 1)
	go func() { serveDone <- s.Serve(ctx, ln) }()

	go func() {
		// The response will be cut; transport errors are expected.
		req, err := http.NewRequest(http.MethodPost, "http://"+ln.Addr().String()+"/v1/validate",
			strings.NewReader(string(specBody(t, "male_simple"))))
		if err != nil {
			return
		}
		resp, err := (&http.Client{}).Do(req)
		if err == nil {
			_ = resp.Body.Close()
		}
	}()
	deadline := time.Now().Add(5 * time.Second)
	for {
		if inflight, _ := s.adm.gauges(); inflight == 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("request never started solving")
		}
		time.Sleep(time.Millisecond)
	}

	cancel()
	select {
	case <-released:
	case <-time.After(5 * time.Second):
		t.Fatal("straggler's context was never cancelled")
	}
	select {
	case err := <-serveDone:
		if err == nil {
			t.Fatal("expected a drain-timeout error")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Serve did not return after the forced drain")
	}
}

// TestHealthz: liveness endpoint.
func TestHealthz(t *testing.T) {
	ts := httptest.NewServer(New(Config{}).Handler())
	defer ts.Close()
	resp, err := ts.Client().Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if err := resp.Body.Close(); err != nil {
		t.Error(err)
	}
	if resp.StatusCode != http.StatusOK || string(raw) != "ok\n" {
		t.Fatalf("healthz: %d %q", resp.StatusCode, raw)
	}
}

// TestTelemetryFlowsIntoMetrics: a dosed dynamic validation records
// its step count in the server's collector, visible in /metrics.
func TestTelemetryFlowsIntoMetrics(t *testing.T) {
	col := obs.NewCollector()
	s := New(Config{Collector: col})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	resp, raw := post(t, ts.Client(), ts.URL+"/v1/validate?model=dynamic&duration=1s&dose=1", specBody(t, "male_simple"), nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, raw)
	}
	steps := col.Snapshot().Counter("dyn.steps")
	if steps <= 0 {
		t.Fatalf("dynamic validation recorded %d steps", steps)
	}
	metrics := s.MetricsText()
	if want := fmt.Sprintf("ooc_counter{name=%q} %d", "dyn.steps", steps); !strings.Contains(metrics, want) {
		t.Fatalf("/metrics lacks %q:\n%s", want, metrics)
	}
}
