package server

import (
	"context"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"ooc/internal/core"
	"ooc/internal/jobs"
	"ooc/internal/optimize"
)

// jobBody builds a POST /v1/jobs body around a built-in use case.
func jobBody(t *testing.T, usecase string, fields map[string]any) []byte {
	t.Helper()
	doc := map[string]any{"spec": json.RawMessage(specBody(t, usecase))}
	for k, v := range fields {
		doc[k] = v
	}
	raw, err := json.Marshal(doc)
	if err != nil {
		t.Fatal(err)
	}
	return raw
}

// pollJob polls GET /v1/jobs/{id} until the job is terminal.
func pollJob(t *testing.T, ts *httptest.Server, id string) map[string]any {
	t.Helper()
	deadline := time.Now().Add(60 * time.Second)
	for time.Now().Before(deadline) {
		st := getJob(t, ts, id)
		switch st["state"] {
		case "succeeded", "failed", "canceled":
			return st
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("job %s never finished", id)
	return nil
}

func getJob(t *testing.T, ts *httptest.Server, id string) map[string]any {
	t.Helper()
	resp, err := ts.Client().Get(ts.URL + "/v1/jobs/" + id)
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if err := resp.Body.Close(); err != nil {
			t.Error(err)
		}
	}()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("poll status %d", resp.StatusCode)
	}
	var st map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	return st
}

// TestJobsEndToEnd: submit a successive-halving search over the
// default 20-candidate grid, poll it to completion, and check the
// final status carries the full result — plus the jobs counters in
// /metrics.
func TestJobsEndToEnd(t *testing.T) {
	s := New(Config{})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	resp, raw := post(t, ts.Client(), ts.URL+"/v1/jobs",
		jobBody(t, "male_simple", map[string]any{"strategy": "halving"}), nil)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit status %d: %s", resp.StatusCode, raw)
	}
	var sub map[string]any
	if err := json.Unmarshal(raw, &sub); err != nil {
		t.Fatal(err)
	}
	id, _ := sub["id"].(string)
	if id == "" {
		t.Fatalf("no job id in %s", raw)
	}
	if loc := resp.Header.Get("Location"); loc != "/v1/jobs/"+id {
		t.Fatalf("Location %q", loc)
	}
	if resp.Header.Get("X-OOC-Timeout") == "" {
		t.Fatal("submit response missing the effective job budget")
	}

	final := pollJob(t, ts, id)
	if final["state"] != "succeeded" {
		t.Fatalf("job ended %v: %v", final["state"], final["error"])
	}
	evaluated := final["evaluated"].(float64)
	full := final["full_evaluations"].(float64)
	if evaluated < 20 || full >= evaluated {
		t.Fatalf("halving job evaluated=%v full=%v, want a cheap-rung saving", evaluated, full)
	}
	if final["best_geometry"] == nil || final["best"] == nil {
		t.Fatalf("succeeded job without a winner: %v", final)
	}
	if n := len(final["candidates"].([]any)); n != int(evaluated) {
		t.Fatalf("candidate log has %d entries, evaluated %v", n, evaluated)
	}
	if len(final["rungs"].([]any)) < 2 {
		t.Fatal("halving job reports no rung schedule")
	}

	// The list view includes the job, without the bulky candidate log.
	lresp, err := ts.Client().Get(ts.URL + "/v1/jobs")
	if err != nil {
		t.Fatal(err)
	}
	var list []map[string]any
	if err := json.NewDecoder(lresp.Body).Decode(&list); err != nil {
		t.Fatal(err)
	}
	if err := lresp.Body.Close(); err != nil {
		t.Error(err)
	}
	if lresp.StatusCode != http.StatusOK {
		t.Fatalf("list status %d", lresp.StatusCode)
	}
	if len(list) != 1 || list[0]["id"] != id || list[0]["candidates"] != nil {
		t.Fatalf("job list: %v", list)
	}

	metrics := s.MetricsText()
	for _, want := range []string{
		"ooc_jobs_submitted_total 1",
		`ooc_jobs_completed_total{state="succeeded"} 1`,
		"ooc_job_duration_micros_count",
		`ooc_halving_rung_evaluated_total{rung="0"} 20`,
	} {
		if !strings.Contains(metrics, want) {
			t.Fatalf("metrics missing %q:\n%s", want, metrics)
		}
	}
}

// TestJobsDeterministicAcrossWorkers: the acceptance property — the
// terminal status (best candidate, candidate log, rung schedule) is
// byte-identical for workers=1 and workers=8.
func TestJobsDeterministicAcrossWorkers(t *testing.T) {
	s := New(Config{})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	run := func(workers int) []byte {
		resp, raw := post(t, ts.Client(), ts.URL+"/v1/jobs",
			jobBody(t, "male_simple", map[string]any{"strategy": "halving", "workers": workers}), nil)
		if resp.StatusCode != http.StatusAccepted {
			t.Fatalf("workers=%d submit: %d %s", workers, resp.StatusCode, raw)
		}
		var sub map[string]any
		if err := json.Unmarshal(raw, &sub); err != nil {
			t.Fatal(err)
		}
		final := pollJob(t, ts, sub["id"].(string))
		if final["state"] != "succeeded" {
			t.Fatalf("workers=%d job ended %v: %v", workers, final["state"], final["error"])
		}
		// The id is the only legitimately run-specific field.
		delete(final, "id")
		canon, err := json.Marshal(final)
		if err != nil {
			t.Fatal(err)
		}
		return canon
	}
	serial := run(1)
	par := run(8)
	if string(serial) != string(par) {
		t.Fatalf("terminal job status differs across worker counts:\n%s\nvs\n%s", serial, par)
	}
}

// blockingJobSearch parks until cancelled, reporting one progress
// event first, and returns the partial result the optimize contract
// promises.
func blockingJobSearch(started chan string) func(context.Context, core.Spec, optimize.Options) (*optimize.Result, error) {
	return func(ctx context.Context, spec core.Spec, opt optimize.Options) (*optimize.Result, error) {
		if opt.Progress != nil {
			opt.Progress(optimize.Progress{Evaluated: 3, Total: 20})
		}
		select {
		case started <- spec.Name:
		default:
		}
		<-ctx.Done()
		return &optimize.Result{Evaluated: 3}, fmt.Errorf("aborted: %w", ctx.Err())
	}
}

// stubJobs swaps the server's job manager for one with a controllable
// search body. Tests that need jobs to block use this seam exactly
// like the generate/validate stubs.
func stubJobs(s *Server, cfg jobs.Config) {
	if cfg.Collector == nil {
		cfg.Collector = s.col
	}
	s.jobs = jobs.NewManager(cfg)
}

// TestJobsCancelMidRun: DELETE on a running job answers the
// post-cancel snapshot quickly, and the job stays pollable with its
// partial progress.
func TestJobsCancelMidRun(t *testing.T) {
	s := New(Config{})
	started := make(chan string, 1)
	stubJobs(s, jobs.Config{Search: blockingJobSearch(started)})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	resp, raw := post(t, ts.Client(), ts.URL+"/v1/jobs", jobBody(t, "male_simple", nil), nil)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: %d %s", resp.StatusCode, raw)
	}
	var sub map[string]any
	if err := json.Unmarshal(raw, &sub); err != nil {
		t.Fatal(err)
	}
	id := sub["id"].(string)
	<-started

	t0 := time.Now()
	req, err := http.NewRequest(http.MethodDelete, ts.URL+"/v1/jobs/"+id, nil)
	if err != nil {
		t.Fatal(err)
	}
	dresp, err := ts.Client().Do(req)
	if err != nil {
		t.Fatal(err)
	}
	if err := dresp.Body.Close(); err != nil {
		t.Error(err)
	}
	if dresp.StatusCode != http.StatusOK {
		t.Fatalf("cancel status %d", dresp.StatusCode)
	}
	final := pollJob(t, ts, id)
	if elapsed := time.Since(t0); elapsed > time.Second {
		t.Fatalf("cancel-to-terminal took %v, want < 1s", elapsed)
	}
	if final["state"] != "canceled" {
		t.Fatalf("state %v", final["state"])
	}
	if int(final["evaluated"].(float64)) != 3 {
		t.Fatalf("cancelled job lost its partial progress: %v", final)
	}
}

// TestJobsQueueOverflow429: submissions beyond slots+queue answer 429
// with Retry-After, mirroring the synchronous admission controller.
func TestJobsQueueOverflow429(t *testing.T) {
	s := New(Config{})
	started := make(chan string, 1)
	stubJobs(s, jobs.Config{MaxRunning: 1, QueueDepth: 1, Search: blockingJobSearch(started)})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	body := jobBody(t, "male_simple", nil)
	if resp, raw := post(t, ts.Client(), ts.URL+"/v1/jobs", body, nil); resp.StatusCode != http.StatusAccepted {
		t.Fatalf("first submit: %d %s", resp.StatusCode, raw)
	}
	<-started
	if resp, raw := post(t, ts.Client(), ts.URL+"/v1/jobs", body, nil); resp.StatusCode != http.StatusAccepted {
		t.Fatalf("second submit: %d %s", resp.StatusCode, raw)
	}
	resp, _ := post(t, ts.Client(), ts.URL+"/v1/jobs", body, nil)
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("overflow submit status %d, want 429", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("429 without Retry-After")
	}
	s.jobs.Shutdown()
}

// TestJobsDrain: cancelling the Serve context shuts the job manager
// down with the HTTP drain — the running job is cancelled, keeps its
// partial progress, and the drain completes cleanly.
func TestJobsDrain(t *testing.T) {
	s := New(Config{DrainTimeout: 3 * time.Second})
	started := make(chan string, 1)
	stubJobs(s, jobs.Config{Search: blockingJobSearch(started)})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	serveErr := make(chan error, 1)
	go func() { serveErr <- s.Serve(ctx, ln) }()

	url := "http://" + ln.Addr().String() + "/v1/jobs"
	resp, raw := post(t, http.DefaultClient, url, jobBody(t, "male_simple", nil), nil)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: %d %s", resp.StatusCode, raw)
	}
	var sub map[string]any
	if err := json.Unmarshal(raw, &sub); err != nil {
		t.Fatal(err)
	}
	<-started

	cancel()
	select {
	case err := <-serveErr:
		if err != nil {
			t.Fatalf("drain: %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Serve never returned")
	}
	st, err := s.jobs.Get(sub["id"].(string))
	if err != nil {
		t.Fatal(err)
	}
	if st.State != jobs.StateCanceled {
		t.Fatalf("job state after drain: %s", st.State)
	}
	if st.Evaluated == 0 {
		t.Fatal("drained job lost its partial progress")
	}
	if _, err := s.jobs.Submit(jobs.Request{}); err == nil {
		t.Fatal("post-drain submit must be refused")
	}
}

// TestJobsBadRequests: malformed submissions are 400s naming the
// problem, unknown ids are 404s, wrong methods 405s.
func TestJobsBadRequests(t *testing.T) {
	s := New(Config{})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	for _, tc := range []struct {
		name string
		body []byte
		want string
	}{
		{"no spec", []byte(`{"strategy":"halving"}`), "spec"},
		{"bad strategy", jobBody(t, "male_simple", map[string]any{"strategy": "annealing"}), optimize.StrategyNames},
		{"bad objective", jobBody(t, "male_simple", map[string]any{"objective": "beauty"}), optimize.ObjectiveNames},
		{"bad timeout", jobBody(t, "male_simple", map[string]any{"timeout": "yesterday"}), "timeout"},
		{"empty axis", jobBody(t, "male_simple", map[string]any{"channel_heights_um": []float64{}}), "ChannelHeights"},
		{"huge resolution", jobBody(t, "male_simple", map[string]any{"model": "numeric", "numeric_resolution": 1000000}), "out of range"},
		{"negative resolution", jobBody(t, "male_simple", map[string]any{"model": "numeric", "numeric_resolution": -1}), "out of range"},
	} {
		resp, raw := post(t, ts.Client(), ts.URL+"/v1/jobs", tc.body, nil)
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("%s: status %d, want 400: %s", tc.name, resp.StatusCode, raw)
		}
		if !strings.Contains(string(raw), tc.want) {
			t.Fatalf("%s: error %s does not mention %q", tc.name, raw, tc.want)
		}
	}
	if list := s.jobs.List(); len(list) != 0 {
		t.Fatalf("rejected submissions started %d jobs", len(list))
	}

	resp, err := ts.Client().Get(ts.URL + "/v1/jobs/job-999999")
	if err != nil {
		t.Fatal(err)
	}
	if err := resp.Body.Close(); err != nil {
		t.Error(err)
	}
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown id: status %d, want 404", resp.StatusCode)
	}

	req, err := http.NewRequest(http.MethodPut, ts.URL+"/v1/jobs/job-000001", nil)
	if err != nil {
		t.Fatal(err)
	}
	mresp, err := ts.Client().Do(req)
	if err != nil {
		t.Fatal(err)
	}
	if err := mresp.Body.Close(); err != nil {
		t.Error(err)
	}
	if mresp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("PUT on a job: status %d, want 405", mresp.StatusCode)
	}
}

// TestTimeoutHeaderEchoesEffectiveBudget: the X-OOC-Timeout response
// header reports the budget the request actually ran under — the
// default when ?timeout= is absent, and the clamped cap when the
// client asks for more than MaxTimeout (the clamp used to be silent).
func TestTimeoutHeaderEchoesEffectiveBudget(t *testing.T) {
	s := New(Config{DefaultTimeout: 2 * time.Second, MaxTimeout: 5 * time.Second,
		JobDefaultTimeout: time.Minute, JobMaxTimeout: 2 * time.Minute})
	started := make(chan string, 1)
	stubJobs(s, jobs.Config{DefaultTimeout: time.Minute, MaxTimeout: 2 * time.Minute,
		Search: blockingJobSearch(started)})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	body := specBody(t, "male_simple")
	for _, tc := range []struct {
		url  string
		want string
	}{
		{"/v1/design", "2s"},
		{"/v1/design?timeout=1s", "1s"},
		{"/v1/design?timeout=90s", "5s"},
		{"/v1/validate?timeout=99h", "5s"},
	} {
		resp, raw := post(t, ts.Client(), ts.URL+tc.url, body, nil)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s: status %d: %s", tc.url, resp.StatusCode, raw)
		}
		if got := resp.Header.Get("X-OOC-Timeout"); got != tc.want {
			t.Fatalf("%s: X-OOC-Timeout %q, want %q", tc.url, got, tc.want)
		}
	}
	// An invalid ?timeout= is still a 400, not a silent default.
	resp, _ := post(t, ts.Client(), ts.URL+"/v1/design?timeout=-3s", body, nil)
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("negative timeout: status %d, want 400", resp.StatusCode)
	}

	// The job layer has its own budget and cap; the submit echo
	// reports the clamped value.
	jresp, jraw := post(t, ts.Client(), ts.URL+"/v1/jobs",
		jobBody(t, "male_simple", map[string]any{"timeout": "90m"}), nil)
	if jresp.StatusCode != http.StatusAccepted {
		t.Fatalf("job submit: %d %s", jresp.StatusCode, jraw)
	}
	if got := jresp.Header.Get("X-OOC-Timeout"); got != "2m0s" {
		t.Fatalf("job X-OOC-Timeout %q, want clamped 2m0s", got)
	}
	s.jobs.Shutdown()
}
