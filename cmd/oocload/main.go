// Command oocload is the load generator for the oocd daemon: it fires
// a configurable number of requests at /v1/design or /v1/validate from
// a pool of concurrent workers and reports throughput and latency
// percentiles. Because the daemon caches canonicalized specs, a run
// against one spec measures the warm-cache serving path after the
// first solve; -distinct requests a spread of built-in use cases so
// every request is a cold solve instead.
//
// With -targets, oocload drives a fleet of daemons: each distinct spec
// body routes to one replica by rendezvous hashing, so every replica's
// response cache converges on its own shard of the key space instead
// of every replica caching everything. The routing depends only on the
// (target, body) pairs — not on list order or which oocload process
// computes it.
//
// Usage:
//
//	oocload -url http://localhost:8080 -n 200 -c 8
//	oocload -url http://localhost:8080 -endpoint validate -model numeric
//	oocload -targets http://localhost:8080,http://localhost:8081 -distinct
//	oocload -url http://localhost:8080 -smoke     # health+design+metrics probe
//	oocload -url http://localhost:8080 -jobs      # async /v1/jobs search probe
//	oocload -url http://localhost:8080 -dynamic   # transient-tier probe incl. budget rejection
//	oocload -url http://localhost:8080 -endpoint validate -budget 0.01   # budgeted traffic
//	oocload -url http://localhost:8080 -budget-probe   # ?error_budget= selection/caching probe
//	oocload -url http://localhost:8080 -metrics   # dump /metrics to stdout
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"sort"
	"strings"
	"sync"
	"time"

	"ooc/internal/modelsel"
	"ooc/internal/parallel"
	"ooc/internal/sim"
	"ooc/internal/specio"
	"ooc/internal/usecases"
)

type config struct {
	url         string
	targets     string
	endpoint    string
	model       string
	spec        string
	n           int
	workers     int
	budget      float64
	distinct    bool
	smoke       bool
	jobs        bool
	dynamic     bool
	budgetProbe bool
	metrics     bool
}

func main() {
	var cfg config
	flag.StringVar(&cfg.url, "url", "http://localhost:8080", "base URL of the oocd daemon")
	flag.StringVar(&cfg.targets, "targets", "", "comma-separated daemon base URLs; requests route by rendezvous hash on the spec body (overrides -url)")
	flag.StringVar(&cfg.endpoint, "endpoint", "design", "endpoint to load: design or validate")
	flag.StringVar(&cfg.model, "model", "exact", "resistance model for -endpoint validate")
	flag.StringVar(&cfg.spec, "spec", "male_simple", "built-in use case to post")
	flag.IntVar(&cfg.n, "n", 100, "total number of requests")
	flag.IntVar(&cfg.workers, "c", 8, "concurrent workers")
	flag.BoolVar(&cfg.distinct, "distinct", false, "rotate through all built-in use cases (defeats the response cache)")
	flag.BoolVar(&cfg.smoke, "smoke", false, "probe /healthz, one /v1/design and /metrics on every target, then exit")
	flag.BoolVar(&cfg.jobs, "jobs", false, "submit a successive-halving search job, poll it to completion, assert a feasible best, then exit")
	flag.BoolVar(&cfg.dynamic, "dynamic", false, "probe the transient tier: one short dynamic validation must succeed and an over-budget duration must be rejected up front, then exit")
	flag.Float64Var(&cfg.budget, "budget", 0, "send ?error_budget= requests instead of ?model= (fraction in (0, 1]; 0 disables)")
	flag.BoolVar(&cfg.budgetProbe, "budget-probe", false, "probe ?error_budget= model auto-selection: selection header, cache hit on repeat, unmeetable-budget 400, explicit-model override, then exit")
	flag.BoolVar(&cfg.metrics, "metrics", false, "print every target's /metrics exposition to stdout, then exit")
	flag.Parse()

	path, err := cfg.requestPath()
	if err != nil {
		fmt.Fprintln(os.Stderr, "oocload:", err)
		fmt.Fprintf(os.Stderr, "usage: oocload [-endpoint {design, validate}] [-model {%s}] [flags]\n", sim.ModelNames)
		os.Exit(2)
	}
	targets, err := splitTargets(cfg.targets, cfg.url)
	if err != nil {
		fmt.Fprintln(os.Stderr, "oocload:", err)
		os.Exit(2)
	}
	switch {
	case cfg.metrics:
		err = printMetrics(targets)
	case cfg.smoke:
		err = nil
		for _, t := range targets {
			if serr := smoke(t); serr != nil && err == nil {
				err = serr
			}
		}
	case cfg.jobs:
		err = jobsProbe(targets[0], cfg.spec)
	case cfg.dynamic:
		err = dynamicProbe(targets[0], cfg.spec)
	case cfg.budgetProbe:
		err = budgetProbeRun(targets[0], cfg.spec, cfg.budget)
	default:
		err = run(cfg, targets, path)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "oocload:", err)
		os.Exit(1)
	}
}

// requestPath validates the endpoint/model flags and builds the
// request path. Unknown spellings are usage errors (exit 2), caught
// before any traffic is sent.
func (c config) requestPath() (string, error) {
	m, err := sim.ParseModel(c.model)
	if err != nil {
		return "", err
	}
	if c.budget != 0 {
		if err := modelsel.CheckBudget(c.budget); err != nil {
			return "", err
		}
	}
	switch c.endpoint {
	case "design":
		if c.budget != 0 {
			return fmt.Sprintf("/v1/design?error_budget=%g", c.budget), nil
		}
		return "/v1/design", nil
	case "validate":
		// -budget replaces the fixed ?model= with server-side
		// auto-selection, so a mixed fleet of budgeted and fixed-model
		// load is two oocload invocations.
		if c.budget != 0 {
			return fmt.Sprintf("/v1/validate?error_budget=%g", c.budget), nil
		}
		return "/v1/validate?model=" + m.String(), nil
	default:
		return "", fmt.Errorf("unknown endpoint %q (valid endpoints: design, validate)", c.endpoint)
	}
}

// bodies materializes the request payloads: one spec repeated, or the
// full use-case catalogue when -distinct.
func bodies(cfg config) ([][]byte, error) {
	var names []string
	if cfg.distinct {
		for _, uc := range usecases.All() {
			names = append(names, uc.Name)
		}
	} else {
		names = []string{cfg.spec}
	}
	payloads := make([][]byte, 0, len(names))
	for _, name := range names {
		uc, err := usecases.ByName(name)
		if err != nil {
			return nil, err
		}
		raw, err := specio.Marshal(uc.Build())
		if err != nil {
			return nil, err
		}
		payloads = append(payloads, raw)
	}
	return payloads, nil
}

func post(client *http.Client, url string, body []byte) (int, error) {
	resp, err := client.Post(url, "application/json", strings.NewReader(string(body)))
	if err != nil {
		return 0, err
	}
	// Drain so the transport reuses the connection.
	if _, err := io.Copy(io.Discard, resp.Body); err != nil {
		_ = resp.Body.Close()
		return resp.StatusCode, err
	}
	if err := resp.Body.Close(); err != nil {
		return resp.StatusCode, err
	}
	return resp.StatusCode, nil
}

func run(cfg config, targets []string, path string) error {
	payloads, err := bodies(cfg)
	if err != nil {
		return err
	}
	client := &http.Client{Timeout: 2 * time.Minute}

	// Route each distinct payload once, up front: the per-request work
	// stays allocation-free and the routing is visibly deterministic.
	urls := make([]string, len(payloads))
	routed := make(map[string]int)
	for i, body := range payloads {
		target := pickTarget(targets, body)
		urls[i] = target + path
		routed[target]++
	}

	var mu sync.Mutex
	latencies := make([]time.Duration, 0, cfg.n)
	statuses := make(map[int]int)
	perTarget := make(map[string]int)

	workers := parallel.Workers(cfg.workers)
	start := time.Now()
	err = parallel.ForEach(cfg.n, workers, func(i int) error {
		body := payloads[i%len(payloads)]
		url := urls[i%len(payloads)]
		t0 := time.Now()
		status, err := post(client, url, body)
		lat := time.Since(t0)
		if err != nil {
			return fmt.Errorf("request %d: %w", i, err)
		}
		mu.Lock()
		latencies = append(latencies, lat)
		statuses[status]++
		perTarget[url]++
		mu.Unlock()
		return nil
	})
	elapsed := time.Since(start)
	if err != nil {
		return err
	}

	sort.Slice(latencies, func(i, j int) bool { return latencies[i] < latencies[j] })
	where := targets[0] + path
	if len(targets) > 1 {
		where = fmt.Sprintf("%d targets%s", len(targets), path)
	}
	fmt.Printf("oocload: %d requests to %s with %d workers in %v\n", cfg.n, where, workers, elapsed.Round(time.Millisecond))
	fmt.Printf("throughput: %.1f req/s\n", float64(cfg.n)/elapsed.Seconds())
	if len(targets) > 1 {
		var tUrls []string
		for u := range perTarget {
			tUrls = append(tUrls, u)
		}
		sort.Strings(tUrls)
		for _, u := range tUrls {
			fmt.Printf("target %s: %d requests (%d distinct specs)\n", u, perTarget[u], routed[strings.TrimSuffix(u, path)])
		}
	}
	var codes []int
	for code := range statuses {
		codes = append(codes, code)
	}
	sort.Ints(codes)
	for _, code := range codes {
		fmt.Printf("status %d: %d\n", code, statuses[code])
	}
	fmt.Printf("latency: p50 %v  p90 %v  p99 %v  max %v\n",
		percentile(latencies, 50).Round(time.Microsecond),
		percentile(latencies, 90).Round(time.Microsecond),
		percentile(latencies, 99).Round(time.Microsecond),
		latencies[len(latencies)-1].Round(time.Microsecond))
	for _, code := range codes {
		if code != http.StatusOK {
			return fmt.Errorf("%d requests finished with status %d", statuses[code], code)
		}
	}
	return nil
}

// percentile reads the p-th percentile from sorted latencies using the
// nearest-rank method.
func percentile(sorted []time.Duration, p int) time.Duration {
	if len(sorted) == 0 {
		return 0
	}
	rank := (p*len(sorted) + 99) / 100 // ceil(p/100 * n)
	if rank < 1 {
		rank = 1
	}
	if rank > len(sorted) {
		rank = len(sorted)
	}
	return sorted[rank-1]
}

// printMetrics dumps every target's /metrics exposition to stdout —
// the scriptable way to assert on counters (scripts/check.sh pins the
// warm-boot cache hit with it; no curl needed). Multiple targets are
// separated by a "# target" comment line.
func printMetrics(targets []string) error {
	client := &http.Client{Timeout: 30 * time.Second}
	for _, base := range targets {
		resp, err := client.Get(base + "/metrics")
		if err != nil {
			return fmt.Errorf("metrics %s: %w", base, err)
		}
		raw, err := io.ReadAll(resp.Body)
		if cerr := resp.Body.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			return fmt.Errorf("metrics %s: %w", base, err)
		}
		if resp.StatusCode != http.StatusOK {
			return fmt.Errorf("metrics %s: status %d", base, resp.StatusCode)
		}
		if len(targets) > 1 {
			fmt.Printf("# target %s\n", base)
		}
		fmt.Print(string(raw))
	}
	return nil
}

// smoke probes a running daemon end to end: /healthz answers ok, one
// /v1/design solve succeeds, and /metrics shows the request. It is the
// scriptable health check used by scripts/check.sh (no curl needed).
func smoke(base string) error {
	client := &http.Client{Timeout: 30 * time.Second}

	resp, err := client.Get(base + "/healthz")
	if err != nil {
		return fmt.Errorf("healthz: %w", err)
	}
	raw, err := io.ReadAll(resp.Body)
	if cerr := resp.Body.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return fmt.Errorf("healthz: %w", err)
	}
	if resp.StatusCode != http.StatusOK || string(raw) != "ok\n" {
		return fmt.Errorf("healthz: status %d body %q", resp.StatusCode, raw)
	}

	uc, err := usecases.ByName("male_simple")
	if err != nil {
		return err
	}
	body, err := specio.Marshal(uc.Build())
	if err != nil {
		return err
	}
	status, err := post(client, base+"/v1/design", body)
	if err != nil {
		return fmt.Errorf("design: %w", err)
	}
	if status != http.StatusOK {
		return fmt.Errorf("design: status %d", status)
	}

	resp, err = client.Get(base + "/metrics")
	if err != nil {
		return fmt.Errorf("metrics: %w", err)
	}
	raw, err = io.ReadAll(resp.Body)
	if cerr := resp.Body.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return fmt.Errorf("metrics: %w", err)
	}
	want := `ooc_requests_total{endpoint="design",status="200"}`
	if !strings.Contains(string(raw), want) {
		return fmt.Errorf("metrics: exposition lacks %q:\n%s", want, raw)
	}
	fmt.Println("oocload: smoke ok")
	return nil
}

// dynamicProbe exercises the transient tier over HTTP: a short
// pulsatile dosed run must answer 200 with a non-empty time series,
// and a simulated span that cannot fit the deadline budget must be
// rejected up front with a 400 — not accepted and then timed out.
func dynamicProbe(base, spec string) error {
	client := &http.Client{Timeout: 2 * time.Minute}
	uc, err := usecases.ByName(spec)
	if err != nil {
		return err
	}
	body, err := specio.Marshal(uc.Build())
	if err != nil {
		return err
	}

	resp, err := client.Post(base+"/v1/validate?model=dynamic&duration=500ms&profile=pulse:0.5@250ms&dose=1",
		"application/json", strings.NewReader(string(body)))
	if err != nil {
		return fmt.Errorf("dynamic validate: %w", err)
	}
	raw, err := io.ReadAll(resp.Body)
	if cerr := resp.Body.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return fmt.Errorf("dynamic validate: %w", err)
	}
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("dynamic validate: status %d body %s", resp.StatusCode, raw)
	}
	var out struct {
		Steps         int       `json:"steps"`
		TimesS        []float64 `json:"times_s"`
		ArrivalTimesS []float64 `json:"arrival_times_s"`
	}
	if err := json.Unmarshal(raw, &out); err != nil {
		return fmt.Errorf("dynamic validate: %w", err)
	}
	if out.Steps <= 0 || len(out.TimesS) < 2 {
		return fmt.Errorf("dynamic validate: empty series (steps=%d samples=%d)", out.Steps, len(out.TimesS))
	}
	if len(out.ArrivalTimesS) == 0 {
		return fmt.Errorf("dynamic validate: dosed run reported no arrival times: %s", raw)
	}

	status, err := post(client, base+"/v1/validate?model=dynamic&duration=3000s&timeout=100ms", body)
	if err != nil {
		return fmt.Errorf("over-budget dynamic validate: %w", err)
	}
	if status != http.StatusBadRequest {
		return fmt.Errorf("over-budget dynamic validate: status %d, want %d", status, http.StatusBadRequest)
	}
	fmt.Printf("oocload: dynamic probe ok: %d steps, %d samples, budget rejection enforced\n", out.Steps, len(out.TimesS))
	return nil
}

// budgetProbeRun exercises ?error_budget= model auto-selection end to
// end: a budgeted validation must answer 200 with a non-numeric rung
// in X-OOC-Model-Selected and a cache miss, the identical repeat must
// be a cache hit with the same rung, a budget tighter than every
// calibrated rung must be rejected up front with a 400 naming the
// tightest achievable rung, and an explicit ?model= must win over the
// budget (no selection header). It is the scriptable check used by
// scripts/check.sh (no curl needed).
func budgetProbeRun(base, spec string, budget float64) error {
	if budget == 0 {
		// 1% comfortably admits the cheapest calibrated rung on the
		// paper grid (approx tops out around 0.4%) without being
		// universally satisfiable.
		budget = 0.01
	}
	if err := modelsel.CheckBudget(budget); err != nil {
		return err
	}
	client := &http.Client{Timeout: 2 * time.Minute}
	uc, err := usecases.ByName(spec)
	if err != nil {
		return err
	}
	body, err := specio.Marshal(uc.Build())
	if err != nil {
		return err
	}
	postProbe := func(path string) (int, http.Header, []byte, error) {
		resp, err := client.Post(base+path, "application/json", strings.NewReader(string(body)))
		if err != nil {
			return 0, nil, nil, err
		}
		raw, err := io.ReadAll(resp.Body)
		if cerr := resp.Body.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			return resp.StatusCode, resp.Header, nil, err
		}
		return resp.StatusCode, resp.Header, raw, nil
	}

	budgeted := fmt.Sprintf("/v1/validate?error_budget=%g", budget)
	status, hdr, raw, err := postProbe(budgeted)
	if err != nil {
		return fmt.Errorf("budgeted validate: %w", err)
	}
	if status != http.StatusOK {
		return fmt.Errorf("budgeted validate: status %d body %s", status, raw)
	}
	rung := hdr.Get("X-OOC-Model-Selected")
	if rung == "" {
		return fmt.Errorf("budgeted validate: no X-OOC-Model-Selected header")
	}
	if strings.HasPrefix(rung, "numeric") {
		return fmt.Errorf("budgeted validate: budget %g selected %s — expected a cheaper non-numeric rung", budget, rung)
	}
	if hdr.Get("X-Cache") != "miss" {
		return fmt.Errorf("budgeted validate: first request X-Cache %q, want miss", hdr.Get("X-Cache"))
	}
	var out struct {
		ModelSelected string  `json:"model_selected"`
		ErrorBudget   float64 `json:"error_budget"`
	}
	if err := json.Unmarshal(raw, &out); err != nil {
		return fmt.Errorf("budgeted validate: %w", err)
	}
	// The budget round-trips client → query string → report as %g
	// text, so the faithful comparison is textual, not float equality.
	if out.ModelSelected != rung || fmt.Sprintf("%g", out.ErrorBudget) != fmt.Sprintf("%g", budget) {
		return fmt.Errorf("budgeted validate: report says rung %q budget %g, header says %q budget %g",
			out.ModelSelected, out.ErrorBudget, rung, budget)
	}

	status, hdr, _, err = postProbe(budgeted)
	if err != nil {
		return fmt.Errorf("repeat budgeted validate: %w", err)
	}
	if status != http.StatusOK || hdr.Get("X-Cache") != "hit" {
		return fmt.Errorf("repeat budgeted validate: status %d X-Cache %q, want 200 hit", status, hdr.Get("X-Cache"))
	}
	if hdr.Get("X-OOC-Model-Selected") != rung {
		return fmt.Errorf("repeat budgeted validate: rung %q, want %q", hdr.Get("X-OOC-Model-Selected"), rung)
	}

	status, _, raw, err = postProbe("/v1/validate?error_budget=1e-9")
	if err != nil {
		return fmt.Errorf("unmeetable budget: %w", err)
	}
	if status != http.StatusBadRequest {
		return fmt.Errorf("unmeetable budget: status %d body %s, want %d", status, raw, http.StatusBadRequest)
	}
	if !strings.Contains(string(raw), "tightest") {
		return fmt.Errorf("unmeetable budget: error does not name the tightest achievable rung: %s", raw)
	}

	status, hdr, _, err = postProbe(fmt.Sprintf("/v1/validate?model=exact&error_budget=%g", budget))
	if err != nil {
		return fmt.Errorf("explicit model override: %w", err)
	}
	if status != http.StatusOK {
		return fmt.Errorf("explicit model override: status %d", status)
	}
	if h := hdr.Get("X-OOC-Model-Selected"); h != "" {
		return fmt.Errorf("explicit model override: selection header %q present — explicit ?model= must win", h)
	}
	fmt.Printf("oocload: budget probe ok: budget %g selected %s, cached on repeat, unmeetable and override enforced\n", budget, rung)
	return nil
}

// jobsProbe exercises the asynchronous search path end to end: it
// submits a successive-halving job over the default candidate grid,
// polls /v1/jobs/{id} until the job is terminal, and checks the final
// status reports a feasible best with fewer full-fidelity evaluations
// than the 20-candidate exhaustive grid would pay.
func jobsProbe(base, spec string) error {
	client := &http.Client{Timeout: 30 * time.Second}
	uc, err := usecases.ByName(spec)
	if err != nil {
		return err
	}
	specRaw, err := specio.Marshal(uc.Build())
	if err != nil {
		return err
	}
	body, err := json.Marshal(map[string]any{
		"spec":     json.RawMessage(specRaw),
		"strategy": "halving",
		"timeout":  "2m",
	})
	if err != nil {
		return err
	}

	resp, err := client.Post(base+"/v1/jobs", "application/json", strings.NewReader(string(body)))
	if err != nil {
		return fmt.Errorf("submit: %w", err)
	}
	raw, err := io.ReadAll(resp.Body)
	if cerr := resp.Body.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return fmt.Errorf("submit: %w", err)
	}
	if resp.StatusCode != http.StatusAccepted {
		return fmt.Errorf("submit: status %d body %s", resp.StatusCode, raw)
	}
	var status struct {
		ID              string `json:"id"`
		State           string `json:"state"`
		Evaluated       int    `json:"evaluated"`
		FullEvaluations int    `json:"full_evaluations"`
		Feasible        int    `json:"feasible"`
		Error           string `json:"error"`
		BestGeometry    *struct {
			ChannelHeightUm float64 `json:"channel_height_um"`
			MinGapMm        float64 `json:"min_gap_mm"`
		} `json:"best_geometry"`
	}
	if err := json.Unmarshal(raw, &status); err != nil {
		return fmt.Errorf("submit: %w", err)
	}
	if status.ID == "" {
		return fmt.Errorf("submit: no job id in %s", raw)
	}

	deadline := time.Now().Add(2 * time.Minute)
	for {
		if time.Now().After(deadline) {
			return fmt.Errorf("job %s still %s after 2m", status.ID, status.State)
		}
		time.Sleep(50 * time.Millisecond)
		resp, err := client.Get(base + "/v1/jobs/" + status.ID)
		if err != nil {
			return fmt.Errorf("poll: %w", err)
		}
		raw, err := io.ReadAll(resp.Body)
		if cerr := resp.Body.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			return fmt.Errorf("poll: %w", err)
		}
		if resp.StatusCode != http.StatusOK {
			return fmt.Errorf("poll: status %d body %s", resp.StatusCode, raw)
		}
		if err := json.Unmarshal(raw, &status); err != nil {
			return fmt.Errorf("poll: %w", err)
		}
		if status.State == "succeeded" || status.State == "failed" || status.State == "canceled" {
			break
		}
	}
	if status.State != "succeeded" {
		return fmt.Errorf("job %s ended %s: %s", status.ID, status.State, status.Error)
	}
	if status.Feasible == 0 || status.BestGeometry == nil {
		return fmt.Errorf("job %s succeeded without a feasible best (feasible=%d)", status.ID, status.Feasible)
	}
	if status.FullEvaluations >= status.Evaluated {
		return fmt.Errorf("job %s: %d full evaluations of %d total — halving saved nothing",
			status.ID, status.FullEvaluations, status.Evaluated)
	}
	fmt.Printf("oocload: job %s succeeded: best h=%.0fµm gap=%.1fmm, %d full of %d evaluations\n",
		status.ID, status.BestGeometry.ChannelHeightUm, status.BestGeometry.MinGapMm,
		status.FullEvaluations, status.Evaluated)
	return nil
}
