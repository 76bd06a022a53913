// Package server is the design-as-a-service layer over the design
// automation pipeline: a stdlib-only HTTP daemon (cmd/oocd) exposing
// the paper's spec → design → validation-report function as a JSON
// API. The serving path is production-shaped:
//
//   - a bounded admission controller (semaphore + queue, sized off the
//     shared internal/parallel pool) turns overload into fast 429s
//     instead of unbounded queueing;
//   - a singleflight + LRU response cache keyed on canonicalized spec
//     bytes (specio.Canonical) makes identical concurrent requests
//     solve once, with hit/miss counters in internal/obs;
//   - every request runs under a deadline budget (server default,
//     client-overridable up to a cap via ?timeout=), propagated
//     through the context plumbing down to the solvers; an exhausted
//     budget is a 504;
//   - a process-lifetime obs.Collector feeds the /metrics text
//     exposition (request counts, latency buckets, cache traffic,
//     model selection, job and pipeline counters) and the drain-time
//     flush.
//
// The FDM cross-section solve (sim.ModelNumeric) is an offline oracle,
// not a served model: it converges to the exact model, which is both
// cheaper and closer at every resolution. ?model=numeric and a numeric
// job model are 400s; oocsim -model numeric and oocbench run it.
//
// Endpoints:
//
//	POST /v1/design             spec in → generated design (JSON);
//	                            ?error_budget= echoes the rung model
//	                            selection would pick for validation in
//	                            the X-OOC-Model-Selected header
//	POST /v1/validate?model=m
//	                            spec in → validation report (JSON, or
//	                            text via Accept: text/plain);
//	                            m ∈ {exact, approx, dynamic};
//	                            ?error_budget=f (a fraction in (0, 1])
//	                            instead of ?model= auto-selects the
//	                            cheapest calibrated rung whose
//	                            worst-case deviation from the
//	                            numeric@128 reference fits the budget
//	                            (internal/modelsel); the chosen rung is
//	                            echoed in X-OOC-Model-Selected and in
//	                            the report; an unmeetable budget is a
//	                            400 naming the tightest achievable
//	                            rung; an explicit ?model= wins;
//	                            model=dynamic adds ?duration=,
//	                            ?profile=, ?dose= and a time-series
//	                            reply (CSV via Accept: text/csv); a
//	                            duration that cannot fit the deadline
//	                            budget is rejected up front with 400
//	POST   /v1/jobs             submit an asynchronous design-space
//	                            search (grid or successive halving);
//	                            202 + job id, admission-bounded (429)
//	GET    /v1/jobs             list retained jobs
//	GET    /v1/jobs/{id}        poll progress / final result
//	DELETE /v1/jobs/{id}        cancel cooperatively
//	GET  /v1/cache              export the response cache as a
//	                            versioned snapshot (peer fill / warm
//	                            restarts)
//	PUT  /v1/cache              import a snapshot; 409 on a version or
//	                            schema mismatch, 400 on corruption
//	GET  /healthz               liveness
//	GET  /metrics               text metrics exposition
package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strings"
	"time"

	"ooc/internal/core"
	"ooc/internal/jobs"
	"ooc/internal/modelsel"
	"ooc/internal/obs"
	"ooc/internal/parallel"
	"ooc/internal/render"
	"ooc/internal/report"
	"ooc/internal/sim"
	"ooc/internal/specio"
)

// maxSpecBytes bounds the request body: specification documents are
// small, and the bound keeps a hostile client from ballooning memory.
const maxSpecBytes = 1 << 20

// Config sizes the daemon. Zero values select the documented defaults.
type Config struct {
	// MaxConcurrent is the number of requests allowed to solve
	// simultaneously. Default: the shared worker-pool width
	// (parallel.Workers(0), i.e. GOMAXPROCS) — beyond that the solves
	// just contend for the same cores.
	MaxConcurrent int
	// QueueDepth is how many requests may wait for a slot before the
	// server answers 429. Default: 4 × MaxConcurrent.
	QueueDepth int
	// CacheSize bounds the response cache (completed entries).
	// Default: 256.
	CacheSize int
	// DefaultTimeout is the per-request deadline budget when the
	// client does not ask for one. Default: 15s.
	DefaultTimeout time.Duration
	// MaxTimeout caps the client-requested ?timeout=. Default: 60s.
	MaxTimeout time.Duration
	// DrainTimeout bounds the graceful drain on shutdown: in-flight
	// requests get this long to finish before their contexts are
	// cancelled. Default: 5s.
	DrainTimeout time.Duration
	// JobsMaxRunning/JobsQueueDepth/JobsHistory size the asynchronous
	// /v1/jobs manager; zero values select the internal/jobs defaults
	// (1 running job, 8 queued, 64 retained).
	JobsMaxRunning int
	JobsQueueDepth int
	JobsHistory    int
	// JobDefaultTimeout/JobMaxTimeout are the per-job deadline budget
	// and its cap; zero values select the internal/jobs defaults
	// (5m and 30m).
	JobDefaultTimeout time.Duration
	JobMaxTimeout     time.Duration
	// Collector receives the serving telemetry. Default: a fresh
	// process-lifetime collector (exposed via Collector()).
	Collector *obs.Collector
	// Calibration backs ?error_budget= model auto-selection. Default:
	// the embedded calibration artifact (modelsel.Default()); tests may
	// inject a synthetic table.
	Calibration *modelsel.Table
}

// withDefaults materializes the documented defaults.
func (c Config) withDefaults() Config {
	if c.MaxConcurrent <= 0 {
		c.MaxConcurrent = parallel.Workers(0)
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 4 * c.MaxConcurrent
	}
	if c.CacheSize <= 0 {
		c.CacheSize = 256
	}
	if c.DefaultTimeout <= 0 {
		c.DefaultTimeout = 15 * time.Second
	}
	if c.MaxTimeout <= 0 {
		c.MaxTimeout = 60 * time.Second
	}
	if c.DrainTimeout <= 0 {
		c.DrainTimeout = 5 * time.Second
	}
	if c.Collector == nil {
		c.Collector = obs.NewCollector()
	}
	return c
}

// Server is the design-as-a-service HTTP daemon.
type Server struct {
	cfg   Config
	col   *obs.Collector
	adm   *admission
	cache *respCache
	jobs  *jobs.Manager
	mux   *http.ServeMux
	start time.Time

	// calib backs ?error_budget= selection; calibErr remembers why it
	// is unavailable (selection requests then answer 500 rather than
	// silently serving an uncalibrated model).
	calib    *modelsel.Table
	calibErr error

	// The pipeline entry points, swappable in tests to inject slow or
	// counting stubs; production always uses core.GenerateContext,
	// sim.ValidateContext, and sim.ValidateDynamicContext.
	generate        func(context.Context, core.Spec) (*core.Design, error)
	validate        func(context.Context, *core.Design, sim.Options) (*sim.Report, error)
	validateDynamic func(context.Context, *core.Design, sim.Options) (*sim.DynamicReport, error)
}

// New builds a Server from the config.
func New(cfg Config) *Server {
	cfg = cfg.withDefaults()
	s := &Server{
		cfg:   cfg,
		col:   cfg.Collector,
		adm:   newAdmission(cfg.MaxConcurrent, cfg.QueueDepth),
		cache: newRespCache(cfg.CacheSize),
		jobs: jobs.NewManager(jobs.Config{
			MaxRunning:     cfg.JobsMaxRunning,
			QueueDepth:     cfg.JobsQueueDepth,
			History:        cfg.JobsHistory,
			DefaultTimeout: cfg.JobDefaultTimeout,
			MaxTimeout:     cfg.JobMaxTimeout,
			Collector:      cfg.Collector,
		}),
		mux:             http.NewServeMux(),
		start:           time.Now(),
		generate:        core.GenerateContext,
		validate:        sim.ValidateContext,
		validateDynamic: sim.ValidateDynamicContext,
	}
	s.calib = cfg.Calibration
	if s.calib == nil {
		s.calib, s.calibErr = modelsel.Default()
	}
	s.mux.HandleFunc("/v1/design", s.handleDesign)
	s.mux.HandleFunc("/v1/validate", s.handleValidate)
	s.mux.HandleFunc("/v1/jobs", s.handleJobs)
	s.mux.HandleFunc("/v1/jobs/{id}", s.handleJob)
	s.mux.HandleFunc("/v1/cache", s.handleCache)
	s.mux.HandleFunc("/healthz", s.handleHealthz)
	s.mux.HandleFunc("/metrics", s.handleMetrics)
	return s
}

// Handler returns the daemon's HTTP handler.
func (s *Server) Handler() http.Handler { return s.mux }

// Collector returns the process-lifetime telemetry collector backing
// /metrics.
func (s *Server) Collector() *obs.Collector { return s.col }

// MetricsText renders the current /metrics exposition — also used by
// cmd/oocd to flush metrics at drain time.
func (s *Server) MetricsText() string {
	inflight, queued := s.adm.gauges()
	jobsRunning, jobsQueued := s.jobs.Gauges()
	return renderMetrics(s.col.Snapshot(), inflight, queued, jobsRunning, jobsQueued, time.Since(s.start))
}

// jsonError renders a JSON error response.
func jsonError(status int, format string, args ...any) response {
	body, err := json.Marshal(map[string]string{"error": fmt.Sprintf(format, args...)})
	if err != nil {
		// A map[string]string cannot fail to marshal; keep the error
		// path total anyway.
		body = []byte(`{"error":"internal error"}`)
	}
	return response{status: status, contentType: "application/json", body: append(body, '\n')}
}

// errorResponse maps transport-level failures from the admission
// controller and the context plumbing onto HTTP statuses: queue
// overflow → 429, an exhausted deadline budget → 504 (the
// gateway-timeout idiom for "the backend ran out of time"), a client
// that went away → 503.
func errorResponse(err error) response {
	switch {
	case errors.Is(err, errBusy):
		return jsonError(http.StatusTooManyRequests, "server at capacity, retry later")
	case errors.Is(err, context.DeadlineExceeded):
		return jsonError(http.StatusGatewayTimeout, "deadline budget exhausted: %v", err)
	case errors.Is(err, context.Canceled):
		return jsonError(http.StatusServiceUnavailable, "request canceled: %v", err)
	default:
		return jsonError(http.StatusInternalServerError, "%v", err)
	}
}

// reply writes resp, stamps the cache-disposition header, and records
// the request in the collector: a requests.<endpoint>.<status> counter
// and a request.<endpoint> latency observation.
func (s *Server) reply(w http.ResponseWriter, endpoint string, started time.Time, resp response, hit bool) {
	w.Header().Set("Content-Type", resp.contentType)
	if endpoint == "design" || endpoint == "validate" {
		cacheState := "miss"
		if hit {
			cacheState = "hit"
		}
		w.Header().Set("X-Cache", cacheState)
	}
	if resp.status == http.StatusTooManyRequests {
		w.Header().Set("Retry-After", "1")
	}
	w.WriteHeader(resp.status)
	if _, err := w.Write(resp.body); err != nil {
		// The client went away mid-write; the status was already
		// committed and there is no one left to tell.
		s.col.Add("server.write_errors", 1)
	}
	s.col.Add(fmt.Sprintf("requests.%s.%d", endpoint, resp.status), 1)
	s.col.Observe("request."+endpoint, time.Since(started))
}

// readSpec reads and parses the request body into a spec and its
// canonical cache-key bytes.
func (s *Server) readSpec(w http.ResponseWriter, r *http.Request) (core.Spec, []byte, error) {
	raw, err := io.ReadAll(http.MaxBytesReader(w, r.Body, maxSpecBytes))
	if err != nil {
		return core.Spec{}, nil, fmt.Errorf("reading request body: %w", err)
	}
	spec, err := specio.Parse(raw)
	if err != nil {
		return core.Spec{}, nil, err
	}
	key, err := specio.Canonical(spec)
	if err != nil {
		return core.Spec{}, nil, err
	}
	return spec, key, nil
}

// requestContext derives the per-request deadline budget: the server
// default, overridable by ?timeout= up to the configured cap. The
// effective budget is returned so handlers can echo it in the
// X-OOC-Timeout response header — a ?timeout= above the cap is
// honored only up to MaxTimeout, and silently clamping it used to
// leave clients planning around a budget the server never granted.
// The returned context also carries the server's telemetry collector,
// so pipeline counters such as dyn.steps land in /metrics.
func (s *Server) requestContext(r *http.Request) (context.Context, context.CancelFunc, time.Duration, error) {
	budget := s.cfg.DefaultTimeout
	if raw := r.URL.Query().Get("timeout"); raw != "" {
		d, err := time.ParseDuration(raw)
		if err != nil || d <= 0 {
			return nil, nil, 0, fmt.Errorf("invalid timeout %q (want a positive duration like 500ms)", raw)
		}
		if d > s.cfg.MaxTimeout {
			d = s.cfg.MaxTimeout
		}
		budget = d
	}
	ctx := obs.WithCollector(r.Context(), s.col)
	ctx, cancel := context.WithTimeout(ctx, budget)
	return ctx, cancel, budget, nil
}

// selectRung resolves an error budget onto the cheapest calibrated
// fidelity rung for the use case, recording the selection telemetry:
// a modelsel.selected.<rung> (or modelsel.unmeetable) counter and the
// modelsel.select latency.
func (s *Server) selectRung(useCase string, budget float64) (modelsel.Rung, error) {
	if s.calib == nil {
		return modelsel.Rung{}, fmt.Errorf("model selection unavailable: %w", s.calibErr)
	}
	selStart := time.Now()
	rung, err := s.calib.Select(useCase, budget)
	s.col.Observe("modelsel.select", time.Since(selStart))
	if err != nil {
		s.col.Add("modelsel.unmeetable", 1)
		return modelsel.Rung{}, err
	}
	s.col.Add("modelsel.selected."+rung.Name, 1)
	return rung, nil
}

// selectionResponse maps a selection failure onto its HTTP status: an
// unmeetable budget is the client's problem (400, with the error
// naming the tightest achievable rung), a missing calibration table is
// ours (500).
func selectionResponse(err error) response {
	var um *modelsel.UnmeetableError
	if errors.As(err, &um) {
		return jsonError(http.StatusBadRequest, "%v", err)
	}
	return jsonError(http.StatusInternalServerError, "%v", err)
}

// parseBudgetQuery reads ?error_budget= from the query. An explicit
// model choice always wins over the budget: the request asked for a
// specific rung, so selection is skipped (and counted) rather than
// second-guessed.
func (s *Server) parseBudgetQuery(raw string, explicitModel bool) (float64, error) {
	if raw == "" {
		return 0, nil
	}
	if explicitModel {
		s.col.Add("modelsel.explicit_override", 1)
		return 0, nil
	}
	return modelsel.ParseBudget(raw)
}

// handleDesign serves POST /v1/design: specification in, generated
// design out (the render.JSON document, reloadable with
// ooc.LoadDesignJSON).
func (s *Server) handleDesign(w http.ResponseWriter, r *http.Request) {
	started := time.Now()
	if r.Method != http.MethodPost {
		s.reply(w, "design", started, jsonError(http.StatusMethodNotAllowed, "POST a specification document"), false)
		return
	}
	spec, key, err := s.readSpec(w, r)
	if err != nil {
		s.reply(w, "design", started, jsonError(http.StatusBadRequest, "%v", err), false)
		return
	}
	// Design generation is model-independent, so ?error_budget= here
	// only answers the selection question (which rung would validation
	// use?) via the X-OOC-Model-Selected header — the cached body is
	// shared with budget-less requests.
	errBudget, err := s.parseBudgetQuery(r.URL.Query().Get("error_budget"), false)
	if err != nil {
		s.reply(w, "design", started, jsonError(http.StatusBadRequest, "%v", err), false)
		return
	}
	if errBudget != 0 {
		rung, err := s.selectRung(spec.Name, errBudget)
		if err != nil {
			s.reply(w, "design", started, selectionResponse(err), false)
			return
		}
		w.Header().Set("X-OOC-Model-Selected", rung.Name)
	}
	ctx, cancel, budget, err := s.requestContext(r)
	if err != nil {
		s.reply(w, "design", started, jsonError(http.StatusBadRequest, "%v", err), false)
		return
	}
	defer cancel()
	w.Header().Set("X-OOC-Timeout", budget.String())

	resp, hit, err := s.cache.do(ctx, s.col, "design|"+string(key), func() (response, bool, error) {
		if err := s.adm.acquire(ctx); err != nil {
			return response{}, false, err
		}
		defer s.adm.release()
		if err := ctx.Err(); err != nil {
			// The budget burned down while waiting in the queue.
			return response{}, false, err
		}
		d, err := s.generate(ctx, spec)
		if err != nil {
			// A spec the pipeline rejects is a client-side problem;
			// don't cache it — the discipline is errors are never
			// cached, so a fixed daemon (or spec) gets a fresh run.
			return jsonError(http.StatusUnprocessableEntity, "generate: %v", err), false, nil
		}
		raw, err := render.JSON(d)
		if err != nil {
			return response{}, false, fmt.Errorf("rendering design: %w", err)
		}
		return response{status: http.StatusOK, contentType: "application/json", body: raw}, true, nil
	})
	if err != nil {
		resp = errorResponse(err)
	}
	s.reply(w, "design", started, resp, hit)
}

// validateResult is the JSON form of a validation report.
type validateResult struct {
	Name    string `json:"name"`
	Model   string `json:"model"`
	Modules []struct {
		Name               string  `json:"name"`
		SpecFlowM3S        float64 `json:"spec_flow_m3s"`
		ActualFlowM3S      float64 `json:"actual_flow_m3s"`
		FlowDeviation      float64 `json:"flow_deviation"`
		SpecPerfusion      float64 `json:"spec_perfusion"`
		ActualPerfusion    float64 `json:"actual_perfusion"`
		PerfusionDeviation float64 `json:"perfusion_deviation"`
	} `json:"modules"`
	AvgFlowDeviation float64 `json:"avg_flow_deviation"`
	MaxFlowDeviation float64 `json:"max_flow_deviation"`
	AvgPerfDeviation float64 `json:"avg_perf_deviation"`
	MaxPerfDeviation float64 `json:"max_perf_deviation"`
	PumpPressurePa   float64 `json:"pump_pressure_pa"`
	KCLResidualM3S   float64 `json:"kcl_residual_m3s"`
	// ErrorBudget/ModelSelected record an ?error_budget= auto-selection
	// (absent on fixed-model requests).
	ErrorBudget   float64 `json:"error_budget,omitempty"`
	ModelSelected string  `json:"model_selected,omitempty"`
}

// renderValidation renders a report as JSON or, when the client asked
// for text/plain, as the human-readable Fig. 4-style listing from
// internal/report.
func renderValidation(rep *sim.Report, model sim.Model, wantText bool, sel *modelsel.Rung, errBudget float64) (response, error) {
	if wantText {
		var b strings.Builder
		b.WriteString(report.FormatFig4(rep))
		fmt.Fprintf(&b, "aggregate: flow dev avg %.2f%% max %.2f%% | perfusion dev avg %.2f%% max %.2f%%\n",
			rep.AvgFlowDeviation*100, rep.MaxFlowDeviation*100,
			rep.AvgPerfDeviation*100, rep.MaxPerfDeviation*100)
		if sel != nil {
			fmt.Fprintf(&b, "model auto-selected: %s (error budget %g)\n", sel.Name, errBudget)
		}
		return response{status: http.StatusOK, contentType: "text/plain; charset=utf-8", body: []byte(b.String())}, nil
	}
	out := makeValidateResult(rep, model)
	if sel != nil {
		out.ErrorBudget = errBudget
		out.ModelSelected = sel.Name
	}
	raw, err := json.MarshalIndent(out, "", "  ")
	if err != nil {
		return response{}, fmt.Errorf("rendering report: %w", err)
	}
	return response{status: http.StatusOK, contentType: "application/json", body: append(raw, '\n')}, nil
}

// makeValidateResult converts a report into its JSON form — shared by
// the steady-state rendering and the dynamic result's final-state
// section.
func makeValidateResult(rep *sim.Report, model sim.Model) validateResult {
	out := validateResult{
		Name:             rep.Design.Name,
		Model:            model.String(),
		AvgFlowDeviation: rep.AvgFlowDeviation,
		MaxFlowDeviation: rep.MaxFlowDeviation,
		AvgPerfDeviation: rep.AvgPerfDeviation,
		MaxPerfDeviation: rep.MaxPerfDeviation,
		PumpPressurePa:   rep.PumpPressure.Pascals(),
		KCLResidualM3S:   rep.KCLResidual.CubicMetresPerSecond(),
	}
	for _, m := range rep.Modules {
		out.Modules = append(out.Modules, struct {
			Name               string  `json:"name"`
			SpecFlowM3S        float64 `json:"spec_flow_m3s"`
			ActualFlowM3S      float64 `json:"actual_flow_m3s"`
			FlowDeviation      float64 `json:"flow_deviation"`
			SpecPerfusion      float64 `json:"spec_perfusion"`
			ActualPerfusion    float64 `json:"actual_perfusion"`
			PerfusionDeviation float64 `json:"perfusion_deviation"`
		}{
			Name:               m.Name,
			SpecFlowM3S:        m.SpecFlow.CubicMetresPerSecond(),
			ActualFlowM3S:      m.ActualFlow.CubicMetresPerSecond(),
			FlowDeviation:      m.FlowDeviation,
			SpecPerfusion:      m.SpecPerfusion,
			ActualPerfusion:    m.ActualPerfusion,
			PerfusionDeviation: m.PerfusionDeviation,
		})
	}
	return out
}

// handleValidate serves POST /v1/validate: specification in,
// validation/tolerance report out. ?model= selects the resistance
// model; Accept: text/plain selects the human-readable rendering.
func (s *Server) handleValidate(w http.ResponseWriter, r *http.Request) {
	started := time.Now()
	if r.Method != http.MethodPost {
		s.reply(w, "validate", started, jsonError(http.StatusMethodNotAllowed, "POST a specification document"), false)
		return
	}
	modelParam := r.URL.Query().Get("model")
	model, err := sim.ParseModel(modelParam)
	if err == nil && model == sim.ModelNumeric {
		err = errors.New("model numeric is not served: the FDM cross-section solve is an offline oracle (run oocsim -model numeric); exact is the served reference")
	}
	if err != nil {
		s.reply(w, "validate", started, jsonError(http.StatusBadRequest, "%v", err), false)
		return
	}
	errBudget, err := s.parseBudgetQuery(r.URL.Query().Get("error_budget"), modelParam != "")
	if err != nil {
		s.reply(w, "validate", started, jsonError(http.StatusBadRequest, "%v", err), false)
		return
	}
	dopt := sim.DefaultDynamicOptions()
	if model == sim.ModelDynamic {
		err = parseDynamicQuery(r.URL.Query(), &dopt)
	} else {
		err = rejectDynamicQuery(r.URL.Query(), model)
	}
	if err != nil {
		s.reply(w, "validate", started, jsonError(http.StatusBadRequest, "%v", err), false)
		return
	}
	spec, key, err := s.readSpec(w, r)
	if err != nil {
		s.reply(w, "validate", started, jsonError(http.StatusBadRequest, "%v", err), false)
		return
	}
	// Budget selection waits for the parsed spec so the per-use-case
	// calibration bound (keyed by the spec's name) applies; unknown
	// names fall back to the global bound. The selected rung replaces
	// the model for the rest of the request and is echoed in the
	// X-OOC-Model-Selected header — set before the cache consult so
	// hits echo it too.
	var sel *modelsel.Rung
	if errBudget != 0 {
		rung, err := s.selectRung(spec.Name, errBudget)
		if err != nil {
			s.reply(w, "validate", started, selectionResponse(err), false)
			return
		}
		sel = &rung
		model = rung.Model
		w.Header().Set("X-OOC-Model-Selected", rung.Name)
	}
	ctx, cancel, budget, err := s.requestContext(r)
	if err != nil {
		s.reply(w, "validate", started, jsonError(http.StatusBadRequest, "%v", err), false)
		return
	}
	defer cancel()
	w.Header().Set("X-OOC-Timeout", budget.String())
	if model == sim.ModelDynamic {
		// Fail a hopeless transient request before it burns the budget:
		// the step count gives a wall-clock lower bound up front.
		if err := checkDynamicBudget(dopt, budget); err != nil {
			s.reply(w, "validate", started, jsonError(http.StatusBadRequest, "%v", err), false)
			return
		}
	}

	// The rendering is part of the cache key: text, CSV, and JSON
	// replies of the same report are distinct cached bodies. So are the
	// dynamic run parameters — two transient runs share an entry exactly
	// when every option matches.
	accept := r.Header.Get("Accept")
	rendering := "json"
	switch {
	case model == sim.ModelDynamic && strings.Contains(accept, "text/csv"):
		rendering = "csv"
	case strings.Contains(accept, "text/plain"):
		rendering = "text"
	}
	variant := model.String()
	if model == sim.ModelDynamic {
		variant += "|" + dopt.CacheKey()
	}
	// A budget-selected response embeds the budget and the chosen rung
	// (body and header), so it must never alias a fixed-model entry for
	// the same spec — the budget and rung join the key.
	if sel != nil {
		variant += fmt.Sprintf("|budget=%g|rung=%s", errBudget, sel.Name)
	}
	cacheKey := fmt.Sprintf("validate|%s|%s|%s", variant, rendering, key)

	resp, hit, err := s.cache.do(ctx, s.col, cacheKey, func() (response, bool, error) {
		if err := s.adm.acquire(ctx); err != nil {
			return response{}, false, err
		}
		defer s.adm.release()
		if err := ctx.Err(); err != nil {
			return response{}, false, err
		}
		d, err := s.generate(ctx, spec)
		if err != nil {
			return jsonError(http.StatusUnprocessableEntity, "generate: %v", err), false, nil
		}
		opt := sim.DefaultOptions()
		opt.Model = model
		opt.Dynamic = dopt
		if sel != nil {
			sel.Apply(&opt)
			opt.ErrorBudget = errBudget
		}
		if model == sim.ModelDynamic {
			dr, err := s.validateDynamic(ctx, d, opt)
			if err != nil {
				if errors.Is(err, context.DeadlineExceeded) || errors.Is(err, context.Canceled) {
					return response{}, false, err
				}
				return jsonError(http.StatusUnprocessableEntity, "validate: %v", err), false, nil
			}
			out, err := renderDynamic(dr, rendering)
			if err != nil {
				return response{}, false, err
			}
			return out, true, nil
		}
		rep, err := s.validate(ctx, d, opt)
		if err != nil {
			if errors.Is(err, context.DeadlineExceeded) || errors.Is(err, context.Canceled) {
				return response{}, false, err
			}
			return jsonError(http.StatusUnprocessableEntity, "validate: %v", err), false, nil
		}
		out, err := renderValidation(rep, model, rendering == "text", sel, errBudget)
		if err != nil {
			return response{}, false, err
		}
		return out, true, nil
	})
	if err != nil {
		resp = errorResponse(err)
	}
	s.reply(w, "validate", started, resp, hit)
}

// handleHealthz serves GET /healthz.
func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	started := time.Now()
	s.reply(w, "healthz", started, response{
		status:      http.StatusOK,
		contentType: "text/plain; charset=utf-8",
		body:        []byte("ok\n"),
	}, false)
}

// handleMetrics serves GET /metrics.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	started := time.Now()
	s.reply(w, "metrics", started, response{
		status:      http.StatusOK,
		contentType: "text/plain; charset=utf-8",
		body:        []byte(s.MetricsText()),
	}, false)
}
