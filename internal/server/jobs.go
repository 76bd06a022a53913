package server

// The /v1/jobs endpoints: asynchronous design-space exploration. A
// search over the candidate grid takes seconds to minutes — far past
// any sane request deadline — so it runs as a job: POST submits and
// returns 202 with an id, GET polls live progress (evaluated/total,
// best-so-far, per-candidate results), DELETE cancels cooperatively.
// Admission mirrors the synchronous endpoints one level up: a full job
// queue answers 429 immediately.

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"time"

	"ooc/internal/jobs"
	"ooc/internal/optimize"
	"ooc/internal/sim"
	"ooc/internal/specio"
	"ooc/internal/units"
)

// jobRequest is the POST /v1/jobs body.
type jobRequest struct {
	// Spec is the base specification document (the same JSON the
	// synchronous endpoints accept); the search overrides its free
	// geometry per candidate.
	Spec json.RawMessage `json:"spec"`
	// Objective: area (default), pressure, flow.
	Objective string `json:"objective,omitempty"`
	// Strategy: grid (default) or halving.
	Strategy string `json:"strategy,omitempty"`
	// Model picks the full-fidelity validation model (the final rung
	// under halving); numeric is rejected. Submitting with
	// ?error_budget= auto-selects Model from the calibration table
	// instead; an explicit Model wins over the budget.
	Model string `json:"model,omitempty"`
	// Candidate axes; absent selects the documented defaults. An
	// explicitly empty array, or more than optimize.MaxCandidates
	// candidates, is rejected.
	ChannelHeightsUm []float64 `json:"channel_heights_um,omitempty"`
	MinGapsMm        []float64 `json:"min_gaps_mm,omitempty"`
	// Constraints. A nil MaxFlowDeviation selects the 5 % default;
	// zero means exactly zero (unmeetable by design).
	MaxFlowDeviation  *float64 `json:"max_flow_deviation,omitempty"`
	MaxPumpPressurePa float64  `json:"max_pump_pressure_pa,omitempty"`
	// Eta is the halving keep divisor (default 2); Workers bounds a
	// rung's concurrent evaluations (default GOMAXPROCS).
	Eta     int `json:"eta,omitempty"`
	Workers int `json:"workers,omitempty"`
	// Timeout is the per-job deadline budget as a Go duration string
	// ("90s", "10m"); absent selects the server default, values over
	// the cap are clamped (the response's X-OOC-Timeout header echoes
	// the effective budget).
	Timeout string `json:"timeout,omitempty"`
}

// jobCandidate is the JSON form of one evaluated candidate. Score is
// a pointer because the NaN sentinel (generation failure) has no JSON
// encoding — it renders as an absent field.
type jobCandidate struct {
	ChannelHeightUm float64  `json:"channel_height_um"`
	MinGapMm        float64  `json:"min_gap_mm"`
	Rung            int      `json:"rung"`
	Feasible        bool     `json:"feasible"`
	Score           *float64 `json:"score,omitempty"`
	Reason          string   `json:"reason,omitempty"`
}

// jobRung is the JSON form of one halving rung's statistics.
type jobRung struct {
	Rung      int    `json:"rung"`
	Model     string `json:"model"`
	Evaluated int    `json:"evaluated"`
	Kept      int    `json:"kept"`
}

// jobStatus is the GET /v1/jobs/{id} body (and the 202 submit echo).
type jobStatus struct {
	ID              string         `json:"id"`
	State           string         `json:"state"`
	Strategy        string         `json:"strategy"`
	Objective       string         `json:"objective"`
	Evaluated       int            `json:"evaluated"`
	Total           int            `json:"total"`
	Rung            int            `json:"rung"`
	FullEvaluations int            `json:"full_evaluations"`
	Feasible        int            `json:"feasible"`
	Best            *jobCandidate  `json:"best,omitempty"`
	BestGeometry    *jobGeometry   `json:"best_geometry,omitempty"`
	Rungs           []jobRung      `json:"rungs,omitempty"`
	Candidates      []jobCandidate `json:"candidates,omitempty"`
	Error           string         `json:"error,omitempty"`
}

// jobGeometry is the winning specification's free geometry plus the
// headline validation numbers.
type jobGeometry struct {
	ChannelHeightUm  float64 `json:"channel_height_um"`
	MinGapMm         float64 `json:"min_gap_mm"`
	MaxFlowDeviation float64 `json:"max_flow_deviation"`
	PumpPressurePa   float64 `json:"pump_pressure_pa"`
}

// renderCandidate converts an optimize.Candidate for JSON.
func renderCandidate(c optimize.Candidate) jobCandidate {
	out := jobCandidate{
		ChannelHeightUm: c.ChannelHeight.Micrometres(),
		MinGapMm:        c.MinGap.Millimetres(),
		Rung:            c.Rung,
		Feasible:        c.Feasible,
		Reason:          c.Reason,
	}
	if !math.IsNaN(c.Score) {
		score := c.Score
		out.Score = &score
	}
	return out
}

// renderJobStatus converts a jobs.Status for JSON.
func renderJobStatus(st jobs.Status) jobStatus {
	out := jobStatus{
		ID:              st.ID,
		State:           string(st.State),
		Strategy:        st.Strategy.String(),
		Objective:       st.Objective.String(),
		Evaluated:       st.Evaluated,
		Total:           st.Total,
		Rung:            st.Rung,
		FullEvaluations: st.FullEvaluations,
		Feasible:        st.Feasible,
		Error:           st.Error,
	}
	if st.Best != nil {
		b := renderCandidate(*st.Best)
		out.Best = &b
	}
	if st.BestSpec.Geometry.ChannelHeight > 0 {
		out.BestGeometry = &jobGeometry{
			ChannelHeightUm:  st.BestSpec.Geometry.ChannelHeight.Micrometres(),
			MinGapMm:         st.BestSpec.Geometry.MinGap.Millimetres(),
			MaxFlowDeviation: st.BestMaxFlowDeviation,
			PumpPressurePa:   st.BestPumpPressurePa,
		}
	}
	for _, rg := range st.Rungs {
		out.Rungs = append(out.Rungs, jobRung{Rung: rg.Rung, Model: rg.Model, Evaluated: rg.Evaluated, Kept: rg.Kept})
	}
	for _, c := range st.Candidates {
		out.Candidates = append(out.Candidates, renderCandidate(c))
	}
	return out
}

// jsonBody marshals v as a JSON response body.
func jsonBody(status int, v any) response {
	raw, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return jsonError(http.StatusInternalServerError, "rendering response: %v", err)
	}
	return response{status: status, contentType: "application/json", body: append(raw, '\n')}
}

// parseJobRequest converts the POST body into a jobs.Request.
func (s *Server) parseJobRequest(w http.ResponseWriter, r *http.Request) (jobs.Request, error) {
	raw, err := io.ReadAll(http.MaxBytesReader(w, r.Body, maxSpecBytes))
	if err != nil {
		return jobs.Request{}, fmt.Errorf("reading request body: %w", err)
	}
	var in jobRequest
	if err := json.Unmarshal(raw, &in); err != nil {
		return jobs.Request{}, fmt.Errorf("parsing job request: %w", err)
	}
	if len(in.Spec) == 0 {
		return jobs.Request{}, fmt.Errorf("job request needs a \"spec\" document")
	}
	spec, err := specio.Parse(in.Spec)
	if err != nil {
		return jobs.Request{}, err
	}

	var opt optimize.Options
	if opt.Objective, err = optimize.ParseObjective(in.Objective); err != nil {
		return jobs.Request{}, err
	}
	if opt.Strategy, err = optimize.ParseStrategy(in.Strategy); err != nil {
		return jobs.Request{}, err
	}
	if opt.Sim.Model, err = sim.ParseModel(in.Model); err != nil {
		return jobs.Request{}, err
	}
	if opt.Sim.Model == sim.ModelDynamic {
		// Search jobs only need the settled final state, so the
		// documented transient defaults are the right configuration.
		opt.Sim.Dynamic = sim.DefaultDynamicOptions()
	}

	// ?error_budget= auto-selects the full-fidelity rung from the
	// calibration table, exactly like the synchronous endpoints; an
	// explicit "model" in the body wins over the budget.
	errBudget, err := s.parseBudgetQuery(r.URL.Query().Get("error_budget"), in.Model != "")
	if err != nil {
		return jobs.Request{}, err
	}
	if errBudget != 0 {
		rung, err := s.selectRung(spec.Name, errBudget)
		if err != nil {
			return jobs.Request{}, err
		}
		rung.Apply(&opt.Sim)
		opt.Sim.ErrorBudget = errBudget
		w.Header().Set("X-OOC-Model-Selected", rung.Name)
	}

	opt.Constraints = optimize.DefaultConstraints()
	if in.MaxFlowDeviation != nil {
		opt.Constraints.MaxFlowDeviation = *in.MaxFlowDeviation
	}
	if in.MaxPumpPressurePa > 0 {
		opt.Constraints.MaxPumpPressure = units.Pascals(in.MaxPumpPressurePa)
	}
	// Convert the axes preserving nil-ness: absent means "the default
	// axis", and an explicit empty array is the zero-candidate request
	// the options check below rejects.
	if in.ChannelHeightsUm != nil {
		opt.ChannelHeights = make([]units.Length, len(in.ChannelHeightsUm))
		for i, um := range in.ChannelHeightsUm {
			opt.ChannelHeights[i] = units.Micrometres(um)
		}
	}
	if in.MinGapsMm != nil {
		opt.MinGaps = make([]units.Length, len(in.MinGapsMm))
		for i, mm := range in.MinGapsMm {
			opt.MinGaps[i] = units.Millimetres(mm)
		}
	}
	opt.HalvingEta = in.Eta
	opt.Workers = in.Workers
	// Options no search may run fail the submission synchronously
	// instead of admitting a job doomed to fail: the numeric model, an
	// empty axis, and a grid so large that halving would allocate it
	// all before the first deadline check.
	if err := optimize.CheckOptions(opt); err != nil {
		return jobs.Request{}, err
	}

	var timeout time.Duration
	if in.Timeout != "" {
		d, err := time.ParseDuration(in.Timeout)
		if err != nil || d <= 0 {
			return jobs.Request{}, fmt.Errorf("invalid timeout %q (want a positive duration like 90s)", in.Timeout)
		}
		timeout = d
	}
	return jobs.Request{Spec: spec, Options: opt, Timeout: timeout}, nil
}

// handleJobs serves /v1/jobs: POST submits a search job, GET lists the
// retained jobs in submission order.
func (s *Server) handleJobs(w http.ResponseWriter, r *http.Request) {
	started := time.Now()
	switch r.Method {
	case http.MethodPost:
		req, err := s.parseJobRequest(w, r)
		if err != nil {
			s.reply(w, "jobs", started, jsonError(http.StatusBadRequest, "%v", err), false)
			return
		}
		w.Header().Set("X-OOC-Timeout", s.jobs.EffectiveTimeout(req.Timeout).String())
		st, err := s.jobs.Submit(req)
		switch {
		case errors.Is(err, jobs.ErrBusy):
			s.reply(w, "jobs", started, jsonError(http.StatusTooManyRequests, "job queue full, retry later"), false)
			return
		case errors.Is(err, jobs.ErrShutdown):
			s.reply(w, "jobs", started, jsonError(http.StatusServiceUnavailable, "server is shutting down"), false)
			return
		case err != nil:
			s.reply(w, "jobs", started, jsonError(http.StatusInternalServerError, "%v", err), false)
			return
		}
		w.Header().Set("Location", "/v1/jobs/"+st.ID)
		s.reply(w, "jobs", started, jsonBody(http.StatusAccepted, renderJobStatus(st)), false)
	case http.MethodGet:
		list := s.jobs.List()
		out := make([]jobStatus, 0, len(list))
		for _, st := range list {
			// The list view stays light: drop the per-candidate logs.
			st.Candidates = nil
			out = append(out, renderJobStatus(st))
		}
		s.reply(w, "jobs", started, jsonBody(http.StatusOK, out), false)
	default:
		s.reply(w, "jobs", started, jsonError(http.StatusMethodNotAllowed, "POST a job request or GET the job list"), false)
	}
}

// handleJob serves /v1/jobs/{id}: GET polls the job's progress or
// final result, DELETE cancels it (idempotently) and echoes the
// post-cancel snapshot.
func (s *Server) handleJob(w http.ResponseWriter, r *http.Request) {
	started := time.Now()
	id := r.PathValue("id")
	var (
		st  jobs.Status
		err error
	)
	switch r.Method {
	case http.MethodGet:
		st, err = s.jobs.Get(id)
	case http.MethodDelete:
		st, err = s.jobs.Cancel(id)
	default:
		s.reply(w, "jobs", started, jsonError(http.StatusMethodNotAllowed, "GET polls a job, DELETE cancels it"), false)
		return
	}
	if errors.Is(err, jobs.ErrNotFound) {
		s.reply(w, "jobs", started, jsonError(http.StatusNotFound, "%v", err), false)
		return
	}
	if err != nil {
		s.reply(w, "jobs", started, jsonError(http.StatusInternalServerError, "%v", err), false)
		return
	}
	s.reply(w, "jobs", started, jsonBody(http.StatusOK, renderJobStatus(st)), false)
}
