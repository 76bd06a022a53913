// Package modelsel implements accuracy-budgeted model auto-selection:
// given an error budget (a tolerable deviation fraction), it walks the
// fidelity ladder cheapest-first and picks the first rung whose
// *calibrated* worst-case deviation from the reference model fits the
// budget — Takken & Wille's "cheapest model that meets the accuracy
// target" scheduling, applied to the approx → exact ladder.
//
// The calibration table is an offline artifact (CALIB.json, generated
// by `oocbench -calibrate`, regenerated and diffed in CI): for every
// serving rung it records, per use case and globally, the worst
// observed difference between that rung's reported deviations and the
// reference rung's (numeric@128, a high-resolution FDM solve that is
// deliberately *not* in the serving ladder — every serving rung
// therefore has a strictly positive bound, and a budget below the
// tightest rung is unmeetable, not silently rounded). The table is
// embedded in the binary, parsed and validated once, and consulted on
// every `?error_budget=` / `-budget` request.
//
// Selection is deterministic: the ladder is sorted by cost rank and
// the first fit wins, so the same (use case, budget) pair always picks
// the same rung — byte-identical reports for any worker count follow
// from the solvers' own determinism guarantee.
package modelsel

import (
	_ "embed"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"sort"
	"strconv"
	"sync"

	"ooc/internal/sim"
)

// Schema versions the calibration document layout; bump on breaking
// changes so a stale CALIB.json fails loudly instead of mis-selecting.
const Schema = "ooccalib/v1"

// Doc is the JSON form of the calibration artifact (CALIB.json).
type Doc struct {
	Schema string `json:"schema"`
	// Grid names the sweep the bounds were measured over ("paper").
	Grid string `json:"grid"`
	// Reference names the rung every bound is measured against.
	Reference string `json:"reference"`
	// Rungs is the serving ladder; any order on disk, selection sorts
	// by CostRank.
	Rungs []RungDoc `json:"rungs"`
}

// RungDoc is one serving rung's calibration record.
type RungDoc struct {
	// Name is the rung's display spelling ("approx", "exact").
	Name string `json:"name"`
	// Model is the sim.ParseModel spelling: approx or exact.
	Model string `json:"model"`
	// CostRank orders the ladder: 1 is cheapest, selection walks
	// ascending ranks and returns the first fit.
	CostRank int `json:"cost_rank"`
	// Global is the worst case across every use case; UseCases refines
	// it per use case (unknown use cases fall back to Global).
	Global   Bounds          `json:"global"`
	UseCases []UseCaseBounds `json:"use_cases"`
}

// UseCaseBounds scopes a bound to one use case.
type UseCaseBounds struct {
	UseCase string `json:"use_case"`
	Bounds
}

// Bounds is a rung's calibrated worst-case deviation from the
// reference, per metric. Values are deviation fractions on the same
// scale as Report.MaxFlowDeviation / MaxPerfDeviation: the bound is
// the largest |MaxDev(rung) − MaxDev(reference)| observed anywhere in
// the calibration sweep.
type Bounds struct {
	Flow float64 `json:"flow_bound"`
	Perf float64 `json:"perf_bound"`
}

// Worst is the bound a budget must cover: the larger of the two
// per-metric bounds.
func (b Bounds) Worst() float64 { return math.Max(b.Flow, b.Perf) }

// RungSpec identifies one rung of the fidelity ladder by model and
// resolution — the calibration sweep's unit of work.
type RungSpec struct {
	Name       string
	Model      sim.Model
	Resolution int
}

// Apply configures opt to validate at this rung.
func (r RungSpec) Apply(o *sim.Options) {
	o.Model = r.Model
	o.NumericResolution = r.Resolution
}

// Ladder is the canonical serving ladder, cheapest first: the
// designer's own Eq. 6 (approx), then the Fourier-series truth model
// (exact). The FDM cross-section solve at resolutions below the
// reference is not a rung: exact is both cheaper and closer to the
// reference in every calibrated scope, so no budget would select it.
// The transient tier (dynamic) is excluded — it answers a different
// question (time evolution), not a cheaper version of the same one.
func Ladder() []RungSpec {
	return []RungSpec{
		{Name: "approx", Model: sim.ModelApprox},
		{Name: "exact", Model: sim.ModelExact},
	}
}

// Reference is the rung the calibration measures deviations against: a
// high-resolution FDM solve, deliberately outside the serving ladder
// so every serving rung carries a strictly positive bound.
func Reference() RungSpec {
	return RungSpec{Name: "numeric@128", Model: sim.ModelNumeric, Resolution: 128}
}

// Rung is one selectable rung of a validated Table.
type Rung struct {
	Name     string
	Model    sim.Model
	CostRank int
	Global   Bounds
	useCases map[string]Bounds
}

// Bound returns the rung's calibrated bound for a use case; use cases
// absent from the calibration sweep get the global worst case.
func (r Rung) Bound(useCase string) Bounds {
	if b, ok := r.useCases[useCase]; ok {
		return b
	}
	return r.Global
}

// Apply configures opt to validate at this rung.
func (r Rung) Apply(o *sim.Options) { o.Model = r.Model }

// Table is a parsed, validated calibration table ready for selection.
type Table struct {
	doc   Doc
	rungs []Rung // ascending CostRank
}

// Doc returns the document the table was parsed from.
func (t *Table) Doc() Doc { return t.doc }

// Rungs returns the ladder in selection (ascending-cost) order.
func (t *Table) Rungs() []Rung { return t.rungs }

// Parse validates a calibration document: schema match, at least one
// rung, unique names and cost ranks, approx or exact models, and
// finite non-negative bounds. Anything off is an error naming the
// offending rung — a daemon must refuse to boot on a bad table rather
// than mis-route traffic. The model whitelist is what keeps a budget
// from ever selecting the FDM: numeric is the offline reference, and
// dynamic answers a different question.
func Parse(raw []byte) (*Table, error) {
	var doc Doc
	if err := json.Unmarshal(raw, &doc); err != nil {
		return nil, fmt.Errorf("modelsel: parsing calibration table: %w", err)
	}
	if doc.Schema != Schema {
		return nil, fmt.Errorf("modelsel: calibration table has schema %q, this binary speaks %q — regenerate it with oocbench -calibrate",
			doc.Schema, Schema)
	}
	if len(doc.Rungs) == 0 {
		return nil, fmt.Errorf("modelsel: calibration table has no rungs")
	}
	t := &Table{doc: doc}
	seenName := make(map[string]bool, len(doc.Rungs))
	seenRank := make(map[int]bool, len(doc.Rungs))
	for _, rd := range doc.Rungs {
		if rd.Name == "" {
			return nil, fmt.Errorf("modelsel: calibration rung with empty name")
		}
		if seenName[rd.Name] {
			return nil, fmt.Errorf("modelsel: duplicate calibration rung %q", rd.Name)
		}
		seenName[rd.Name] = true
		if rd.Model == "" {
			return nil, fmt.Errorf("modelsel: rung %q has no model", rd.Name)
		}
		model, err := sim.ParseModel(rd.Model)
		if err != nil {
			return nil, fmt.Errorf("modelsel: rung %q: %w", rd.Name, err)
		}
		if model != sim.ModelApprox && model != sim.ModelExact {
			return nil, fmt.Errorf("modelsel: rung %q: model %s cannot be a selection rung (want approx or exact; numeric is the offline reference, dynamic the transient tier)", rd.Name, model)
		}
		if rd.CostRank <= 0 {
			return nil, fmt.Errorf("modelsel: rung %q has cost rank %d (want >= 1)", rd.Name, rd.CostRank)
		}
		if seenRank[rd.CostRank] {
			return nil, fmt.Errorf("modelsel: rung %q repeats cost rank %d", rd.Name, rd.CostRank)
		}
		seenRank[rd.CostRank] = true
		if err := checkBounds(rd.Name, "global", rd.Global); err != nil {
			return nil, err
		}
		r := Rung{
			Name:     rd.Name,
			Model:    model,
			CostRank: rd.CostRank,
			Global:   rd.Global,
			useCases: make(map[string]Bounds, len(rd.UseCases)),
		}
		for _, uc := range rd.UseCases {
			if uc.UseCase == "" {
				return nil, fmt.Errorf("modelsel: rung %q has a bound with an empty use case", rd.Name)
			}
			if _, dup := r.useCases[uc.UseCase]; dup {
				return nil, fmt.Errorf("modelsel: rung %q repeats use case %q", rd.Name, uc.UseCase)
			}
			if err := checkBounds(rd.Name, uc.UseCase, uc.Bounds); err != nil {
				return nil, err
			}
			r.useCases[uc.UseCase] = uc.Bounds
		}
		t.rungs = append(t.rungs, r)
	}
	sort.Slice(t.rungs, func(i, j int) bool { return t.rungs[i].CostRank < t.rungs[j].CostRank })
	return t, nil
}

// ParseFile loads and validates a calibration document from disk —
// the -calibrate -diff baseline and any operator-supplied override.
func ParseFile(path string) (*Table, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("modelsel: reading calibration table: %w", err)
	}
	t, err := Parse(raw)
	if err != nil {
		return nil, fmt.Errorf("%w (from %s)", err, path)
	}
	return t, nil
}

// checkBounds rejects non-finite or negative bounds.
func checkBounds(rung, scope string, b Bounds) error {
	for _, v := range []struct {
		name  string
		value float64
	}{{"flow", b.Flow}, {"perf", b.Perf}} {
		if math.IsNaN(v.value) || math.IsInf(v.value, 0) || v.value < 0 {
			return fmt.Errorf("modelsel: rung %q %s %s bound %g is not a finite non-negative fraction",
				rung, scope, v.name, v.value)
		}
	}
	return nil
}

// CheckBudget range-checks an error budget: a deviation fraction in
// (0, 1]. Used by CLIs that parse the number themselves.
func CheckBudget(budget float64) error {
	if math.IsNaN(budget) || !(budget > 0) || budget > 1 {
		return fmt.Errorf("modelsel: error budget %g out of range (want a fraction in (0, 1], like 0.02 for 2%%)", budget)
	}
	return nil
}

// ParseBudget parses a user-supplied error budget string (the
// ?error_budget= query parameter).
func ParseBudget(raw string) (float64, error) {
	b, err := strconv.ParseFloat(raw, 64)
	if err != nil {
		return 0, fmt.Errorf("modelsel: invalid error budget %q (want a fraction in (0, 1], like 0.02 for 2%%)", raw)
	}
	if err := CheckBudget(b); err != nil {
		return 0, err
	}
	return b, nil
}

// UnmeetableError reports a budget tighter than every calibrated rung.
// It names the tightest achievable rung so the client can either relax
// the budget or pin that model explicitly.
type UnmeetableError struct {
	Budget  float64
	UseCase string
	Rung    string  // tightest achievable rung
	Bound   float64 // its calibrated worst-case deviation
}

func (e *UnmeetableError) Error() string {
	scope := "globally"
	if e.UseCase != "" {
		scope = fmt.Sprintf("for use case %q", e.UseCase)
	}
	return fmt.Sprintf("modelsel: error budget %g is unmeetable %s: the tightest calibrated rung is %s with worst-case deviation %g",
		e.Budget, scope, e.Rung, e.Bound)
}

// Select walks the ladder cheapest-first and returns the first rung
// whose calibrated worst-case deviation for useCase fits the budget. A
// budget exactly at a rung's bound selects that rung — the bound is a
// worst case, so meeting it exactly still meets it. An empty useCase
// (or one absent from the calibration) selects against the global
// bounds. A budget outside (0, 1] is a plain error; a valid budget
// tighter than every rung is an *UnmeetableError.
func (t *Table) Select(useCase string, budget float64) (Rung, error) {
	if err := CheckBudget(budget); err != nil {
		return Rung{}, err
	}
	for _, r := range t.rungs {
		if r.Bound(useCase).Worst() <= budget {
			return r, nil
		}
	}
	tight := t.rungs[0]
	for _, r := range t.rungs[1:] {
		if r.Bound(useCase).Worst() < tight.Bound(useCase).Worst() {
			tight = r
		}
	}
	return Rung{}, &UnmeetableError{
		Budget:  budget,
		UseCase: useCase,
		Rung:    tight.Name,
		Bound:   tight.Bound(useCase).Worst(),
	}
}

// embedded is the committed calibration artifact; `oocbench -calibrate
// -diff internal/modelsel/CALIB.json` (scripts/calibdiff.sh, the CI
// calibration job) keeps it from drifting away from the solvers.
//
//go:embed CALIB.json
var embedded []byte

// defaultTable memoizes the parsed embedded artifact; mutex-guarded
// like the cross-section cache so the first concurrent requests race
// safely.
var defaultTable = struct {
	sync.Mutex
	table  *Table
	err    error
	loaded bool
}{}

// Default returns the table parsed from the embedded CALIB.json. The
// parse happens once per process; every caller shares the result.
// cmd/oocd calls this at boot so an invalid artifact fails the daemon
// loudly instead of surfacing as 500s on budgeted requests.
func Default() (*Table, error) {
	defaultTable.Lock()
	defer defaultTable.Unlock()
	if !defaultTable.loaded {
		defaultTable.loaded = true
		defaultTable.table, defaultTable.err = Parse(embedded)
	}
	return defaultTable.table, defaultTable.err
}
