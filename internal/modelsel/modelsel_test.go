package modelsel

import (
	"encoding/json"
	"errors"
	"fmt"
	"strings"
	"testing"

	"ooc/internal/sim"
)

// testDoc builds a small two-rung document with easy round-number
// bounds: a cheap rung bounded at 0.01 globally (0.002 for
// male_simple) and a tight rung bounded at 0.0001.
func testDoc() Doc {
	return Doc{
		Schema:    Schema,
		Grid:      "paper",
		Reference: "numeric@128",
		Rungs: []RungDoc{
			{
				Name: "cheap", Model: "approx", CostRank: 1,
				Global: Bounds{Flow: 0.01, Perf: 0.008},
				UseCases: []UseCaseBounds{
					{UseCase: "male_simple", Bounds: Bounds{Flow: 0.002, Perf: 0.001}},
				},
			},
			{
				Name: "tight", Model: "numeric", Resolution: 64, CostRank: 2,
				Global: Bounds{Flow: 0.0001, Perf: 0.0001},
				UseCases: []UseCaseBounds{
					{UseCase: "male_simple", Bounds: Bounds{Flow: 0.00005, Perf: 0.00002}},
				},
			},
		},
	}
}

func mustTable(t *testing.T, doc Doc) *Table {
	t.Helper()
	raw, err := json.Marshal(doc)
	if err != nil {
		t.Fatal(err)
	}
	table, err := Parse(raw)
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	return table
}

// TestSelectCheapestFirst: a loose budget takes the cheap rung even
// though the tight rung also fits.
func TestSelectCheapestFirst(t *testing.T) {
	table := mustTable(t, testDoc())
	r, err := table.Select("", 0.5)
	if err != nil {
		t.Fatal(err)
	}
	if r.Name != "cheap" || r.Model != sim.ModelApprox {
		t.Fatalf("budget 0.5 selected %s (%v), want cheap/approx", r.Name, r.Model)
	}
}

// TestSelectBudgetExactlyAtBound: a budget equal to a rung's calibrated
// worst-case bound still selects that rung — the bound is a worst case,
// so meeting it exactly meets it.
func TestSelectBudgetExactlyAtBound(t *testing.T) {
	table := mustTable(t, testDoc())
	// Global worst of "cheap" is max(0.01, 0.008) = 0.01.
	r, err := table.Select("", 0.01)
	if err != nil {
		t.Fatal(err)
	}
	if r.Name != "cheap" {
		t.Fatalf("budget exactly at the cheap bound selected %s, want cheap", r.Name)
	}
	// Just below the bound must fall through to the tighter rung.
	r, err = table.Select("", 0.0099)
	if err != nil {
		t.Fatal(err)
	}
	if r.Name != "tight" {
		t.Fatalf("budget below the cheap bound selected %s, want tight", r.Name)
	}
}

// TestSelectPerUseCaseBound: the per-use-case bound (0.002) admits the
// cheap rung where the global bound (0.01) would not.
func TestSelectPerUseCaseBound(t *testing.T) {
	table := mustTable(t, testDoc())
	r, err := table.Select("male_simple", 0.005)
	if err != nil {
		t.Fatal(err)
	}
	if r.Name != "cheap" {
		t.Fatalf("per-use-case budget selected %s, want cheap", r.Name)
	}
	// The same budget against an uncalibrated use case falls back to
	// the global bounds and needs the tight rung.
	r, err = table.Select("never_calibrated", 0.005)
	if err != nil {
		t.Fatal(err)
	}
	if r.Name != "tight" {
		t.Fatalf("unknown use case selected %s, want tight (global fallback)", r.Name)
	}
}

// TestSelectUnmeetable: a budget tighter than every rung returns an
// *UnmeetableError naming the tightest achievable rung and its bound.
func TestSelectUnmeetable(t *testing.T) {
	table := mustTable(t, testDoc())
	_, err := table.Select("male_simple", 0.00001)
	var um *UnmeetableError
	if !errors.As(err, &um) {
		t.Fatalf("want *UnmeetableError, got %v", err)
	}
	if um.Rung != "tight" || fmt.Sprintf("%g", um.Bound) != "5e-05" {
		t.Fatalf("unmeetable error names %s bound %g, want tight bound 5e-05", um.Rung, um.Bound)
	}
	if !strings.Contains(um.Error(), "tightest") || !strings.Contains(um.Error(), "tight") {
		t.Fatalf("error message does not name the tightest rung: %v", um)
	}
}

// TestSelectRejectsBadBudget: budgets outside (0, 1] are plain errors,
// not unmeetable selections.
func TestSelectRejectsBadBudget(t *testing.T) {
	table := mustTable(t, testDoc())
	for _, b := range []float64{0, -0.1, 1.5} {
		_, err := table.Select("", b)
		if err == nil {
			t.Fatalf("budget %g: expected an error", b)
		}
		var um *UnmeetableError
		if errors.As(err, &um) {
			t.Fatalf("budget %g: range error must not be UnmeetableError", b)
		}
	}
}

// TestParseBudget: the query-parameter spelling check.
func TestParseBudget(t *testing.T) {
	if b, err := ParseBudget("0.02"); err != nil || fmt.Sprintf("%g", b) != "0.02" {
		t.Fatalf("ParseBudget(0.02) = %g, %v", b, err)
	}
	for _, raw := range []string{"", "x", "0", "-1", "1.01", "NaN", "Inf"} {
		if _, err := ParseBudget(raw); err == nil {
			t.Errorf("ParseBudget(%q): expected an error", raw)
		}
	}
}

// TestParseRejectsBadDocuments: every validation rule fails with an
// error naming the problem.
func TestParseRejectsBadDocuments(t *testing.T) {
	cases := []struct {
		name    string
		mutate  func(*Doc)
		wantSub string
	}{
		{"wrong schema", func(d *Doc) { d.Schema = "ooccalib/v0" }, "schema"},
		{"no rungs", func(d *Doc) { d.Rungs = nil }, "no rungs"},
		{"empty name", func(d *Doc) { d.Rungs[0].Name = "" }, "empty name"},
		{"duplicate name", func(d *Doc) { d.Rungs[1].Name = "cheap" }, "duplicate"},
		{"no model", func(d *Doc) { d.Rungs[0].Model = "" }, "no model"},
		{"unknown model", func(d *Doc) { d.Rungs[0].Model = "spectral" }, "model"},
		{"dynamic rung", func(d *Doc) { d.Rungs[0].Model = "dynamic" }, "transient"},
		{"zero cost rank", func(d *Doc) { d.Rungs[0].CostRank = 0 }, "cost rank"},
		{"duplicate rank", func(d *Doc) { d.Rungs[1].CostRank = 1 }, "repeats cost rank"},
		{"negative bound", func(d *Doc) { d.Rungs[0].Global.Flow = -0.1 }, "bound"},
		{"empty use case", func(d *Doc) { d.Rungs[0].UseCases[0].UseCase = "" }, "empty use case"},
		{"duplicate use case", func(d *Doc) {
			d.Rungs[0].UseCases = append(d.Rungs[0].UseCases, d.Rungs[0].UseCases[0])
		}, "repeats use case"},
	}
	for _, tc := range cases {
		doc := testDoc()
		tc.mutate(&doc)
		raw, err := json.Marshal(doc)
		if err != nil {
			t.Fatal(err)
		}
		_, err = Parse(raw)
		if err == nil {
			t.Errorf("%s: expected an error", tc.name)
			continue
		}
		if !strings.Contains(err.Error(), tc.wantSub) {
			t.Errorf("%s: error %q does not mention %q", tc.name, err, tc.wantSub)
		}
	}
}

// TestParseSortsByCostRank: on-disk order is irrelevant; selection
// order is ascending cost rank.
func TestParseSortsByCostRank(t *testing.T) {
	doc := testDoc()
	doc.Rungs[0], doc.Rungs[1] = doc.Rungs[1], doc.Rungs[0]
	table := mustTable(t, doc)
	rungs := table.Rungs()
	if rungs[0].Name != "cheap" || rungs[1].Name != "tight" {
		t.Fatalf("rungs not sorted by cost rank: %s, %s", rungs[0].Name, rungs[1].Name)
	}
}

// TestDefaultEmbedded: the embedded artifact parses, covers the whole
// serving ladder in ladder order, and every bound is strictly positive
// (the reference rung is outside the ladder, so a zero bound would
// mean the calibration is lying).
func TestDefaultEmbedded(t *testing.T) {
	table, err := Default()
	if err != nil {
		t.Fatalf("embedded CALIB.json: %v", err)
	}
	ladder := Ladder()
	rungs := table.Rungs()
	if len(rungs) != len(ladder) {
		t.Fatalf("embedded table has %d rungs, ladder has %d", len(rungs), len(ladder))
	}
	for i, spec := range ladder {
		r := rungs[i]
		if r.Name != spec.Name || r.Model != spec.Model || r.Resolution != spec.Resolution {
			t.Errorf("rung %d: table %s (%v@%d) != ladder %s (%v@%d)",
				i, r.Name, r.Model, r.Resolution, spec.Name, spec.Model, spec.Resolution)
		}
		if r.Global.Worst() <= 0 {
			t.Errorf("rung %s: global worst-case bound %g is not strictly positive", r.Name, r.Global.Worst())
		}
	}
	// The documented check.sh smoke budget (1%) must select a cheaper
	// rung than the numeric models.
	r, err := table.Select("male_simple", 0.01)
	if err != nil {
		t.Fatalf("budget 0.01: %v", err)
	}
	if r.Model == sim.ModelNumeric {
		t.Fatalf("budget 0.01 selected %s — the smoke test relies on a non-numeric rung", r.Name)
	}
}

// TestEveryEmbeddedRungSelectable: each rung of the embedded table is
// selected by some budget in some scope (global or one use case) — a
// rung is only worth calibrating if it is strictly tighter there than
// every cheaper rung. Select returns the first rung whose bound fits,
// so a budget equal to a rung's own bound selects it exactly when
// every cheaper rung's bound exceeds it.
func TestEveryEmbeddedRungSelectable(t *testing.T) {
	table, err := Default()
	if err != nil {
		t.Fatalf("embedded CALIB.json: %v", err)
	}
	scopes := []string{""}
	seen := make(map[string]bool)
	for _, rd := range table.Doc().Rungs {
		for _, uc := range rd.UseCases {
			if !seen[uc.UseCase] {
				seen[uc.UseCase] = true
				scopes = append(scopes, uc.UseCase)
			}
		}
	}
	for _, r := range table.Rungs() {
		selectable := false
		for _, scope := range scopes {
			got, err := table.Select(scope, r.Bound(scope).Worst())
			if err == nil && got.Name == r.Name {
				selectable = true
				break
			}
		}
		if !selectable {
			t.Errorf("rung %s: no budget selects it in any scope — a cheaper rung is at least as tight everywhere", r.Name)
		}
	}
}

// TestRungApply: Apply overwrites the model and numeric resolution but
// leaves every other option alone.
func TestRungApply(t *testing.T) {
	table := mustTable(t, testDoc())
	r, err := table.Select("", 1e-4)
	if err != nil {
		t.Fatal(err)
	}
	opt := sim.DefaultOptions()
	opt.DisableBendLosses = true
	r.Apply(&opt)
	if opt.Model != sim.ModelNumeric || opt.NumericResolution != 64 {
		t.Fatalf("Apply set %v@%d, want numeric@64", opt.Model, opt.NumericResolution)
	}
	if !opt.DisableBendLosses {
		t.Fatal("Apply clobbered DisableBendLosses")
	}
}
