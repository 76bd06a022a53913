package main

import (
	"testing"
	"time"
)

// sp is a span from lo to hi µs.
func sp(name string, parent, lo, hi int) span {
	return span{name: name, parent: parent, start: time.Duration(lo) * time.Microsecond, end: time.Duration(hi) * time.Microsecond}
}

// TestSelfTime: a span's self time is its duration minus the union of
// its children's intervals, clipped to the span.
func TestSelfTime(t *testing.T) {
	spans := []span{
		sp("root", -1, 0, 100),
		sp("a", 0, 10, 30),
		sp("b", 0, 20, 50),  // overlaps a: union 10..50
		sp("c", 0, 60, 70),  // disjoint
		sp("d", 0, 90, 120), // clipped to 90..100
		sp("e", 1, 12, 14),  // grandchild: already covered by a
	}
	if got, want := selfTime(spans, 0), 40*time.Microsecond; got != want {
		t.Errorf("self(root) = %v, want %v", got, want)
	}
	if got, want := selfTime(spans, 1), 18*time.Microsecond; got != want {
		t.Errorf("self(a) = %v, want %v", got, want)
	}
	if got, want := selfTime(spans, 2), 30*time.Microsecond; got != want {
		t.Errorf("self(b) = %v, want %v", got, want)
	}
}

// TestDerivedTimes pins the two derived per-layer times on a synthetic
// miss: server self time is the handler minus the calls the handler
// makes itself, and realization is generation minus derive and flow
// planning.
func TestDerivedTimes(t *testing.T) {
	tr := &opTrace{spans: []span{
		sp("handler", -1, 0, 500),
		sp("replay", -1, 500, 1000),
		sp("specio.Parse", 1, 500, 520),
		sp("specio.Canonical", 1, 520, 550),
		sp("core.Derive", 1, 550, 560),
		sp("core.PlanFlows", 1, 560, 562),
		sp("core.GenerateContext", 1, 562, 700),
		sp("render.JSON", 1, 700, 990),
	}}
	// 500 − (20 + 30 + 138 + 290)
	if got, want := tr.serverSelf(), 22*time.Microsecond; got != want {
		t.Errorf("serverSelf = %v, want %v", got, want)
	}
	// 138 − 10 − 2
	if got, want := tr.realize(), 126*time.Microsecond; got != want {
		t.Errorf("realize = %v, want %v", got, want)
	}
	if got, want := selfTime(tr.spans, 1), 10*time.Microsecond; got != want {
		t.Errorf("self(replay) = %v, want %v", got, want)
	}
}

func TestJSONString(t *testing.T) {
	for body, want := range map[string]string{
		`{"id": "j1", "state": "running"}`: "running",
		`{"id":"j1","state":"succeeded"}`:  "succeeded",
		`{"state": 3}`:                     "",
		`{"id": "j1"}`:                     "",
	} {
		if got := jsonString([]byte(body), "state"); got != want {
			t.Errorf("jsonString(%s) = %q, want %q", body, got, want)
		}
	}
}
