package netlist

import (
	"errors"
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"ooc/internal/linalg"
	"ooc/internal/units"
)

func mustChannel(t *testing.T, n *Network, name string, from, to NodeID, r float64) ChannelID {
	t.Helper()
	id, err := n.AddChannel(name, from, to, units.HydraulicResistance(r))
	if err != nil {
		t.Fatal(err)
	}
	return id
}

func TestSingleChannel(t *testing.T) {
	n := New()
	a := n.AddNode("a")
	b := n.AddNode("b")
	c := mustChannel(t, n, "ab", a, b, 2e12)
	if err := n.AddSource("pump", External, a, units.CubicMetresPerSecond(1e-9)); err != nil {
		t.Fatal(err)
	}
	if err := n.AddSource("drain", b, External, units.CubicMetresPerSecond(1e-9)); err != nil {
		t.Fatal(err)
	}
	s, err := n.Solve()
	if err != nil {
		t.Fatal(err)
	}
	if q := s.Flow(c).CubicMetresPerSecond(); math.Abs(q-1e-9) > 1e-18 {
		t.Fatalf("flow = %g, want 1e-9", q)
	}
	if dp := s.PressureDrop(c).Pascals(); math.Abs(dp-2e12*1e-9) > 1e-6 {
		t.Fatalf("ΔP = %g, want %g", dp, 2e12*1e-9)
	}
}

func TestParallelChannelsSplitByConductance(t *testing.T) {
	// Two parallel channels with resistances R and 2R: flows split 2:1.
	n := New()
	a := n.AddNode("a")
	b := n.AddNode("b")
	c1 := mustChannel(t, n, "r", a, b, 1e12)
	c2 := mustChannel(t, n, "2r", a, b, 2e12)
	q := 3e-9
	if err := n.AddSource("in", External, a, units.CubicMetresPerSecond(q)); err != nil {
		t.Fatal(err)
	}
	if err := n.AddSource("out", b, External, units.CubicMetresPerSecond(q)); err != nil {
		t.Fatal(err)
	}
	s, err := n.Solve()
	if err != nil {
		t.Fatal(err)
	}
	q1 := s.Flow(c1).CubicMetresPerSecond()
	q2 := s.Flow(c2).CubicMetresPerSecond()
	if math.Abs(q1-2e-9) > 1e-16 || math.Abs(q2-1e-9) > 1e-16 {
		t.Fatalf("split %g / %g, want 2e-9 / 1e-9", q1, q2)
	}
	// Both see the same pressure drop (KVL around the loop).
	if math.Abs(s.PressureDrop(c1).Pascals()-s.PressureDrop(c2).Pascals()) > 1e-9 {
		t.Fatal("parallel channels must share ΔP")
	}
}

func TestSeriesChannels(t *testing.T) {
	n := New()
	a := n.AddNode("a")
	m := n.AddNode("m")
	b := n.AddNode("b")
	c1 := mustChannel(t, n, "am", a, m, 1e12)
	c2 := mustChannel(t, n, "mb", m, b, 3e12)
	if err := n.AddSource("in", External, a, units.CubicMetresPerSecond(2e-9)); err != nil {
		t.Fatal(err)
	}
	if err := n.AddSource("out", b, External, units.CubicMetresPerSecond(2e-9)); err != nil {
		t.Fatal(err)
	}
	s, err := n.Solve()
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(s.Flow(c1).CubicMetresPerSecond()-2e-9) > 1e-16 ||
		math.Abs(s.Flow(c2).CubicMetresPerSecond()-2e-9) > 1e-16 {
		t.Fatal("series channels must carry the source flow")
	}
	// Total ΔP = Q·(R1+R2).
	total := s.Pressure(a).Pascals() - s.Pressure(b).Pascals()
	if math.Abs(total-2e-9*4e12) > 1e-6 {
		t.Fatalf("total ΔP = %g", total)
	}
}

func TestRecirculationLoop(t *testing.T) {
	// An internal source pumping around a closed loop (like the
	// recirculation pump) drives flow with no external exchange.
	n := New()
	a := n.AddNode("a")
	b := n.AddNode("b")
	c := mustChannel(t, n, "ab", a, b, 5e11)
	if err := n.AddSource("recirc", b, a, units.CubicMetresPerSecond(4e-9)); err != nil {
		t.Fatal(err)
	}
	s, err := n.Solve()
	if err != nil {
		t.Fatal(err)
	}
	if q := s.Flow(c).CubicMetresPerSecond(); math.Abs(q-4e-9) > 1e-17 {
		t.Fatalf("loop flow = %g", q)
	}
}

func TestUnbalancedRejected(t *testing.T) {
	n := New()
	a := n.AddNode("a")
	b := n.AddNode("b")
	mustChannel(t, n, "ab", a, b, 1e12)
	if err := n.AddSource("in", External, a, units.CubicMetresPerSecond(1e-9)); err != nil {
		t.Fatal(err)
	}
	// No outlet: steady state impossible.
	if _, err := n.Solve(); !errors.Is(err, ErrUnbalanced) {
		t.Fatalf("want ErrUnbalanced, got %v", err)
	}
}

func TestTwoComponentsSolvedIndependently(t *testing.T) {
	n := New()
	a := n.AddNode("a")
	b := n.AddNode("b")
	c := n.AddNode("c")
	d := n.AddNode("d")
	c1 := mustChannel(t, n, "ab", a, b, 1e12)
	c2 := mustChannel(t, n, "cd", c, d, 1e12)
	for _, src := range []struct {
		name     string
		from, to NodeID
		q        float64
	}{
		{"in1", External, a, 1e-9}, {"out1", b, External, 1e-9},
		{"in2", External, c, 2e-9}, {"out2", d, External, 2e-9},
	} {
		if err := n.AddSource(src.name, src.from, src.to, units.CubicMetresPerSecond(src.q)); err != nil {
			t.Fatal(err)
		}
	}
	s, err := n.Solve()
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(s.Flow(c1).CubicMetresPerSecond()-1e-9) > 1e-17 ||
		math.Abs(s.Flow(c2).CubicMetresPerSecond()-2e-9) > 1e-17 {
		t.Fatal("independent components interfered")
	}
}

func TestValidationErrors(t *testing.T) {
	n := New()
	a := n.AddNode("a")
	b := n.AddNode("b")
	if _, err := n.AddChannel("self", a, a, units.PaSecondsPerCubicMetre(1)); err == nil {
		t.Error("self-loop accepted")
	}
	if _, err := n.AddChannel("zero-r", a, b, 0); err == nil {
		t.Error("zero resistance accepted")
	}
	if _, err := n.AddChannel("bad-node", a, NodeID(99), units.PaSecondsPerCubicMetre(1)); err == nil {
		t.Error("unknown node accepted")
	}
	if err := n.AddSource("bad", NodeID(99), a, units.CubicMetresPerSecond(1)); err == nil {
		t.Error("unknown source node accepted")
	}
	if err := n.AddSource("self", a, a, units.CubicMetresPerSecond(1)); err == nil {
		t.Error("self source accepted")
	}
	empty := New()
	if _, err := empty.Solve(); err == nil {
		t.Error("empty network solved")
	}
}

// TestKCLPropertyRandomLadders builds random ladder networks (the OoC
// topology shape) and checks KCL residual, KVL via nodal consistency,
// and non-negative dissipation.
func TestKCLPropertyRandomLadders(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := New()
		m := 2 + rng.Intn(6) // rungs
		top := make([]NodeID, m)
		bot := make([]NodeID, m)
		for i := 0; i < m; i++ {
			top[i] = n.AddNode("t")
			bot[i] = n.AddNode("b")
		}
		r := func() units.HydraulicResistance {
			return units.HydraulicResistance(1e11 * (0.5 + rng.Float64()*10))
		}
		for i := 0; i < m; i++ {
			if _, err := n.AddChannel("rung", top[i], bot[i], r()); err != nil {
				return false
			}
			if i > 0 {
				if _, err := n.AddChannel("rail-t", top[i-1], top[i], r()); err != nil {
					return false
				}
				if _, err := n.AddChannel("rail-b", bot[i-1], bot[i], r()); err != nil {
					return false
				}
			}
		}
		q := units.CubicMetresPerSecond(1e-9 * (0.5 + rng.Float64()))
		if err := n.AddSource("in", External, top[0], q); err != nil {
			return false
		}
		if err := n.AddSource("out", bot[0], External, q); err != nil {
			return false
		}
		s, err := n.Solve()
		if err != nil {
			return false
		}
		if s.MaxKCLResidual().CubicMetresPerSecond() > 1e-9*float64(q)+1e-20 {
			return false
		}
		return s.TotalDissipation() >= 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestNodeBookkeeping(t *testing.T) {
	n := New()
	a := n.AddNode("alpha")
	if n.NodeName(a) != "alpha" {
		t.Fatal("node name lost")
	}
	if n.NumNodes() != 1 || n.NumChannels() != 0 {
		t.Fatal("counts wrong")
	}
	b := n.AddNode("beta")
	id := mustChannel(t, n, "ab", a, b, 1e12)
	ch := n.Channel(id)
	if ch.Name != "ab" || ch.From != a || ch.To != b {
		t.Fatalf("channel record %+v", ch)
	}
}

func TestDissipationMatchesPumpPower(t *testing.T) {
	// Energy bookkeeping: total dissipation equals the power injected
	// by sources, Σ_src Q·(P_to − P_from) over internal endpoints.
	n := New()
	a := n.AddNode("a")
	m := n.AddNode("m")
	b := n.AddNode("b")
	mustChannel(t, n, "am", a, m, 1e12)
	mustChannel(t, n, "mb", m, b, 2e12)
	q := 2e-9
	if err := n.AddSource("pump", b, a, units.CubicMetresPerSecond(q)); err != nil {
		t.Fatal(err)
	}
	s, err := n.Solve()
	if err != nil {
		t.Fatal(err)
	}
	pump := q * (s.Pressure(a).Pascals() - s.Pressure(b).Pascals())
	if math.Abs(pump-s.TotalDissipation()) > 1e-12*math.Abs(pump) {
		t.Fatalf("pump power %g vs dissipation %g", pump, s.TotalDissipation())
	}
}

// TestStampConductance checks the shared Laplacian stamp: symmetric,
// zero row sums, the summed conductances on the diagonal, and nothing
// outside the node block — Solve stamps G into a larger matrix whose
// extra rows and columns belong to the pressure sources.
func TestStampConductance(t *testing.T) {
	n := New()
	a, b, c := n.AddNode("a"), n.AddNode("b"), n.AddNode("c")
	mustChannel(t, n, "ab", a, b, 2)
	mustChannel(t, n, "bc", b, c, 4)
	mustChannel(t, n, "ca", c, a, 8)
	m, err := linalg.NewMatrix(4, 4)
	if err != nil {
		t.Fatal(err)
	}
	n.StampConductance(m)
	want := [][]float64{
		{0.5 + 0.125, -0.5, -0.125, 0},
		{-0.5, 0.5 + 0.25, -0.25, 0},
		{-0.125, -0.25, 0.25 + 0.125, 0},
		{0, 0, 0, 0},
	}
	for i := range want {
		for j := range want[i] {
			if got := m.At(i, j); math.Abs(got-want[i][j]) > 1e-15 {
				t.Errorf("G[%d][%d] = %g, want %g", i, j, got, want[i][j])
			}
		}
	}
}
