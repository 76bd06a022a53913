package netlist

import (
	"math"
	"math/rand"
	"testing"

	"ooc/internal/units"
)

func TestPressureSourceSingleChannel(t *testing.T) {
	// A pressure source driving one channel: Q = ΔP / R.
	n := New()
	a := n.AddNode("a")
	b := n.AddNode("b")
	c := mustChannel(t, n, "ab", a, b, 2e12)
	if err := n.AddPressureSource("pump", b, a, units.Pascals(1000)); err != nil {
		t.Fatal(err)
	}
	s, err := n.Solve()
	if err != nil {
		t.Fatal(err)
	}
	want := 1000.0 / 2e12
	if q := s.Flow(c).CubicMetresPerSecond(); math.Abs(q-want) > 1e-18 {
		t.Fatalf("flow %g, want %g", q, want)
	}
	if q := s.SourceFlow(0).CubicMetresPerSecond(); math.Abs(q-want) > 1e-18 {
		t.Fatalf("source flow %g, want %g", q, want)
	}
	// The source maintains its rise.
	if dp := s.Pressure(a).Pascals() - s.Pressure(b).Pascals(); math.Abs(dp-1000) > 1e-9 {
		t.Fatalf("source rise %g", dp)
	}
}

func TestPressureSourceToExternal(t *testing.T) {
	// Inlet held at +500 Pa vs. reservoir, outlet at reservoir: flow
	// through two series channels.
	n := New()
	a := n.AddNode("a")
	m := n.AddNode("m")
	b := n.AddNode("b")
	c1 := mustChannel(t, n, "am", a, m, 1e12)
	c2 := mustChannel(t, n, "mb", m, b, 3e12)
	if err := n.AddPressureSource("in", External, a, units.Pascals(500)); err != nil {
		t.Fatal(err)
	}
	if err := n.AddPressureSource("out", b, External, units.Pascals(0)); err != nil {
		t.Fatal(err)
	}
	s, err := n.Solve()
	if err != nil {
		t.Fatal(err)
	}
	want := 500.0 / 4e12
	if q := s.Flow(c1).CubicMetresPerSecond(); math.Abs(q-want) > 1e-18 {
		t.Fatalf("series flow %g, want %g", q, want)
	}
	if q := s.Flow(c2).CubicMetresPerSecond(); math.Abs(q-want) > 1e-18 {
		t.Fatalf("series flow %g, want %g", q, want)
	}
	// Node a must sit at exactly +500 Pa.
	if p := s.Pressure(a).Pascals(); math.Abs(p-500) > 1e-9 {
		t.Fatalf("P(a) = %g", p)
	}
}

func TestMNAMatchesFlowSourceSolve(t *testing.T) {
	// Replacing a flow source with a pressure source at the solved ΔP
	// must reproduce the same flows (duality check).
	build := func() (*Network, NodeID, NodeID, []ChannelID) {
		n := New()
		a := n.AddNode("a")
		b := n.AddNode("b")
		c := n.AddNode("c")
		ids := []ChannelID{
			mustChannelT(n, "ab", a, b, 1e12),
			mustChannelT(n, "bc", b, c, 2e12),
			mustChannelT(n, "ac", a, c, 4e12),
		}
		return n, a, c, ids
	}
	n1, a1, c1, ids1 := build()
	q := units.CubicMetresPerSecond(3e-9)
	if err := n1.AddSource("pump", c1, a1, q); err != nil {
		t.Fatal(err)
	}
	s1, err := n1.Solve()
	if err != nil {
		t.Fatal(err)
	}
	rise := s1.Pressure(a1).Pascals() - s1.Pressure(c1).Pascals()

	n2, a2, c2, ids2 := build()
	if err := n2.AddPressureSource("pump", c2, a2, units.Pascals(rise)); err != nil {
		t.Fatal(err)
	}
	s2, err := n2.Solve()
	if err != nil {
		t.Fatal(err)
	}
	for i := range ids1 {
		f1 := s1.Flow(ids1[i]).CubicMetresPerSecond()
		f2 := s2.Flow(ids2[i]).CubicMetresPerSecond()
		if math.Abs(f1-f2) > 1e-18+1e-9*math.Abs(f1) {
			t.Fatalf("channel %d: flow-driven %g vs pressure-driven %g", i, f1, f2)
		}
	}
	if sf := s2.SourceFlow(0).CubicMetresPerSecond(); math.Abs(sf-3e-9) > 1e-18 {
		t.Fatalf("source flow %g, want 3e-9", sf)
	}
}

func mustChannelT(n *Network, name string, from, to NodeID, r float64) ChannelID {
	id, err := n.AddChannel(name, from, to, units.HydraulicResistance(r))
	if err != nil {
		panic(err)
	}
	return id
}

func TestMNAWithMixedSources(t *testing.T) {
	// A flow source and a pressure source cooperating.
	n := New()
	a := n.AddNode("a")
	b := n.AddNode("b")
	cab := mustChannel(t, n, "ab", a, b, 1e12)
	if err := n.AddSource("in", External, a, units.CubicMetresPerSecond(1e-9)); err != nil {
		t.Fatal(err)
	}
	// Outlet is a pressure-controlled port at reservoir level.
	if err := n.AddPressureSource("out", b, External, units.Pascals(0)); err != nil {
		t.Fatal(err)
	}
	s, err := n.Solve()
	if err != nil {
		t.Fatal(err)
	}
	if q := s.Flow(cab).CubicMetresPerSecond(); math.Abs(q-1e-9) > 1e-18 {
		t.Fatalf("flow %g", q)
	}
	// The pressure port must absorb exactly the injected flow.
	if sf := s.SourceFlow(0).CubicMetresPerSecond(); math.Abs(sf-1e-9) > 1e-18 {
		t.Fatalf("port flow %g", sf)
	}
	if res := s.MaxKCLResidual().CubicMetresPerSecond(); res > 1e-18 {
		t.Fatalf("KCL residual %g (pressure-source flows must enter the balance)", res)
	}
}

func TestPressureSourceValidation(t *testing.T) {
	n := New()
	a := n.AddNode("a")
	if err := n.AddPressureSource("self", a, a, units.Pascals(1)); err == nil {
		t.Error("self-loop pressure source accepted")
	}
	if err := n.AddPressureSource("bad", NodeID(9), a, units.Pascals(1)); err == nil {
		t.Error("unknown node accepted")
	}
}

// TestFlowPressureDualityRandomNetworks generalizes
// TestMNAMatchesFlowSourceSolve to seeded random connected networks: a
// random spanning tree plus extra channels, resistances spread over two
// decades, and balanced flow sources on pairwise distinct nodes, some of
// them to or from External. Each network is solved, then rebuilt with
// every flow source replaced by a pressure source holding the solved
// rise P(To) − P(From), External counting as the ground pressure 0. The
// rebuilt network must reproduce every channel flow, each pressure
// source must deliver the flow of the source it replaced, and both
// solutions must satisfy KCL to rounding.
func TestFlowPressureDualityRandomNetworks(t *testing.T) {
	const (
		maxNodes = 16
		// Flow tolerances are fractions of qScale, the flow that the
		// solved pressure spread drives through the smallest resistance,
		// which bounds every channel and source flow.
		//
		// A network has n ≤ 26 unknowns (16 nodes, 10 sources), so each
		// solved pressure is within ≈ n·ε of the spread and a flow ΔP/R
		// within 2·26·2.2e-16 ≈ 1.1e-14 of qScale; ×10 for pivot growth.
		// The pressure check uses the same fraction of the spread.
		dualTol = 1e-13
		// A node's KCL sum adds ≤ 33 such flows (degree ≤ 15 + 16
		// channels, one source): 33 × 1e-13 ≈ 3.3e-12.
		kclTol = 4e-12
	)
	rng := rand.New(rand.NewSource(21))
	for trial := 0; trial < 300; trial++ {
		nn := 3 + rng.Intn(maxNodes-2)
		// v is a channel's resistance or a source's flow.
		type edge struct {
			from, to NodeID
			v        float64
		}
		var chans []edge
		res := func() float64 { return 1e12 * math.Pow(10, 2*rng.Float64()) }
		for i := 1; i < nn; i++ {
			chans = append(chans, edge{NodeID(rng.Intn(i)), NodeID(i), res()})
		}
		for k := rng.Intn(nn + 1); k > 0; k-- {
			if a, b := rng.Intn(nn), rng.Intn(nn); a != b {
				chans = append(chans, edge{NodeID(a), NodeID(b), res()})
			}
		}
		// Flow sources take pairwise distinct nodes, so the pressure
		// sources that replace them form no loop and their constraint
		// rows stay independent. Internal sources come first, then none
		// or two or more to or from External, the last balancing the
		// others; a network gets at least one source.
		perm := rng.Perm(nn)
		var srcs []edge
		flow := func() float64 { return 1e-10 * math.Pow(10, 2*rng.Float64()) }
		for len(perm) >= 2 && rng.Intn(3) > 0 {
			srcs = append(srcs, edge{NodeID(perm[0]), NodeID(perm[1]), flow()})
			perm = perm[2:]
		}
		ext := rng.Intn(min(len(perm), 4) + 1)
		if len(srcs) == 0 {
			ext = max(ext, 2)
		}
		if ext >= 2 {
			var in float64 // net External inflow of the sources so far
			for _, node := range perm[:ext-1] {
				q := flow()
				if rng.Intn(2) == 0 {
					srcs = append(srcs, edge{External, NodeID(node), q})
					in += q
				} else {
					srcs = append(srcs, edge{NodeID(node), External, q})
					in -= q
				}
			}
			if last := NodeID(perm[ext-1]); in > 0 {
				srcs = append(srcs, edge{last, External, in})
			} else {
				srcs = append(srcs, edge{External, last, -in})
			}
		}

		build := func() (*Network, []ChannelID) {
			n := New()
			for i := 0; i < nn; i++ {
				n.AddNode("n")
			}
			ids := make([]ChannelID, len(chans))
			for i, c := range chans {
				ids[i] = mustChannel(t, n, "c", c.from, c.to, c.v)
			}
			return n, ids
		}
		n1, ids1 := build()
		for _, s := range srcs {
			if err := n1.AddSource("q", s.from, s.to, units.FlowRate(s.v)); err != nil {
				t.Fatal(err)
			}
		}
		s1, err := n1.Solve()
		if err != nil {
			t.Fatalf("trial %d: flow-driven solve: %v", trial, err)
		}
		pressure := func(id NodeID) float64 {
			if id == External {
				return 0
			}
			return s1.Pressure(id).Pascals()
		}
		n2, ids2 := build()
		for _, s := range srcs {
			if err := n2.AddPressureSource("p", s.from, s.to, units.Pressure(pressure(s.to)-pressure(s.from))); err != nil {
				t.Fatal(err)
			}
		}
		s2, err := n2.Solve()
		if err != nil {
			t.Fatalf("trial %d: pressure-driven solve: %v", trial, err)
		}

		pLo, pHi, rMin := 0.0, 0.0, math.Inf(1)
		for i := 0; i < nn; i++ {
			pLo = math.Min(pLo, pressure(NodeID(i)))
			pHi = math.Max(pHi, pressure(NodeID(i)))
		}
		for _, c := range chans {
			rMin = math.Min(rMin, c.v)
		}
		qScale := (pHi - pLo) / rMin

		// The rises reproduce the flow-driven pressures against External,
		// and a network without External sources grounds node 0 in both
		// solves, so the pressures themselves agree too.
		for i := 0; i < nn; i++ {
			if p1, p2 := pressure(NodeID(i)), s2.Pressure(NodeID(i)).Pascals(); math.Abs(p1-p2) > dualTol*(pHi-pLo) {
				t.Fatalf("trial %d: node %d: flow-driven %g Pa vs pressure-driven %g Pa", trial, i, p1, p2)
			}
		}
		for i := range chans {
			f1, f2 := s1.Flow(ids1[i]).CubicMetresPerSecond(), s2.Flow(ids2[i]).CubicMetresPerSecond()
			if math.Abs(f1-f2) > dualTol*qScale {
				t.Fatalf("trial %d: channel %d: flow-driven %g vs pressure-driven %g (scale %g)", trial, i, f1, f2, qScale)
			}
		}
		for k, s := range srcs {
			if got := s2.SourceFlow(k).CubicMetresPerSecond(); math.Abs(got-s.v) > dualTol*qScale {
				t.Fatalf("trial %d: pressure source %d delivers %g, replaced flow source %g (scale %g)", trial, k, got, s.v, qScale)
			}
		}
		if r := s1.MaxKCLResidual().CubicMetresPerSecond(); r > kclTol*qScale {
			t.Fatalf("trial %d: flow-driven KCL residual %g (scale %g)", trial, r, qScale)
		}
		if r := s2.MaxKCLResidual().CubicMetresPerSecond(); r > kclTol*qScale {
			t.Fatalf("trial %d: pressure-driven KCL residual %g (scale %g)", trial, r, qScale)
		}
	}
}
