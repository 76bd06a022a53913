package netlist

import (
	"errors"
	"fmt"
	"math"

	"ooc/internal/linalg"
	"ooc/internal/units"
)

// PressureSource is an ideal pump that maintains a fixed pressure rise
// ΔP from From to To (P_to − P_from = ΔP) and delivers whatever flow
// that requires. Either endpoint may be External (a reservoir at the
// reference pressure 0).
//
// Flow sources model syringe pumps (fixed Q); pressure sources model
// pressure-controlled pumping (fixed ΔP) — the two common ways of
// driving OoC devices. The designer computes flow-source settings; the
// pressure-driven analysis asks how the chip behaves when those are
// translated into set pressures instead.
type PressureSource struct {
	Name     string
	From, To NodeID
	Rise     units.Pressure
}

// AddPressureSource adds an ideal pressure source to the network.
func (n *Network) AddPressureSource(name string, from, to NodeID, rise units.Pressure) error {
	if from != External {
		if err := n.checkNode(from); err != nil {
			return fmt.Errorf("netlist: pressure source %q: %w", name, err)
		}
	}
	if to != External {
		if err := n.checkNode(to); err != nil {
			return fmt.Errorf("netlist: pressure source %q: %w", name, err)
		}
	}
	if from == to {
		return fmt.Errorf("netlist: pressure source %q has identical endpoints", name)
	}
	n.psources = append(n.psources, PressureSource{Name: name, From: from, To: to, Rise: rise})
	return nil
}

// SolveMNA computes steady-state pressures and flows for networks that
// may contain pressure sources, using modified nodal analysis: the
// unknown vector holds the node pressures followed by one flow unknown
// per pressure source.
func (n *Network) SolveMNA() (*MNASolution, error) {
	nn := len(n.nodeNames)
	if nn == 0 {
		return nil, errors.New("netlist: empty network")
	}
	np := len(n.psources)
	size := nn + np

	comp := n.components(true)

	// Components with a pressure source touching External exchange
	// fluid through it, so the flow-source balance check does not
	// apply to them. extRef is indexed by component root.
	extRef := make([]bool, nn)
	for _, ps := range n.psources {
		if ps.From == External && ps.To != External {
			extRef[comp[ps.To]] = true
		}
		if ps.To == External && ps.From != External {
			extRef[comp[ps.From]] = true
		}
	}
	if err := n.checkBalance(comp, extRef); err != nil {
		return nil, err
	}

	g, err := linalg.NewMatrix(size, size)
	if err != nil {
		return nil, fmt.Errorf("netlist: assembling %d-node pressure system: %w", size, err)
	}
	rhs := make([]float64, size)
	n.StampConductance(g)
	for _, s := range n.sources {
		if s.From != External {
			rhs[s.From] -= float64(s.Flow)
		}
		if s.To != External {
			rhs[s.To] += float64(s.Flow)
		}
	}
	// Pressure-source stamps: flow unknown k enters the KCL rows, and
	// the constraint row enforces P_to − P_from = Rise.
	for k, ps := range n.psources {
		col := nn + k
		// KCL rows sum node OUTflows: the source takes +x out of From
		// and delivers −x out of To.
		if ps.From != External {
			g.Add(int(ps.From), col, 1)
			g.Add(col, int(ps.From), -1)
		}
		if ps.To != External {
			g.Add(int(ps.To), col, -1)
			g.Add(col, int(ps.To), 1)
		}
		rhs[col] = float64(ps.Rise)
	}

	// Ground one node per component, preferring components without an
	// External-referenced pressure source (those already have an
	// absolute reference).
	grounded := make([]bool, nn)
	for i := 0; i < nn; i++ {
		c := comp[i]
		if grounded[c] || extRef[c] {
			continue
		}
		grounded[c] = true
		for j := 0; j < size; j++ {
			g.Set(i, j, 0)
		}
		g.Set(i, i, 1)
		rhs[i] = 0
	}

	x, err := linalg.Solve(g, rhs)
	if err != nil {
		return nil, fmt.Errorf("netlist: %w", err)
	}
	flows := make([]float64, len(n.channels))
	for i, ch := range n.channels {
		flows[i] = (x[ch.From] - x[ch.To]) / float64(ch.Resistance)
	}
	srcFlows := make([]float64, np)
	copy(srcFlows, x[nn:])
	return &MNASolution{
		Solution: Solution{net: n, pressures: x[:nn], flows: flows},
		srcFlows: srcFlows,
	}, nil
}

// MNASolution extends Solution with the pressure-source flows.
type MNASolution struct {
	Solution
	srcFlows []float64
}

// SourceFlow returns the flow delivered by pressure source k (in the
// order the sources were added), positive From → To.
func (s *MNASolution) SourceFlow(k int) units.FlowRate {
	return units.FlowRate(s.srcFlows[k])
}

// MaxKCLResidual extends the base check with the pressure-source
// flows, which the plain Solution does not know about.
func (s *MNASolution) MaxKCLResidual() units.FlowRate {
	res := make([]float64, len(s.net.nodeNames))
	for i, ch := range s.net.channels {
		res[ch.From] -= s.flows[i]
		res[ch.To] += s.flows[i]
	}
	for _, src := range s.net.sources {
		if src.From != External {
			res[src.From] -= float64(src.Flow)
		}
		if src.To != External {
			res[src.To] += float64(src.Flow)
		}
	}
	for k, ps := range s.net.psources {
		if ps.From != External {
			res[ps.From] -= s.srcFlows[k]
		}
		if ps.To != External {
			res[ps.To] += s.srcFlows[k]
		}
	}
	var mx float64
	for _, r := range res {
		if a := math.Abs(r); a > mx {
			mx = a
		}
	}
	return units.FlowRate(mx)
}
