// Package netlist models a microfluidic channel network as a lumped
// resistive circuit and solves it with nodal analysis.
//
// Channels obey the Hagen–Poiseuille relation ΔP = R·Q (the paper's
// Eq. 7); pumps are ideal flow sources. Solving the network enforces
// Kirchhoff's current law at every node (Eq. 5 is the designer's
// hand-derived instance of it) and, by construction of nodal analysis,
// Kirchhoff's voltage law around every cycle. The designer uses this
// package to double-check its closed-form flow assignment; the
// CFD-substitute validator uses it to compute what the *generated
// geometry* actually does.
package netlist

import (
	"errors"
	"fmt"
	"math"

	"ooc/internal/linalg"
	"ooc/internal/units"
)

// NodeID identifies a node (channel junction) in the network.
type NodeID int

// External is a pseudo-node for pump endpoints outside the chip
// (reservoirs). Flow injected from External enters the network without
// a matching extraction node.
const External NodeID = -1

// ChannelID identifies a channel in the network.
type ChannelID int

// Channel is a lumped hydraulic resistor between two nodes. Positive
// flow runs From → To.
type Channel struct {
	Name       string
	From, To   NodeID
	Resistance units.HydraulicResistance
}

// Source is an ideal pump driving a fixed flow From → To. Either
// endpoint may be External.
type Source struct {
	Name     string
	From, To NodeID
	Flow     units.FlowRate
}

// Network is a mutable netlist. The zero value is not usable; call New.
type Network struct {
	nodeNames []string
	channels  []Channel
	sources   []Source
	psources  []PressureSource
}

// New returns an empty network.
func New() *Network {
	return &Network{}
}

// AddNode creates a node and returns its ID.
func (n *Network) AddNode(name string) NodeID {
	n.nodeNames = append(n.nodeNames, name)
	return NodeID(len(n.nodeNames) - 1)
}

// NumNodes returns the number of nodes.
func (n *Network) NumNodes() int { return len(n.nodeNames) }

// NumChannels returns the number of channels.
func (n *Network) NumChannels() int { return len(n.channels) }

// NodeName returns the name given to AddNode.
func (n *Network) NodeName(id NodeID) string { return n.nodeNames[id] }

// AddChannel creates a channel between two existing nodes.
func (n *Network) AddChannel(name string, from, to NodeID, r units.HydraulicResistance) (ChannelID, error) {
	if err := n.checkNode(from); err != nil {
		return 0, fmt.Errorf("netlist: channel %q: %w", name, err)
	}
	if err := n.checkNode(to); err != nil {
		return 0, fmt.Errorf("netlist: channel %q: %w", name, err)
	}
	if from == to {
		return 0, fmt.Errorf("netlist: channel %q connects node %d to itself", name, from)
	}
	if r <= 0 {
		return 0, fmt.Errorf("netlist: channel %q: non-positive resistance %g", name, float64(r))
	}
	n.channels = append(n.channels, Channel{Name: name, From: from, To: to, Resistance: r})
	return ChannelID(len(n.channels) - 1), nil
}

// Channel returns a copy of the channel record.
func (n *Network) Channel(id ChannelID) Channel { return n.channels[id] }

// NumSources returns the number of flow sources.
func (n *Network) NumSources() int { return len(n.sources) }

// Source returns a copy of the i-th flow source (in AddSource order).
// Consumers layering on the network — the transient simulator in
// internal/dyn attaches a time profile per source — index sources by
// this stable insertion order.
func (n *Network) Source(i int) Source { return n.sources[i] }

// AddSource adds an ideal flow source. Either endpoint may be External.
func (n *Network) AddSource(name string, from, to NodeID, q units.FlowRate) error {
	if from != External {
		if err := n.checkNode(from); err != nil {
			return fmt.Errorf("netlist: source %q: %w", name, err)
		}
	}
	if to != External {
		if err := n.checkNode(to); err != nil {
			return fmt.Errorf("netlist: source %q: %w", name, err)
		}
	}
	if from == to {
		return fmt.Errorf("netlist: source %q has identical endpoints", name)
	}
	n.sources = append(n.sources, Source{Name: name, From: from, To: to, Flow: q})
	return nil
}

func (n *Network) checkNode(id NodeID) error {
	if id < 0 || int(id) >= len(n.nodeNames) {
		return fmt.Errorf("unknown node %d", id)
	}
	return nil
}

// ErrUnbalanced is returned when the external flow sources of a
// connected component do not sum to zero; such a network has no steady
// state (fluid would accumulate).
var ErrUnbalanced = errors.New("netlist: external sources unbalanced within a component")

// Solution holds the nodal-analysis result.
type Solution struct {
	net       *Network
	pressures []float64
	flows     []float64
}

// Solve computes steady-state node pressures and channel flows.
// One node per connected component is grounded at pressure 0.
func (n *Network) Solve() (*Solution, error) {
	nn := len(n.nodeNames)
	if nn == 0 {
		return nil, errors.New("netlist: empty network")
	}
	comp := n.components(false)
	if err := n.checkBalance(comp, nil); err != nil {
		return nil, err
	}

	// Assemble the conductance matrix G·P = I.
	g, err := linalg.NewMatrix(nn, nn)
	if err != nil {
		return nil, fmt.Errorf("netlist: assembling %d-node system: %w", nn, err)
	}
	rhs := make([]float64, nn)
	n.StampConductance(g)
	for _, s := range n.sources {
		if s.From != External {
			rhs[s.From] -= float64(s.Flow)
		}
		if s.To != External {
			rhs[s.To] += float64(s.Flow)
		}
	}

	// Ground the lowest-index node of each component: overwrite its KCL
	// row with P = 0.
	grounded := make([]bool, nn)
	for i := 0; i < nn; i++ {
		c := comp[i]
		if grounded[c] {
			continue
		}
		grounded[c] = true
		for j := 0; j < nn; j++ {
			g.Set(i, j, 0)
		}
		g.Set(i, i, 1)
		rhs[i] = 0
	}

	p, err := linalg.Solve(g, rhs)
	if err != nil {
		return nil, fmt.Errorf("netlist: %w", err)
	}
	flows := make([]float64, len(n.channels))
	for i, ch := range n.channels {
		flows[i] = (p[ch.From] - p[ch.To]) / float64(ch.Resistance)
	}
	return &Solution{net: n, pressures: p, flows: flows}, nil
}

// StampConductance adds every channel's conductance stamp to m, in
// channel order: +1/R on the two endpoint diagonals and −1/R on the two
// off-diagonals, which builds the nodal Laplacian G in the top-left
// NumNodes×NumNodes block. m must be at least that large. Every solver
// that needs G — steady nodal analysis, modified nodal analysis and
// the transient stepper — stamps it here, so all of them see the same
// bits.
func (n *Network) StampConductance(m *linalg.Matrix) {
	for _, ch := range n.channels {
		cond := 1 / float64(ch.Resistance)
		f, t := int(ch.From), int(ch.To)
		m.Add(f, f, cond)
		m.Add(t, t, cond)
		m.Add(f, t, -cond)
		m.Add(t, f, -cond)
	}
}

// components labels each node with the root of its connected
// component: channels and internal flow sources connect, and so do
// internal pressure sources when withPressure is set.
func (n *Network) components(withPressure bool) []int {
	parent := make([]int, len(n.nodeNames))
	for i := range parent {
		parent[i] = i
	}
	find := func(x int) int {
		for parent[x] != x {
			parent[x] = parent[parent[x]]
			x = parent[x]
		}
		return x
	}
	union := func(a, b int) { parent[find(a)] = find(b) }
	for _, ch := range n.channels {
		union(int(ch.From), int(ch.To))
	}
	for _, s := range n.sources {
		if s.From != External && s.To != External {
			union(int(s.From), int(s.To))
		}
	}
	if withPressure {
		for _, ps := range n.psources {
			if ps.From != External && ps.To != External {
				union(int(ps.From), int(ps.To))
			}
		}
	}
	// find never moves a root, so each node can point straight at its
	// root in one ascending pass.
	for i := range parent {
		parent[i] = find(i)
	}
	return parent
}

// checkBalance sums the external flow sources of each component of
// comp, indexed by component root, and reports the lowest root whose
// sum is not zero to within rounding of the largest source flow.
// Components that exempt marks are skipped (nil exempts none).
func (n *Network) checkBalance(comp []int, exempt []bool) error {
	balance := make([]float64, len(comp))
	var scale float64
	for _, s := range n.sources {
		if s.From != External {
			balance[comp[s.From]] -= float64(s.Flow)
		}
		if s.To != External {
			balance[comp[s.To]] += float64(s.Flow)
		}
		if a := math.Abs(float64(s.Flow)); a > scale {
			scale = a
		}
	}
	if scale == 0 {
		scale = 1
	}
	for c, b := range balance {
		if (exempt == nil || !exempt[c]) && math.Abs(b) > 1e-9*scale {
			return fmt.Errorf("%w: component %d accumulates %g m³/s", ErrUnbalanced, c, b)
		}
	}
	return nil
}

// Pressure returns the solved pressure at a node (relative to the
// component's ground node).
func (s *Solution) Pressure(id NodeID) units.Pressure {
	return units.Pressure(s.pressures[id])
}

// Flow returns the solved flow through a channel, positive From → To.
func (s *Solution) Flow(id ChannelID) units.FlowRate {
	return units.FlowRate(s.flows[id])
}

// PressureDrop returns P(from) − P(to) across a channel.
func (s *Solution) PressureDrop(id ChannelID) units.Pressure {
	ch := s.net.channels[id]
	return units.Pressure(s.pressures[ch.From] - s.pressures[ch.To])
}

// MaxKCLResidual returns the largest node imbalance
// |Σ inflow − Σ outflow| over all nodes — a solver self-check that
// should be at rounding level.
func (s *Solution) MaxKCLResidual() units.FlowRate {
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
	var mx float64
	for _, r := range res {
		if a := math.Abs(r); a > mx {
			mx = a
		}
	}
	return units.FlowRate(mx)
}

// TotalDissipation returns Σ ΔP·Q over all channels — the hydraulic
// power the pumps must deliver; always non-negative.
func (s *Solution) TotalDissipation() float64 {
	var sum float64
	for i := range s.net.channels {
		dp := float64(s.PressureDrop(ChannelID(i)))
		sum += dp * s.flows[i]
	}
	return sum
}
