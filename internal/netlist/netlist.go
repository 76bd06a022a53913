// Package netlist models a microfluidic channel network as a lumped
// resistive circuit and solves it with modified nodal analysis.
//
// Channels obey the Hagen–Poiseuille relation ΔP = R·Q (the paper's
// Eq. 7); pumps are ideal flow sources or ideal pressure sources.
// Solving the network enforces Kirchhoff's current law at every node
// (Eq. 5 is the designer's hand-derived instance of it) and, by
// construction of nodal analysis, Kirchhoff's voltage law around every
// cycle. The CFD-substitute validator in internal/sim uses it to
// compute what the *generated geometry* actually does, under flow- or
// pressure-controlled pumps; the transient tier in internal/dyn builds
// its state matrix from the same network and conductance stamp.
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

// Solution holds the modified-nodal-analysis result.
type Solution struct {
	net       *Network
	pressures []float64
	flows     []float64
	srcFlows  []float64 // one per pressure source, in AddPressureSource order
}

// Solve computes steady-state node pressures, channel flows and
// pressure-source flows by modified nodal analysis: the unknowns are
// the node pressures followed by one flow per pressure source. A
// component tied to External by a pressure source takes that source as
// its pressure reference and may exchange any net flow through it;
// every other component has its lowest-index node grounded at
// pressure 0 and must balance its flow sources.
func (n *Network) Solve() (*Solution, error) {
	nn := len(n.nodeNames)
	if nn == 0 {
		return nil, errors.New("netlist: empty network")
	}
	size := nn + len(n.psources)

	comp := n.components()
	// extRef is indexed by component root.
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

	// Assemble G·x = rhs: the conductance stamps and flow sources in
	// the KCL rows, then one column and one constraint row per
	// pressure source.
	g, err := linalg.NewMatrix(size, size)
	if err != nil {
		return nil, fmt.Errorf("netlist: assembling %d-unknown system: %w", size, err)
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
	for k, ps := range n.psources {
		col := nn + k
		// KCL rows sum node OUTflows: the source takes +x out of From
		// and delivers −x out of To. The constraint row enforces
		// P_to − P_from = Rise.
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

	// Ground the lowest-index node of each component without an
	// External reference: overwrite its KCL row with P = 0.
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
	return &Solution{net: n, pressures: x[:nn], flows: flows, srcFlows: x[nn:]}, nil
}

// StampConductance adds every channel's conductance stamp to m, in
// channel order: +1/R on the two endpoint diagonals and −1/R on the two
// off-diagonals, which builds the nodal Laplacian G in the top-left
// NumNodes×NumNodes block. m must be at least that large. Every solver
// that needs G — the steady solve and the transient stepper — stamps it
// here, so both see the same bits.
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
// component: channels and internal flow and pressure sources connect.
func (n *Network) components() []int {
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
	for _, ps := range n.psources {
		if ps.From != External && ps.To != External {
			union(int(ps.From), int(ps.To))
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
// Components that exempt marks are skipped.
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
		if !exempt[c] && math.Abs(b) > 1e-9*scale {
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

// SourceFlow returns the flow delivered by pressure source k (in
// AddPressureSource order), positive From → To.
func (s *Solution) SourceFlow(k int) units.FlowRate {
	return units.FlowRate(s.srcFlows[k])
}

// MaxKCLResidual returns the largest node imbalance
// |Σ inflow − Σ outflow| over all nodes, counting channel, flow-source
// and pressure-source flows — a solver self-check that should be at
// rounding level.
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
