package netlist

import (
	"fmt"

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

// NumPressureSources returns the number of pressure sources.
func (n *Network) NumPressureSources() int { return len(n.psources) }

// PressureSource returns a copy of the k-th pressure source (in
// AddPressureSource order).
func (n *Network) PressureSource(k int) PressureSource { return n.psources[k] }
