package sim

import (
	"context"
	"fmt"

	"ooc/internal/core"
	"ooc/internal/netlist"
	"ooc/internal/units"
)

// PumpPressures are the set pressures a pressure-controlled pumping
// setup would be programmed with, derived from the designer's own
// model.
type PumpPressures struct {
	// Inlet is the pressure rise of the inlet pump above the outlet
	// reservoir (which defines the ambient reference).
	Inlet units.Pressure
	// Recirculation is the rise the recirculation pump must provide
	// from the outlet junction to the connection inlet.
	Recirculation units.Pressure
}

// DesignPumpPressures computes the pump set pressures under the
// designer's model (approximate resistances, no minor losses): the
// pressures that, according to the design, produce exactly the planned
// flows.
func DesignPumpPressures(d *core.Design) (PumpPressures, error) {
	return DesignPumpPressuresContext(context.Background(), d)
}

// DesignPumpPressuresContext is DesignPumpPressures with cooperative
// cancellation (the underlying network build checks ctx).
func DesignPumpPressuresContext(ctx context.Context, d *core.Design) (PumpPressures, error) {
	b, err := buildNetwork(ctx, d, Options{
		Model:                 ModelApprox,
		DisableBendLosses:     true,
		DisableJunctionLosses: true,
	})
	if err != nil {
		return PumpPressures{}, err
	}
	if err := attachPumps(b, d); err != nil {
		return PumpPressures{}, err
	}
	sol, err := b.net.Solve()
	if err != nil {
		return PumpPressures{}, fmt.Errorf("sim: %w", err)
	}
	pOut := sol.Pressure(b.nodes["outlet"]).Pascals()
	return PumpPressures{
		Inlet:         units.Pressure(sol.Pressure(b.nodes["inlet"]).Pascals() - pOut),
		Recirculation: units.Pressure(sol.Pressure(b.nodes["cin"]).Pascals() - pOut),
	}, nil
}

// ValidatePressureDriven asks what happens when the chip is driven by
// pressure-controlled pumps programmed with the designer-model set
// pressures (DesignPumpPressures), instead of flow-controlled pumps.
// Because the real network resistance differs from the designer's
// model, pressure-driven operation drifts further from the
// specification than flow-driven operation — quantifying the paper's
// implicit choice of flow-rate pumps ("flow rate settings for the
// pumps" are the method's output).
func ValidatePressureDriven(d *core.Design, opt Options) (*Report, error) {
	return ValidatePressureDrivenContext(context.Background(), d, opt)
}

// ValidatePressureDrivenContext is ValidatePressureDriven with the
// cancellation and deadline semantics of ValidateContext.
func ValidatePressureDrivenContext(ctx context.Context, d *core.Design, opt Options) (*Report, error) {
	set, err := DesignPumpPressuresContext(ctx, d)
	if err != nil {
		return nil, err
	}
	b, err := buildNetwork(ctx, d, opt)
	if err != nil {
		return nil, err
	}
	// The outlet port is a reservoir at the reference pressure; the
	// inlet and recirculation pumps hold their designer-model set
	// pressures.
	if err := b.net.AddPressureSource("pump-outlet", b.node("outlet"), netlist.External, 0); err != nil {
		return nil, fmt.Errorf("sim: %w", err)
	}
	if err := b.net.AddPressureSource("pump-inlet", netlist.External, b.node("inlet"), set.Inlet); err != nil {
		return nil, fmt.Errorf("sim: %w", err)
	}
	if err := b.net.AddPressureSource("pump-recirculation", b.node("outlet"), b.node("cin"), set.Recirculation); err != nil {
		return nil, fmt.Errorf("sim: %w", err)
	}
	sol, err := b.net.Solve()
	if err != nil {
		return nil, fmt.Errorf("sim: %w", err)
	}
	return buildReport(d, b, sol)
}
