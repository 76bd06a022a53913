package render

import (
	"encoding/json"
	"fmt"
	"math"
	"reflect"
	"strconv"

	"ooc/internal/core"
)

// DesignDoc is the portable JSON representation of a generated design.
// All quantities carry explicit units in the field names. JSON writes
// it straight from a design, and ParseJSON decodes it.
type DesignDoc struct {
	Name             string       `json:"name"`
	Modules          []ModuleDoc  `json:"modules"`
	Channels         []ChannelDoc `json:"channels"`
	Pumps            PumpsDoc     `json:"pumps"`
	SupplyOffsetM    float64      `json:"supply_offset_m"`
	DischargeOffsetM float64      `json:"discharge_offset_m"`
	ChipWidthM       float64      `json:"chip_width_m"`
	ChipHeightM      float64      `json:"chip_height_m"`
	Iterations       int          `json:"iterations"`
	// Fluid properties are carried so a loaded design can be
	// re-validated.
	FluidViscosityPaS float64 `json:"fluid_viscosity_pa_s"`
	FluidDensityKgM3  float64 `json:"fluid_density_kg_m3"`
}

// ModuleDoc serializes one organ module.
type ModuleDoc struct {
	Name           string  `json:"name"`
	Organ          string  `json:"organ,omitempty"`
	Tissue         string  `json:"tissue"`
	MassKg         float64 `json:"mass_kg"`
	WidthM         float64 `json:"width_m"`
	LengthM        float64 `json:"length_m"`
	RadiusM        float64 `json:"radius_m,omitempty"`
	MembraneAreaM2 float64 `json:"membrane_area_m2"`
	Perfusion      float64 `json:"perfusion"`
	FlowM3S        float64 `json:"flow_m3_per_s"`
	InletXM        float64 `json:"inlet_x_m"`
	OutletXM       float64 `json:"outlet_x_m"`
}

// ChannelDoc serializes one channel.
type ChannelDoc struct {
	Name       string       `json:"name"`
	Kind       string       `json:"kind"`
	Index      int          `json:"index"`
	WidthM     float64      `json:"width_m"`
	HeightM    float64      `json:"height_m"`
	LengthM    float64      `json:"length_m"`
	From       string       `json:"from"`
	To         string       `json:"to"`
	FlowM3S    float64      `json:"design_flow_m3_per_s"`
	PressurePa float64      `json:"design_pressure_drop_pa"`
	PathM      [][2]float64 `json:"path_m"`
}

// PumpsDoc serializes the pump settings.
type PumpsDoc struct {
	InletM3S         float64 `json:"inlet_m3_per_s"`
	OutletM3S        float64 `json:"outlet_m3_per_s"`
	RecirculationM3S float64 `json:"recirculation_m3_per_s"`
}

// JSON returns the design's document: the bytes that
// json.MarshalIndent(doc, "", "  ") gives for d's DesignDoc, in a slice
// with one spare byte for a trailing newline. When a quantity is NaN or
// infinite it returns encoding/json's error for the first one.
//
// It appends the document from d in one pass, making the calls
// encoding/json makes: floats take floatEncoder's format, a string that
// needs escaping goes through json.Marshal, and the layout is
// appendIndent's. A float whose bits already occur in the document
// copies its earlier bytes instead of being formatted again. Like
// MarshalIndent, it writes into a pooled buffer and copies the
// document out at its exact size.
func JSON(d *core.Design) ([]byte, error) {
	pooled := indentBuffers.Get().(*[]byte)
	// The writer, float table included, lives on the stack: pooled
	// with the buffer, the table's 6 KiB would be allocated with every
	// buffer the pool makes, for MarshalIndent's bodies too.
	w := writer{buf: (*pooled)[:0]}
	w.design(d)
	*pooled = w.buf
	var out []byte
	if w.err == nil {
		out = exactCopy(w.buf)
	}
	indentBuffers.Put(pooled)
	if w.err != nil {
		return nil, fmt.Errorf("render: %w", w.err)
	}
	return out, nil
}

// writer appends an indented JSON document to buf.
type writer struct {
	buf []byte
	// more reports that a member or element precedes the next one in
	// the innermost open object or array.
	more bool
	// err is the error of the first value that cannot be encoded.
	err error
	// floats remembers where a float was last written, indexed by a
	// multiplicative hash of its bits; a colliding float overwrites
	// the entry.
	floats [256]floatEntry
}

// floatEntry records that buf[off:off+n] holds the float whose bits
// are bits; n is 0 for an empty entry.
type floatEntry struct {
	bits   uint64
	off, n int
}

// design appends the members of DesignDoc, ModuleDoc, ChannelDoc and
// PumpsDoc in declaration order.
func (w *writer) design(d *core.Design) {
	w.open('{')
	w.text(1, "name", d.Name)
	w.key(1, "modules")
	if len(d.Modules) == 0 {
		w.null()
	} else {
		w.open('[')
		for i := range d.Modules {
			w.next(2)
			w.module(&d.Modules[i])
		}
		w.close(']', 1)
	}
	w.key(1, "channels")
	if len(d.Channels) == 0 {
		w.null()
	} else {
		w.open('[')
		for i := range d.Channels {
			w.next(2)
			w.channel(&d.Channels[i])
		}
		w.close(']', 1)
	}
	w.key(1, "pumps")
	w.open('{')
	w.float(2, "inlet_m3_per_s", d.Pumps.Inlet.CubicMetresPerSecond())
	w.float(2, "outlet_m3_per_s", d.Pumps.Outlet.CubicMetresPerSecond())
	w.float(2, "recirculation_m3_per_s", d.Pumps.Recirculation.CubicMetresPerSecond())
	w.close('}', 1)
	w.float(1, "supply_offset_m", d.SupplyOffset.Metres())
	w.float(1, "discharge_offset_m", d.DischargeOffset.Metres())
	w.float(1, "chip_width_m", d.Bounds.Width())
	w.float(1, "chip_height_m", d.Bounds.Height())
	w.int(1, "iterations", d.Iterations)
	w.float(1, "fluid_viscosity_pa_s", d.Resolved.Spec.Fluid.Viscosity.PascalSeconds())
	w.float(1, "fluid_density_kg_m3", d.Resolved.Spec.Fluid.Density.KilogramsPerCubicMetre())
	w.close('}', 0)
}

// module appends one ModuleDoc at depth 2.
func (w *writer) module(m *core.PlacedModule) {
	w.open('{')
	w.text(3, "name", m.Name)
	if m.Organ != "" {
		w.text(3, "organ", string(m.Organ))
	}
	w.text(3, "tissue", m.Kind.String())
	w.float(3, "mass_kg", m.Mass.Kilograms())
	w.float(3, "width_m", m.Width.Metres())
	w.float(3, "length_m", m.Length.Metres())
	if r := m.Radius.Metres(); r != 0 {
		w.float(3, "radius_m", r)
	}
	w.float(3, "membrane_area_m2", m.MembraneArea.SquareMetres())
	w.float(3, "perfusion", m.Perfusion)
	w.float(3, "flow_m3_per_s", m.FlowRate.CubicMetresPerSecond())
	w.float(3, "inlet_x_m", m.InletX.Metres())
	w.float(3, "outlet_x_m", m.OutletX.Metres())
	w.close('}', 2)
}

// channel appends one ChannelDoc at depth 2.
func (w *writer) channel(c *core.Channel) {
	w.open('{')
	w.text(3, "name", c.Name)
	w.text(3, "kind", c.Kind.String())
	w.int(3, "index", c.Index)
	w.float(3, "width_m", c.Cross.Width.Metres())
	w.float(3, "height_m", c.Cross.Height.Metres())
	w.float(3, "length_m", c.Length.Metres())
	w.text(3, "from", c.From)
	w.text(3, "to", c.To)
	w.float(3, "design_flow_m3_per_s", c.DesignFlow.CubicMetresPerSecond())
	w.float(3, "design_pressure_drop_pa", c.DesignPressureDrop.Pascals())
	w.key(3, "path_m")
	if len(c.Path.Points) == 0 {
		w.null()
	} else {
		w.open('[')
		for _, p := range c.Path.Points {
			w.next(4)
			w.open('[')
			w.next(5)
			w.number(p.X)
			w.next(5)
			w.number(p.Y)
			w.close(']', 4)
		}
		w.close(']', 3)
	}
	w.close('}', 2)
}

// open appends an opening bracket.
func (w *writer) open(c byte) {
	w.buf = append(w.buf, c)
	w.more = false
}

// next starts a member or element at depth: a comma after the one
// before it, a newline and the indent.
func (w *writer) next(depth int) {
	if w.more {
		w.buf = append(w.buf, ',')
	}
	w.more = true
	w.buf = appendNewline(w.buf, depth)
}

// key starts the object member k at depth; k needs no escaping.
func (w *writer) key(depth int, k string) {
	w.next(depth)
	w.buf = append(w.buf, '"')
	w.buf = append(w.buf, k...)
	w.buf = append(w.buf, '"', ':', ' ')
}

// close appends a closing bracket on a line of its own at depth. The
// document holds no empty object or array: a design without modules,
// channels or path points has nil slices, which encode as null.
func (w *writer) close(c byte, depth int) {
	w.buf = append(appendNewline(w.buf, depth), c)
	w.more = true
}

func (w *writer) null() { w.buf = append(w.buf, "null"...) }

// int appends the member k with the integer value i.
func (w *writer) int(depth int, k string, i int) {
	w.key(depth, k)
	w.buf = strconv.AppendInt(w.buf, int64(i), 10)
}

// float appends the member k with the number x.
func (w *writer) float(depth int, k string, x float64) {
	w.key(depth, k)
	w.number(x)
}

// text appends the member k with the string s quoted. A string of bytes
// in [0x20, 0x7f) other than the ones encoding/json escapes, '"', '\\'
// and the HTML-sensitive '<', '>' and '&', is appended as it is; any
// other string is quoted by json.Marshal itself.
func (w *writer) text(depth int, k, s string) {
	w.key(depth, k)
	for i := 0; i < len(s); i++ {
		if c := s[i]; c < 0x20 || c >= 0x7f || c == '"' || c == '\\' || c == '<' || c == '>' || c == '&' {
			// A string always encodes.
			quoted, _ := json.Marshal(s)
			w.buf = append(w.buf, quoted...)
			return
		}
	}
	w.buf = append(w.buf, '"')
	w.buf = append(w.buf, s...)
	w.buf = append(w.buf, '"')
}

// number appends x as encoding/json's floatEncoder does: 'f' format
// for zero and 1e-6 <= |x| < 1e21, otherwise 'e' with a one-digit
// negative exponent written without its leading zero. NaN and ±Inf
// set encoding/json's error and append nothing.
func (w *writer) number(x float64) {
	bits := math.Float64bits(x)
	e := &w.floats[bits*0x9e3779b97f4a7c15>>56]
	if e.n > 0 && e.bits == bits {
		w.buf = append(w.buf, w.buf[e.off:e.off+e.n]...)
		return
	}
	if math.IsInf(x, 0) || math.IsNaN(x) {
		if w.err == nil {
			w.err = &json.UnsupportedValueError{Value: reflect.ValueOf(x), Str: strconv.FormatFloat(x, 'g', -1, 64)}
		}
		return
	}
	off := len(w.buf)
	format := byte('f')
	if abs := math.Abs(x); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	w.buf = strconv.AppendFloat(w.buf, x, format, -1, 64)
	if n := len(w.buf); format == 'e' && w.buf[n-4] == 'e' && w.buf[n-3] == '-' && w.buf[n-2] == '0' {
		// e-09 becomes e-9; an 'e' format number is at least five
		// bytes long.
		w.buf[n-2] = w.buf[n-1]
		w.buf = w.buf[:n-1]
	}
	*e = floatEntry{bits: bits, off: off, n: len(w.buf) - off}
}
