package render

import (
	"encoding/json"
	"fmt"
	"math"
	"strings"
	"testing"

	"ooc/internal/core"
	"ooc/internal/sim"
	"ooc/internal/usecases"
)

func sampleDesign(t *testing.T) *core.Design {
	t.Helper()
	d, err := core.Generate(usecases.Fig4Instance().Spec)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func TestSVGStructure(t *testing.T) {
	d := sampleDesign(t)
	svg := SVG(d, SVGOptions{ShowLabels: true})
	if !strings.HasPrefix(svg, "<svg") || !strings.HasSuffix(strings.TrimSpace(svg), "</svg>") {
		t.Fatal("not a complete SVG document")
	}
	// One polyline per channel, one rect per module (plus background).
	if got := strings.Count(svg, "<polyline"); got != len(d.Channels) {
		t.Fatalf("polylines %d, channels %d", got, len(d.Channels))
	}
	if got := strings.Count(svg, "<rect"); got != len(d.Modules)+1 {
		t.Fatalf("rects %d, modules %d", got, len(d.Modules))
	}
	for _, name := range []string{"supply-0", "discharge-2", "module-1", "connection-0"} {
		if !strings.Contains(svg, name) {
			t.Fatalf("SVG missing channel %q", name)
		}
	}
	if !strings.Contains(svg, "lung") {
		t.Fatal("SVG missing module label")
	}
}

func TestSVGEscaping(t *testing.T) {
	d := sampleDesign(t)
	d.Name = `chip "<&>"`
	svg := SVG(d, SVGOptions{ShowLabels: true})
	if strings.Contains(svg, `chip "<&>"`) {
		t.Fatal("unescaped special characters in SVG")
	}
	if !strings.Contains(svg, "chip &quot;&lt;&amp;&gt;&quot;") {
		t.Fatal("escaped name missing")
	}
}

func TestJSONRoundTrip(t *testing.T) {
	d := sampleDesign(t)
	raw, err := JSON(d)
	if err != nil {
		t.Fatal(err)
	}
	var doc DesignDoc
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatalf("invalid JSON: %v", err)
	}
	if doc.Name != d.Name {
		t.Fatalf("name %q", doc.Name)
	}
	if len(doc.Modules) != len(d.Modules) || len(doc.Channels) != len(d.Channels) {
		t.Fatal("module/channel counts lost")
	}
	//ooclint:ignore floatcmp serialization copies the value verbatim
	if doc.Pumps.InletM3S != d.Pumps.Inlet.CubicMetresPerSecond() {
		t.Fatal("pump settings lost")
	}
	if doc.ChipWidthM <= 0 || doc.ChipHeightM <= 0 {
		t.Fatal("chip dimensions missing")
	}
	// Paths serialize as coordinate pairs.
	if len(doc.Channels[0].PathM) < 2 {
		t.Fatal("channel path missing")
	}
	// Units sanity: liver module mass ~1.4e-8 kg.
	found := false
	for _, m := range doc.Modules {
		if m.Organ == "liver" && m.MassKg > 1e-8 && m.MassKg < 2e-8 {
			found = true
		}
	}
	if !found {
		t.Fatal("liver module mass not serialized plausibly")
	}
}

func TestToDocTissueKinds(t *testing.T) {
	d := sampleDesign(t)
	doc := ToDoc(d)
	for _, m := range doc.Modules {
		if m.Tissue != "layered" {
			t.Fatalf("tissue kind %q", m.Tissue)
		}
	}
}

func TestDXFStructure(t *testing.T) {
	d := sampleDesign(t)
	dxf := DXF(d)
	if !strings.Contains(dxf, "AC1009") {
		t.Fatal("missing R12 version tag")
	}
	if !strings.HasSuffix(strings.TrimSpace(dxf), "EOF") {
		t.Fatal("missing EOF")
	}
	// One POLYLINE per channel plus one per module basin.
	want := len(d.Channels) + len(d.Modules)
	if got := strings.Count(dxf, "POLYLINE"); got != want {
		t.Fatalf("polylines %d, want %d", got, want)
	}
	// Every SEQEND matches a POLYLINE.
	if strings.Count(dxf, "SEQEND") != want {
		t.Fatal("unbalanced SEQEND")
	}
	for _, layer := range []string{"MODULES", "SUPPLY", "DISCHARGE", "FEED", "DRAIN", "CONNECTION", "MODULE_CHANNEL"} {
		if !strings.Contains(dxf, layer) {
			t.Fatalf("layer %s missing", layer)
		}
	}
	// Group-code/value alternation: every line pair parses as int then value.
	lines := strings.Split(strings.TrimSpace(dxf), "\n")
	if len(lines)%2 != 0 {
		t.Fatal("odd number of DXF lines")
	}
	for i := 0; i < len(lines); i += 2 {
		var code int
		if _, err := fmt.Sscanf(lines[i], "%d", &code); err != nil {
			t.Fatalf("line %d: bad group code %q", i, lines[i])
		}
	}
}

func TestRoundTripValidation(t *testing.T) {
	// JSON → Design → validate must agree with validating the original.
	d := sampleDesign(t)
	raw, err := JSON(d)
	if err != nil {
		t.Fatal(err)
	}
	loaded, err := ParseJSON(raw)
	if err != nil {
		t.Fatal(err)
	}
	if loaded.Name != d.Name || len(loaded.Channels) != len(d.Channels) {
		t.Fatal("round trip lost structure")
	}
	a, err := sim.Validate(d, sim.Options{})
	if err != nil {
		t.Fatal(err)
	}
	b, err := sim.Validate(loaded, sim.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(a.MaxFlowDeviation-b.MaxFlowDeviation) > 1e-9 {
		t.Fatalf("round-trip validation drift: %g vs %g", a.MaxFlowDeviation, b.MaxFlowDeviation)
	}
}

func TestParseJSONErrors(t *testing.T) {
	if _, err := ParseJSON([]byte("not json")); err == nil {
		t.Error("invalid JSON accepted")
	}
	if _, err := FromDoc(DesignDoc{}); err == nil {
		t.Error("empty doc accepted")
	}
	d := sampleDesign(t)
	doc := ToDoc(d)
	doc.FluidViscosityPaS = 0
	if _, err := FromDoc(doc); err == nil {
		t.Error("doc without fluid accepted")
	}
	doc = ToDoc(d)
	doc.Channels[0].Kind = "weird"
	if _, err := FromDoc(doc); err == nil {
		t.Error("unknown channel kind accepted")
	}
	doc = ToDoc(d)
	doc.Modules[0].Tissue = "weird"
	if _, err := FromDoc(doc); err == nil {
		t.Error("unknown tissue kind accepted")
	}
	doc = ToDoc(d)
	doc.Channels[0].PathM = nil
	if _, err := FromDoc(doc); err == nil {
		t.Error("degenerate path accepted")
	}
}

// TestFromDocFluidWindow: a reloaded document's fluid must lie inside
// physio's windows, or loading fails naming the quantity; a negative
// density is not read as absent.
func TestFromDocFluidWindow(t *testing.T) {
	d := sampleDesign(t)
	for _, c := range []struct {
		viscosity, density float64
		want               string
	}{
		{viscosity: 1e300, want: "viscosity "},
		{density: -5, want: "density "},
	} {
		doc := ToDoc(d)
		if c.viscosity != 0 {
			doc.FluidViscosityPaS = c.viscosity
		}
		if c.density != 0 {
			doc.FluidDensityKgM3 = c.density
		}
		_, err := FromDoc(doc)
		if err == nil || !strings.HasPrefix(err.Error(), "render: ") || !strings.Contains(err.Error(), c.want) {
			t.Errorf("µ %g ρ %g: got %v, want a render error naming the %s", c.viscosity, c.density, err, c.want)
		}
	}
	doc := ToDoc(d)
	doc.FluidDensityKgM3 = 0
	if _, err := FromDoc(doc); err != nil {
		t.Errorf("absent density should default: %v", err)
	}
}
