package render

import (
	"bytes"
	"encoding/json"
	"errors"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"strings"
	"testing"

	"ooc/internal/core"
	"ooc/internal/fluid"
	"ooc/internal/physio"
	"ooc/internal/units"
	"ooc/internal/usecases"
)

// ToDoc converts a design into its JSON document form. It is the
// reference JSON is held to: encoding/json's reflection over the
// DesignDoc it returns writes the bytes JSON must write.
func ToDoc(d *core.Design) DesignDoc {
	doc := DesignDoc{
		Name:              d.Name,
		SupplyOffsetM:     d.SupplyOffset.Metres(),
		DischargeOffsetM:  d.DischargeOffset.Metres(),
		ChipWidthM:        d.Bounds.Width(),
		ChipHeightM:       d.Bounds.Height(),
		Iterations:        d.Iterations,
		FluidViscosityPaS: d.Resolved.Spec.Fluid.Viscosity.PascalSeconds(),
		FluidDensityKgM3:  d.Resolved.Spec.Fluid.Density.KilogramsPerCubicMetre(),
		Pumps: PumpsDoc{
			InletM3S:         d.Pumps.Inlet.CubicMetresPerSecond(),
			OutletM3S:        d.Pumps.Outlet.CubicMetresPerSecond(),
			RecirculationM3S: d.Pumps.Recirculation.CubicMetresPerSecond(),
		},
	}
	for _, m := range d.Modules {
		doc.Modules = append(doc.Modules, ModuleDoc{
			Name:           m.Name,
			Organ:          string(m.Organ),
			Tissue:         m.Kind.String(),
			MassKg:         m.Mass.Kilograms(),
			WidthM:         m.Width.Metres(),
			LengthM:        m.Length.Metres(),
			RadiusM:        m.Radius.Metres(),
			MembraneAreaM2: m.MembraneArea.SquareMetres(),
			Perfusion:      m.Perfusion,
			FlowM3S:        m.FlowRate.CubicMetresPerSecond(),
			InletXM:        m.InletX.Metres(),
			OutletXM:       m.OutletX.Metres(),
		})
	}
	for _, c := range d.Channels {
		cd := ChannelDoc{
			Name:       c.Name,
			Kind:       c.Kind.String(),
			Index:      c.Index,
			WidthM:     c.Cross.Width.Metres(),
			HeightM:    c.Cross.Height.Metres(),
			LengthM:    c.Length.Metres(),
			From:       c.From,
			To:         c.To,
			FlowM3S:    c.DesignFlow.CubicMetresPerSecond(),
			PressurePa: c.DesignPressureDrop.Pascals(),
		}
		for _, p := range c.Path.Points {
			cd.PathM = append(cd.PathM, [2]float64{p.X, p.Y})
		}
		doc.Channels = append(doc.Channels, cd)
	}
	return doc
}

// escapeNames holds a name for every class of string encoding/json
// escapes, and a few it leaves alone.
var escapeNames = []string{
	"plain-ascii_0",
	"",
	`chip "<&>"`,
	`back\slash`,
	"line\u2028para\u2029sep",
	"ctrl\x01\x1f nul\x00",
	"tab\tnl\ncr\rbs\bff\f",
	"invalid\xff\xfeutf8\xc3",
	"del\x7f",
	"café · µm",
	"mixed <\"\\\u2028\x02\t\xff>",
}

// withName returns a copy of d with s as the name of the design, of
// its first module and first channel, and as that channel's endpoints;
// d is unchanged.
func withName(d *core.Design, s string) *core.Design {
	c := *d
	c.Name = s
	c.Modules = slices.Clone(d.Modules)
	c.Modules[0].Name = s
	c.Channels = slices.Clone(d.Channels)
	ch := &c.Channels[0]
	ch.Name, ch.From, ch.To = s, s, s
	return &c
}

// checkMatchesReflection fails t unless JSON(d) returns the bytes
// json.MarshalIndent writes for ToDoc(d), in a slice with one spare
// byte, or an error with the same text and type as encoding/json's.
func checkMatchesReflection(t *testing.T, label string, d *core.Design) {
	t.Helper()
	got, err := JSON(d)
	want, wantErr := json.MarshalIndent(ToDoc(d), "", "  ")
	if wantErr != nil {
		var unsupported *json.UnsupportedValueError
		if err == nil || err.Error() != "render: "+wantErr.Error() || !errors.As(err, &unsupported) {
			t.Fatalf("%s: got error %v, want render: %v", label, err, wantErr)
		}
		return
	}
	if err != nil {
		t.Fatalf("%s: %v", label, err)
	}
	if !bytes.Equal(got, want) {
		i := 0
		for i < min(len(got), len(want)) && got[i] == want[i] {
			i++
		}
		t.Fatalf("%s: differs from reflection at byte %d:\n--- got ---\n%s\n--- want ---\n%s",
			label, i, got[max(0, i-80):min(len(got), i+80)], want[max(0, i-80):min(len(want), i+80)])
	}
	if cap(got) != len(got)+1 {
		t.Fatalf("%s: len %d cap %d, want cap len+1", label, len(got), cap(got))
	}
}

// randomSpec draws a well-formed specification as the root package's
// end-to-end property test does: 1–6 catalog organs, sometimes a
// custom round module without an organ, viscosity and shear inside
// their windows.
func randomSpec(rng *rand.Rand) core.Spec {
	organs := []physio.OrganID{
		physio.Lung, physio.Liver, physio.Brain, physio.Kidney, physio.GITract,
		physio.Heart, physio.Skin, physio.Spleen, physio.Pancreas,
	}
	rng.Shuffle(len(organs), func(i, j int) { organs[i], organs[j] = organs[j], organs[i] })
	spec := core.Spec{
		Name:         "random",
		Reference:    physio.StandardMale(),
		OrganismMass: units.Kilograms(1e-6 * (0.5 + rng.Float64()*4)),
		Fluid:        fluid.MediumTypical,
		ShearStress:  units.PascalsShear(1.0 + rng.Float64()),
	}
	if rng.Intn(2) == 0 {
		spec.Reference = physio.StandardFemale()
	}
	spec.Fluid.Viscosity = units.PascalSeconds(7e-4 + rng.Float64()*4e-4)
	spec.Geometry.Spacing = units.Millimetres(0.5 + rng.Float64())
	for i, n := 0, 1+rng.Intn(6); i < n; i++ {
		spec.Modules = append(spec.Modules, core.ModuleSpec{Organ: organs[i], Kind: core.Layered})
	}
	if rng.Intn(3) == 0 {
		spec.Modules = append(spec.Modules, core.ModuleSpec{
			Name:      "spheroid",
			Kind:      core.Round,
			Mass:      units.Kilograms(1e-9 * (1 + rng.Float64()*40)),
			Perfusion: 0.05 + rng.Float64()*0.6,
		})
	}
	return spec
}

// TestJSONMatchesReflection: JSON writes the bytes encoding/json's
// reflection writes for ToDoc over the 288 designs of the extended
// sweep (every seventh renamed with an escape-class name), seeded
// random specifications, a custom round module without an organ and
// names of every escape class.
func TestJSONMatchesReflection(t *testing.T) {
	for i, in := range usecases.Instances(usecases.All(), usecases.ExtendedSweep()) {
		d, err := core.Generate(in.Spec)
		if err != nil {
			t.Fatalf("%s: %v", in.Label(), err)
		}
		if i%7 == 0 {
			d = withName(d, escapeNames[(i/7)%len(escapeNames)])
		}
		checkMatchesReflection(t, in.Label(), d)
	}

	rng := rand.New(rand.NewSource(23))
	for trial := 0; trial < 40; trial++ {
		d, err := core.Generate(randomSpec(rng))
		if err != nil {
			// An infeasible draw; TestRandomSpecsEndToEnd in the root
			// package checks that it fails explainably.
			continue
		}
		checkMatchesReflection(t, "random", d)
	}

	// A round module without an organ writes radius_m and omits
	// organ; the layered catalog modules do the opposite.
	spec := usecases.Fig4Instance().Spec
	spec.Modules = append(slices.Clone(spec.Modules), core.ModuleSpec{
		Name: "spheroid", Kind: core.Round, Mass: units.Kilograms(5e-9), Perfusion: 0.2,
	})
	d, err := core.Generate(spec)
	if err != nil {
		t.Fatal(err)
	}
	last := d.Modules[len(d.Modules)-1]
	if last.Organ != "" || last.Radius == 0 || d.Modules[0].Organ == "" || d.Modules[0].Radius != 0 {
		t.Fatalf("modules do not exercise both omitempty fields: first %+v, last %+v", d.Modules[0].Module, last.Module)
	}
	checkMatchesReflection(t, "round module without organ", d)

	for _, name := range escapeNames {
		checkMatchesReflection(t, strings.ToValidUTF8(name, "?"), withName(d, name))
	}
}

// TestJSONKeysMirrorDesignDoc: at every level, the keys JSON writes
// are, in order, the JSON tags of DesignDoc, ModuleDoc, ChannelDoc and
// PumpsDoc, so a field added to the schema alone fails here.
func TestJSONKeysMirrorDesignDoc(t *testing.T) {
	d := sampleDesign(t)
	// The first module carries both omitempty fields.
	d.Modules[0].Radius = units.Micrometres(100)
	if d.Modules[0].Organ == "" {
		t.Fatal("sample design's first module has no organ")
	}
	raw, err := JSON(d)
	if err != nil {
		t.Fatal(err)
	}
	got, err := keysByPath(raw)
	if err != nil {
		t.Fatal(err)
	}
	want := map[string][]string{}
	tagsByPath(reflect.TypeOf(DesignDoc{}), "", want)
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("written keys differ from the DesignDoc schema:\n got %v\nwant %v", got, want)
	}
}

// keysByPath decodes a JSON document and returns, for each path that
// leads to an object, the keys of the first object there in order. A
// member extends its object's path by "." and its key, an array
// element extends its array's path by "[]".
func keysByPath(raw []byte) (map[string][]string, error) {
	dec := json.NewDecoder(bytes.NewReader(raw))
	keys := map[string][]string{}
	var walk func(path string) error
	walk = func(path string) error {
		tok, err := dec.Token()
		if err != nil {
			return err
		}
		switch tok {
		case json.Delim('{'):
			var ks []string
			for dec.More() {
				k, err := dec.Token()
				if err != nil {
					return err
				}
				ks = append(ks, k.(string))
				if err := walk(path + "." + k.(string)); err != nil {
					return err
				}
			}
			if _, seen := keys[path]; !seen {
				keys[path] = ks
			}
		case json.Delim('['):
			for dec.More() {
				if err := walk(path + "[]"); err != nil {
					return err
				}
			}
		default:
			return nil
		}
		_, err = dec.Token()
		return err
	}
	return keys, walk("")
}

// tagsByPath records the JSON names of struct type t's fields under
// path, and those of every struct reached through its fields, slices
// and arrays, with keysByPath's paths.
func tagsByPath(t reflect.Type, path string, out map[string][]string) {
	for i := 0; i < t.NumField(); i++ {
		f := t.Field(i)
		name, _, _ := strings.Cut(f.Tag.Get("json"), ",")
		out[path] = append(out[path], name)
		sub, ft := path+"."+name, f.Type
		for ft.Kind() == reflect.Slice || ft.Kind() == reflect.Array {
			sub, ft = sub+"[]", ft.Elem()
		}
		if ft.Kind() == reflect.Struct {
			tagsByPath(ft, sub, out)
		}
	}
}

// FuzzDesignJSON: with any string as the design, module, channel and
// endpoint names and any float64 as a path coordinate, a module flow
// and a pump flow, JSON writes the bytes, or the error, of encoding/json's
// reflection over ToDoc.
func FuzzDesignJSON(f *testing.F) {
	base, err := core.Generate(usecases.Fig4Instance().Spec)
	if err != nil {
		f.Fatal(err)
	}
	for _, x := range []float64{
		0, math.Copysign(0, -1),
		1e-6, math.Nextafter(1e-6, 0), -1e-6,
		1e21, math.Nextafter(1e21, 0), -1e21,
		math.SmallestNonzeroFloat64, math.MaxFloat64, -math.MaxFloat64,
		math.NaN(), math.Inf(1), math.Inf(-1),
		1.5e-9, 123456.789,
	} {
		f.Add("chip", x)
	}
	for _, name := range escapeNames {
		f.Add(name, 7.81e-9)
	}
	f.Fuzz(func(t *testing.T, s string, x float64) {
		d := withName(base, s)
		d.Modules[0].FlowRate = units.FlowRate(x)
		ch := &d.Channels[0]
		ch.Path.Points = slices.Clone(ch.Path.Points)
		ch.Path.Points[0].X = x
		d.Pumps.Inlet = units.FlowRate(x)
		checkMatchesReflection(t, "fuzz", d)
	})
}
