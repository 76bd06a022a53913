package specio

import (
	"bytes"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"testing"

	"ooc/internal/core"
	"ooc/internal/usecases"
)

// exampleDoc is a representative spec document exercising defaults
// (reference, tissue), overrides (mass, perfusion) and both tissue
// kinds.
const exampleDoc = `{
  "name": "my_chip",
  "reference": "male",
  "organism_mass_kg": 1e-6,
  "viscosity_pa_s": 7.2e-4,
  "shear_stress_pa": 1.5,
  "spacing_m": 1e-3,
  "modules": [
    {"organ": "lung", "tissue": "layered"},
    {"organ": "liver", "tissue": "layered"},
    {"name": "tumor", "tissue": "round", "mass_kg": 2e-8, "perfusion": 0.2}
  ]
}`

func TestCanonicalByteStable(t *testing.T) {
	spec, err := Parse([]byte(exampleDoc))
	if err != nil {
		t.Fatal(err)
	}
	a, err := Canonical(spec)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Canonical(spec)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a, b) {
		t.Fatalf("canonical form is not stable:\n%s\nvs\n%s", a, b)
	}
	// Keys are sorted at the top level: "modules" precedes "name".
	out := string(a)
	if strings.Index(out, `"modules"`) > strings.Index(out, `"name"`) {
		t.Fatalf("keys not sorted:\n%s", out)
	}
	if strings.Contains(out, "\n") || strings.Contains(out, "  ") {
		t.Fatalf("canonical form contains insignificant whitespace:\n%s", out)
	}
}

// TestCanonicalIgnoresSourceFormatting: the same logical document with
// different key order, whitespace and defaulted fields spelled out must
// canonicalize to the same bytes — the property the server cache key
// depends on.
func TestCanonicalIgnoresSourceFormatting(t *testing.T) {
	reordered := `{
  "modules": [
    {"tissue": "layered", "organ": "lung"},
    {"organ": "liver"},
    {"perfusion": 0.2, "tissue": "round", "mass_kg": 2e-8, "name": "tumor"}
  ],
  "spacing_m": 0.001,
  "shear_stress_pa": 1.5,
  "viscosity_pa_s": 0.00072,
  "organism_mass_kg": 0.000001,
  "name": "my_chip"
}`
	s1, err := Parse([]byte(exampleDoc))
	if err != nil {
		t.Fatal(err)
	}
	s2, err := Parse([]byte(reordered))
	if err != nil {
		t.Fatal(err)
	}
	c1, err := Canonical(s1)
	if err != nil {
		t.Fatal(err)
	}
	c2, err := Canonical(s2)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(c1, c2) {
		t.Fatalf("equivalent documents canonicalize differently:\n%s\nvs\n%s", c1, c2)
	}
}

// The canonical bytes are the response cache's keys, so they are
// pinned: a change to them makes every cache snapshot and peer fill
// miss. Regenerate only after an intentional change to the key with:
//
//	go test ./internal/specio/ -run TestCanonicalGolden -update
var update = flag.Bool("update", false, "rewrite the golden file")

// TestCanonicalGolden compares the canonical bytes of every use case
// and of exampleDoc, one document a line, with
// testdata/canonical.golden.
func TestCanonicalGolden(t *testing.T) {
	example, err := Parse([]byte(exampleDoc))
	if err != nil {
		t.Fatal(err)
	}
	specs := []core.Spec{example}
	for _, uc := range usecases.All() {
		specs = append(specs, uc.Build())
	}
	var got bytes.Buffer
	for _, spec := range specs {
		c, err := Canonical(spec)
		if err != nil {
			t.Fatalf("%s: %v", spec.Name, err)
		}
		got.Write(c)
		got.WriteByte('\n')
	}
	path := filepath.Join("testdata", "canonical.golden")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden file (run with -update to create): %v", err)
	}
	if !bytes.Equal(got.Bytes(), want) {
		t.Errorf("canonical bytes drifted from %s\n--- got ---\n%s--- want ---\n%s", path, got.Bytes(), want)
	}
}

// TestCanonicalDistinguishesUseCases: distinct specs must not collide.
func TestCanonicalDistinguishesUseCases(t *testing.T) {
	seen := map[string]string{}
	for _, uc := range usecases.All() {
		c, err := Canonical(uc.Build())
		if err != nil {
			t.Fatalf("%s: %v", uc.Name, err)
		}
		if prev, ok := seen[string(c)]; ok {
			t.Fatalf("use cases %s and %s share a canonical form", prev, uc.Name)
		}
		seen[string(c)] = uc.Name
	}
}

// TestCanonicalMirrorsFile: canonicalFile and canonicalModule carry
// exactly the JSON keys, omitempty options and kinds of File and
// ModuleFile, in strictly increasing key order. A field added to File
// alone would drop out of the cache key, and two different specs
// would share one cached response.
func TestCanonicalMirrorsFile(t *testing.T) {
	type field struct {
		Key, Opts string
		Kind      reflect.Kind
	}
	fields := func(typ reflect.Type) []field {
		var out []field
		for i := 0; i < typ.NumField(); i++ {
			f := typ.Field(i)
			key, opts, _ := strings.Cut(f.Tag.Get("json"), ",")
			out = append(out, field{key, opts, f.Type.Kind()})
		}
		return out
	}
	for _, pair := range []struct{ doc, mirror reflect.Type }{
		{reflect.TypeOf(File{}), reflect.TypeOf(canonicalFile{})},
		{reflect.TypeOf(ModuleFile{}), reflect.TypeOf(canonicalModule{})},
	} {
		mirror := fields(pair.mirror)
		for i := 1; i < len(mirror); i++ {
			if mirror[i-1].Key >= mirror[i].Key {
				t.Errorf("%s: key %q does not sort after %q", pair.mirror, mirror[i].Key, mirror[i-1].Key)
			}
		}
		doc := fields(pair.doc)
		sort.Slice(doc, func(i, j int) bool { return doc[i].Key < doc[j].Key })
		if !reflect.DeepEqual(doc, mirror) {
			t.Errorf("%s does not mirror %s:\n%+v\nvs\n%+v", pair.mirror, pair.doc, mirror, doc)
		}
	}
}

// canonicalReference is the three-pass canonicalization Canonical
// must equal: marshal File, decode into any and marshal again, which
// sorts every object's keys. On a parsed spec that is all it does —
// Parse yields only valid UTF-8 strings, and a float64's shortest form
// reads back to the same float64.
func canonicalReference(spec core.Spec) ([]byte, error) {
	raw, err := json.Marshal(FromSpec(spec))
	if err != nil {
		return nil, err
	}
	var generic any
	if err := json.Unmarshal(raw, &generic); err != nil {
		return nil, err
	}
	return json.Marshal(generic)
}

// FuzzCanonicalRoundTrip: for any document that parses, the canonical
// form must equal canonicalReference, parse back to the same spec and
// re-canonicalize to the same bytes (Parse ∘ Canonical is the identity
// on parsed specs).
func FuzzCanonicalRoundTrip(f *testing.F) {
	f.Add([]byte(exampleDoc))
	f.Add([]byte(`{"name":"x","modules":[{"organ":"liver"}]}`))
	f.Add([]byte(`{"reference":"female","dilution":3,"channel_height_m":2e-4,"modules":[{"organ":"brain","scaling_exponent":0.75}]}`))
	f.Add([]byte(`{}`))
	f.Add([]byte(`{"modules":[]}`))
	f.Add([]byte("{\"name\":\"<a&b>\u2028\\\"q\\\\\",\"anchor_module\":\"\xff\",\"modules\":[{\"name\":\"\xff\",\"organ\":\"liver\",\"mass_kg\":-0}]}"))
	f.Fuzz(func(t *testing.T, raw []byte) {
		spec, err := Parse(raw)
		if err != nil {
			t.Skip()
		}
		c1, err := Canonical(spec)
		if err != nil {
			// Specs carrying non-finite floats cannot be serialized as
			// JSON at all; such documents cannot have parsed from JSON
			// in the first place.
			t.Fatalf("canonicalizing a parsed spec failed: %v", err)
		}
		ref, err := canonicalReference(spec)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(c1, ref) {
			t.Fatalf("canonical form differs from the reference:\n%s\nvs\n%s", c1, ref)
		}
		spec2, err := Parse(c1)
		if err != nil {
			t.Fatalf("canonical form does not parse: %v\n%s", err, c1)
		}
		if !reflect.DeepEqual(spec, spec2) {
			t.Fatalf("round trip changed the spec:\n%+v\nvs\n%+v\ncanonical: %s", spec, spec2, c1)
		}
		c2, err := Canonical(spec2)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(c1, c2) {
			t.Fatalf("canonical form is not a fixed point:\n%s\nvs\n%s", c1, c2)
		}
	})
}
