package render

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"ooc/internal/core"
	"ooc/internal/usecases"
)

// TestMarshalIndent: every use case's design document encodes to
// json.MarshalIndent's bytes, in a slice with exactly one spare byte.
func TestMarshalIndent(t *testing.T) {
	for _, uc := range usecases.All() {
		d, err := core.Generate(uc.Build())
		if err != nil {
			t.Fatalf("%s: %v", uc.Name, err)
		}
		doc := ToDoc(d)
		got, err := MarshalIndent(doc)
		if err != nil {
			t.Fatalf("%s: %v", uc.Name, err)
		}
		want, err := json.MarshalIndent(doc, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("%s: differs from json.MarshalIndent", uc.Name)
		}
		if cap(got) != len(got)+1 {
			t.Errorf("%s: len %d cap %d, want cap len+1", uc.Name, len(got), cap(got))
		}
	}
}

// TestMarshalIndentNonFinite: a value encoding/json cannot encode gives
// encoding/json's error, so a served 500 keeps its message.
func TestMarshalIndentNonFinite(t *testing.T) {
	for _, x := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		v := struct {
			X float64 `json:"x"`
		}{x}
		_, want := json.MarshalIndent(v, "", "  ")
		got, err := MarshalIndent(v)
		if err == nil || want == nil || err.Error() != want.Error() {
			t.Errorf("%v: got %q, %v; want error %v", x, got, err, want)
		}
	}
}

// FuzzMarshalIndent: for any JSON document, MarshalIndent of its
// decoded value equals json.MarshalIndent byte for byte.
func FuzzMarshalIndent(f *testing.F) {
	golden, err := filepath.Glob(filepath.Join("..", "server", "testdata", "*.golden"))
	if err != nil || len(golden) == 0 {
		f.Fatalf("no served-body goldens to seed from: %v", err)
	}
	for _, path := range golden {
		raw, err := os.ReadFile(path)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(raw)
	}
	for _, seed := range []string{
		`{}`, `[]`, `[[],{}]`, `{"a":{},"b":[[]],"c":[{}]}`,
		`"plain"`, `-1.5e-9`, `true`, `null`,
		`{"q\"uote":"a\"b","back\\slash":"c:\\d,e]","\\":"\\\""}`,
		"[\"line\u2028sep\", \"<tag> & co\", \"\\u0000\\n\\t\"]",
		// Deeper than the constant run of indent spaces.
		strings.Repeat(`{"k":[`, 20) + `1` + strings.Repeat(`]}`, 20),
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, raw []byte) {
		var v any
		if json.Unmarshal(raw, &v) != nil {
			t.Skip()
		}
		want, err := json.MarshalIndent(v, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		got, err := MarshalIndent(v)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("differs from json.MarshalIndent\n--- got ---\n%s\n--- want ---\n%s", got, want)
		}
	})
}
