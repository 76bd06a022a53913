package sim

import (
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"testing"
	"time"

	"ooc/internal/core"
	"ooc/internal/dyn"
	"ooc/internal/usecases"
)

// The transient tier's output is pinned bit for bit: encoding/json
// writes every float64 in its shortest round-tripping form, so any
// change to the stepper's arithmetic or operation order shows up as a
// diff. Regenerate only after an intentional numerical change with:
//
//	go test ./internal/sim/ -run TestGoldenDynamic -update
var update = flag.Bool("update", false, "rewrite the golden files")

// TestGoldenDynamic runs a 1 s pulsatile, dosed transient validation
// of the smallest organ chip (male_simple, 15 nodes) and the largest
// generic chip (generic4, 35 nodes) and compares the full report with
// its golden file.
func TestGoldenDynamic(t *testing.T) {
	prof, err := dyn.ParseProfile("pulse:0.5@500ms")
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"male_simple", "generic4"} {
		t.Run(name, func(t *testing.T) {
			uc, err := usecases.ByName(name)
			if err != nil {
				t.Fatal(err)
			}
			d, err := core.Generate(uc.Build())
			if err != nil {
				t.Fatalf("Generate: %v", err)
			}
			opt := dynOptions()
			opt.Dynamic.Duration = time.Second
			opt.Dynamic.Profile = prof
			opt.Dynamic.Species = dyn.Species{
				Enabled:           true,
				DoseConcentration: 1,
				DoseStart:         0,
				DoseDuration:      1,
				ArrivalThreshold:  0.1,
			}
			dr, err := ValidateDynamic(d, opt)
			if err != nil {
				t.Fatalf("dynamic validate: %v", err)
			}
			// The design is the run's input, pinned by the generator's
			// own tests; leaving it out keeps the golden to the
			// stepper's output.
			rep := *dr.Report
			rep.Design = nil
			out := *dr
			out.Report = &rep
			got, err := json.MarshalIndent(&out, "", "  ")
			if err != nil {
				t.Fatal(err)
			}
			checkGolden(t, "dynamic_"+name+".json", append(got, '\n'))
		})
	}
}

func checkGolden(t *testing.T, name string, got []byte) {
	t.Helper()
	path := filepath.Join("testdata", name+".golden")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden file (run with -update to create): %v", err)
	}
	if string(got) != string(want) {
		t.Errorf("%s drifted from %s\n--- got ---\n%s--- want ---\n%s", name, path, got, want)
	}
}
