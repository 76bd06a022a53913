package analysis

import (
	"path/filepath"
	"testing"
)

// TestLoadTreeTestImportCycle loads a tree in which a's in-package test
// imports b and b's in-package test imports a. `go vet` accepts it,
// because an importer compiles only a package's non-test files; the
// loader must too, and must still analyse each package with its tests.
// a's empty literal of b's Default-constructed type also checks that
// zerosentinel matches types across the two variants of b.
func TestLoadTreeTestImportCycle(t *testing.T) {
	root := filepath.Join("testdata", "cycle")
	mod, err := LoadTree(root, "cycle")
	if err != nil {
		t.Fatalf("loading %s: %v", root, err)
	}
	var got []string
	for _, pkg := range mod.Pkgs {
		got = append(got, pkg.Path)
		if len(pkg.Files) != 2 {
			t.Errorf("%s: analysed %d files, want the package and its test", pkg.Path, len(pkg.Files))
		}
	}
	if len(got) != 2 || got[0] != "cycle/a" || got[1] != "cycle/b" {
		t.Fatalf("units %v, want [cycle/a cycle/b]", got)
	}
	diags := Run(mod, Analyzers())
	if len(diags) != 1 || diags[0].Analyzer != "zerosentinel" || filepath.Base(diags[0].Pos.Filename) != "a.go" {
		t.Fatalf("diagnostics %v, want one zerosentinel finding in a.go", diags)
	}
}
