// Module loading for the analysis suite.
//
// ooclint deliberately avoids golang.org/x/tools (the repo has zero
// external dependencies), so this file implements the minimal loader
// the analyzers need: walk a module root, parse every package with
// go/parser, and type-check the packages in dependency order with a
// module-aware types.Importer. Standard-library imports are resolved
// from source via go/importer, so the loader works without compiled
// export data.
//
// Like `go vet`, the loader type-checks a package with in-package
// _test.go files twice: an importer sees only the non-test files, as
// `go build` compiles them, and the analyzers see the package with its
// tests. So package a's tests may import b while b's tests import a.
// An external test package imports the non-test variant of its own
// package too, so it cannot use identifiers that only the in-package
// test files declare.
package analysis

import (
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// Package is one type-checked compilation unit: a package's source
// files (including in-package _test.go files) or an external _test
// package.
type Package struct {
	// Path is the import path ("ooc/internal/fluid"). External test
	// packages get the suffix ".test" and are not importable.
	Path string
	// Name is the package name from the package clauses.
	Name string
	// Dir is the absolute directory the files live in.
	Dir string
	// Files are the parsed files, parallel to Filenames.
	Files     []*ast.File
	Filenames []string
	// Types and Info hold the go/types results.
	Types *types.Package
	Info  *types.Info
	// Test reports whether this unit is an external _test package.
	Test bool
}

// Module is a loaded Go module: every package under the root,
// type-checked against a shared FileSet.
type Module struct {
	// Root is the absolute module root (the directory with go.mod).
	Root string
	// Path is the module path from go.mod.
	Path string
	Fset *token.FileSet
	// Pkgs is sorted by import path, external test units last.
	Pkgs []*Package
}

// LoadModule loads the module rooted at root (its go.mod names the
// module path).
func LoadModule(root string) (*Module, error) {
	abs, err := filepath.Abs(root)
	if err != nil {
		return nil, err
	}
	modPath, err := modulePath(filepath.Join(abs, "go.mod"))
	if err != nil {
		return nil, err
	}
	return LoadTree(abs, modPath)
}

// LoadTree loads every package under root as if root were the root of
// a module named modPath. Tests use it to load fixture trees that are
// not real modules (testdata/src with modPath "fixture").
func LoadTree(root, modPath string) (*Module, error) {
	abs, err := filepath.Abs(root)
	if err != nil {
		return nil, err
	}
	ld := &loader{
		mod:   &Module{Root: abs, Path: modPath, Fset: token.NewFileSet()},
		libs:  make(map[string]*Package),
		state: make(map[string]int),
		files: make(map[string][]parsed),
	}
	ld.std = importer.ForCompiler(ld.mod.Fset, "source", nil)
	dirs, err := goDirs(abs)
	if err != nil {
		return nil, err
	}
	for _, dir := range dirs {
		if err := ld.loadDir(dir); err != nil {
			return nil, err
		}
	}
	sort.Slice(ld.mod.Pkgs, func(i, j int) bool {
		a, b := ld.mod.Pkgs[i], ld.mod.Pkgs[j]
		if a.Test != b.Test {
			return !a.Test
		}
		return a.Path < b.Path
	})
	return ld.mod, nil
}

// modulePath extracts the module path from a go.mod file.
func modulePath(gomod string) (string, error) {
	data, err := os.ReadFile(gomod)
	if err != nil {
		return "", err
	}
	for _, line := range strings.Split(string(data), "\n") {
		line = strings.TrimSpace(line)
		if rest, ok := strings.CutPrefix(line, "module"); ok {
			p := strings.TrimSpace(rest)
			p = strings.Trim(p, `"`)
			if p != "" {
				return p, nil
			}
		}
	}
	return "", fmt.Errorf("analysis: no module path in %s", gomod)
}

// goDirs returns every directory under root that contains .go files,
// skipping testdata, hidden and VCS directories.
func goDirs(root string) ([]string, error) {
	var dirs []string
	err := filepath.WalkDir(root, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			name := d.Name()
			if path != root && (name == "testdata" || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")) {
				return filepath.SkipDir
			}
			return nil
		}
		if strings.HasSuffix(d.Name(), ".go") {
			dir := filepath.Dir(path)
			if len(dirs) == 0 || dirs[len(dirs)-1] != dir {
				dirs = append(dirs, dir)
			}
		}
		return nil
	})
	sort.Strings(dirs)
	// WalkDir interleaves a directory's files with its subdirectories,
	// so the same dir can be appended more than once — dedupe.
	uniq := dirs[:0]
	for _, d := range dirs {
		if len(uniq) == 0 || uniq[len(uniq)-1] != d {
			uniq = append(uniq, d)
		}
	}
	return uniq, err
}

const (
	stateUnloaded = iota
	stateLoading
	stateLoaded
)

type loader struct {
	mod   *Module
	std   types.Importer
	libs  map[string]*Package // import path → non-test unit, as importers see it
	state map[string]int      // import path → load state of libs (cycle guard)
	files map[string][]parsed // directory → its parsed files
}

// importPath maps a directory under the module root to its import path.
func (ld *loader) importPath(dir string) string {
	rel, err := filepath.Rel(ld.mod.Root, dir)
	if err != nil || rel == "." {
		return ld.mod.Path
	}
	return ld.mod.Path + "/" + filepath.ToSlash(rel)
}

// dirFor inverts importPath for module-internal paths.
func (ld *loader) dirFor(path string) (string, bool) {
	if path == ld.mod.Path {
		return ld.mod.Root, true
	}
	if rest, ok := strings.CutPrefix(path, ld.mod.Path+"/"); ok {
		return filepath.Join(ld.mod.Root, filepath.FromSlash(rest)), true
	}
	return "", false
}

// Import implements types.Importer over module-internal and stdlib
// packages.
func (ld *loader) Import(path string) (*types.Package, error) {
	dir, ok := ld.dirFor(path)
	if !ok {
		return ld.std.Import(path)
	}
	if pkg, ok := ld.libs[path]; ok {
		return pkg.Types, nil
	}
	if ld.state[path] == stateLoading {
		return nil, fmt.Errorf("import cycle through %q", path)
	}
	if err := ld.loadLib(dir); err != nil {
		return nil, err
	}
	pkg, ok := ld.libs[path]
	if !ok {
		return nil, fmt.Errorf("no Go package in %q", path)
	}
	return pkg.Types, nil
}

// parsed is one parsed file grouped by package clause.
type parsed struct {
	name string
	file *ast.File
	path string
}

// parseDir parses the .go files of dir once; later calls return the
// same files.
func (ld *loader) parseDir(dir string) ([]parsed, error) {
	if out, ok := ld.files[dir]; ok {
		return out, nil
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var out []parsed
	for _, e := range entries {
		if e.IsDir() || !strings.HasSuffix(e.Name(), ".go") {
			continue
		}
		fname := filepath.Join(dir, e.Name())
		f, err := parser.ParseFile(ld.mod.Fset, fname, nil, parser.ParseComments)
		if err != nil {
			return nil, err
		}
		out = append(out, parsed{name: f.Name.Name, file: f, path: fname})
	}
	ld.files[dir] = out
	return out, nil
}

// loadDir records the units of one directory for analysis: its package
// with the in-package test files, and its external _test package.
func (ld *loader) loadDir(dir string) error {
	if err := ld.loadLib(dir); err != nil {
		return err
	}
	files, err := ld.parseDir(dir)
	if err != nil {
		return err
	}
	primary := primaryName(files)
	var unit, external []parsed
	for _, p := range files {
		switch {
		case p.name == primary:
			unit = append(unit, p)
		case strings.HasSuffix(p.name, "_test") && (primary == "" || p.name == primary+"_test"):
			external = append(external, p)
		}
	}
	path := ld.importPath(dir)
	if len(unit) > 0 {
		pkg := ld.libs[path]
		if pkg == nil || len(pkg.Files) < len(unit) {
			if pkg, err = ld.check(path, primary, dir, unit, false); err != nil {
				return err
			}
		}
		ld.mod.Pkgs = append(ld.mod.Pkgs, pkg)
	}
	if len(external) > 0 {
		pkg, err := ld.check(path+".test", external[0].name, dir, external, true)
		if err != nil {
			return err
		}
		ld.mod.Pkgs = append(ld.mod.Pkgs, pkg)
	}
	return nil
}

// loadLib type-checks the non-test files of dir's package and records
// the result as the unit Import returns for its path.
func (ld *loader) loadLib(dir string) error {
	path := ld.importPath(dir)
	if ld.state[path] == stateLoaded {
		return nil
	}
	files, err := ld.parseDir(dir)
	if err != nil {
		return err
	}
	primary := primaryName(files)
	var lib []parsed
	for _, p := range files {
		if p.name == primary && !strings.HasSuffix(p.path, "_test.go") {
			lib = append(lib, p)
		}
	}
	if len(lib) == 0 {
		ld.state[path] = stateLoaded
		return nil
	}
	ld.state[path] = stateLoading
	pkg, err := ld.check(path, primary, dir, lib, false)
	ld.state[path] = stateLoaded
	if err != nil {
		return err
	}
	ld.libs[path] = pkg
	return nil
}

// primaryName picks the non-_test package name of a directory.
func primaryName(files []parsed) string {
	for _, p := range files {
		if !strings.HasSuffix(p.name, "_test") {
			return p.name
		}
	}
	return ""
}

// check runs the type checker over one unit.
func (ld *loader) check(path, name, dir string, unit []parsed, test bool) (*Package, error) {
	pkg := &Package{Path: path, Name: name, Dir: dir, Test: test}
	for _, p := range unit {
		pkg.Files = append(pkg.Files, p.file)
		pkg.Filenames = append(pkg.Filenames, p.path)
	}
	pkg.Info = &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
		Scopes:     make(map[ast.Node]*types.Scope),
	}
	var errs []error
	conf := types.Config{
		Importer: ld,
		Error:    func(err error) { errs = append(errs, err) },
	}
	tpkg, _ := conf.Check(path, ld.mod.Fset, pkg.Files, pkg.Info)
	if len(errs) > 0 {
		return nil, fmt.Errorf("type-checking %s: %w", path, errs[0])
	}
	pkg.Types = tpkg
	return pkg, nil
}
