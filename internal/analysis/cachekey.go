package analysis

import (
	"go/ast"
	"go/types"
	"sort"
	"strings"
)

// CacheKeyAnalyzer targets the cache-aliasing bug class that once hit
// the cross-section solve when a solver-selection input joined it: a
// solve input that is not folded into the cache key makes results that
// should differ alias to one cached entry. Three rules, all on
// production (non-test) code:
//
//   - composite literals of a cache-key struct type (a named struct
//     used as a map key reachable from a package-level variable) must
//     set every field explicitly. Deleting a field from the key
//     struct's construction site — that exact regression — then
//     fails the build here;
//   - a function taking a cache-key parameter may take only the key
//     (and a context): any extra parameter is a solve input flowing
//     around the key;
//   - at call sites of singleflight-style `do`/`get` methods on a
//     *cache-named receiver with a string key and a fill closure,
//     every variable the fill captures must be derivable from the key
//     (directly in the key expression, or connected to it through the
//     enclosing function's assignments and branch conditions).
//     Infrastructure captures (contexts, errors, http plumbing,
//     collectors, the cache receiver itself) are exempt.
var CacheKeyAnalyzer = &Analyzer{
	Name: "cachekey",
	Doc:  "require every solve input to be folded into cache keys: exhaustive key-struct literals, no key-bypassing parameters, fill closures capture only key-derived state",
	Run:  runCacheKey,
}

func runCacheKey(pass *Pass) {
	keys := cacheKeyTypes(pass.Pkg)
	for i, f := range pass.Pkg.Files {
		if pass.fileIsTest(i) {
			continue
		}
		checkKeyLiterals(pass, f, keys)
		checkKeyFuncParams(pass, f, keys)
		checkStringKeyFills(pass, f)
	}
}

// cacheKeyTypes finds the named struct types of this package that
// serve as map keys reachable from a package-level variable — the
// cache-key structs.
func cacheKeyTypes(pkg *Package) map[*types.Named]bool {
	out := make(map[*types.Named]bool)
	scope := pkg.Types.Scope()
	for _, name := range scope.Names() {
		v, ok := scope.Lookup(name).(*types.Var)
		if !ok {
			continue
		}
		collectMapKeyStructs(v.Type(), out, make(map[types.Type]bool))
	}
	for named := range out {
		if named.Obj().Pkg() != pkg.Types {
			delete(out, named)
		}
	}
	return out
}

// collectMapKeyStructs walks t and records named struct types used as
// map keys anywhere inside it.
func collectMapKeyStructs(t types.Type, out map[*types.Named]bool, seen map[types.Type]bool) {
	if t == nil || seen[t] {
		return
	}
	seen[t] = true
	switch u := t.Underlying().(type) {
	case *types.Map:
		if named, ok := u.Key().(*types.Named); ok {
			if _, isStruct := named.Underlying().(*types.Struct); isStruct {
				out[named] = true
			}
		}
		collectMapKeyStructs(u.Elem(), out, seen)
	case *types.Struct:
		for i := 0; i < u.NumFields(); i++ {
			collectMapKeyStructs(u.Field(i).Type(), out, seen)
		}
	case *types.Pointer:
		collectMapKeyStructs(u.Elem(), out, seen)
	case *types.Slice:
		collectMapKeyStructs(u.Elem(), out, seen)
	case *types.Array:
		collectMapKeyStructs(u.Elem(), out, seen)
	}
}

// checkKeyLiterals requires keyed composite literals of cache-key
// structs to set every field. (A positional literal is already
// exhaustive or it would not compile.)
func checkKeyLiterals(pass *Pass, f *ast.File, keys map[*types.Named]bool) {
	info := pass.Pkg.Info
	ast.Inspect(f, func(n ast.Node) bool {
		lit, ok := n.(*ast.CompositeLit)
		if !ok {
			return true
		}
		tv, ok := info.Types[lit]
		if !ok {
			return true
		}
		named, ok := tv.Type.(*types.Named)
		if !ok || !keys[named] {
			return true
		}
		st, ok := named.Underlying().(*types.Struct)
		if !ok {
			return true
		}
		if len(lit.Elts) > 0 {
			if _, kv := lit.Elts[0].(*ast.KeyValueExpr); !kv {
				return true
			}
		}
		present := make(map[string]bool)
		for _, e := range lit.Elts {
			if kv, ok := e.(*ast.KeyValueExpr); ok {
				if id, ok := kv.Key.(*ast.Ident); ok {
					present[id.Name] = true
				}
			}
		}
		var missing []string
		for i := 0; i < st.NumFields(); i++ {
			if fld := st.Field(i); !present[fld.Name()] {
				missing = append(missing, fld.Name())
			}
		}
		if len(missing) > 0 {
			sort.Strings(missing)
			pass.Reportf(lit.Pos(),
				"cache key %s literal omits %s; solves differing in an omitted field alias to one cached result — set every field explicitly",
				named.Obj().Name(), strings.Join(missing, ", "))
		}
		return true
	})
}

// checkKeyFuncParams flags functions that take a cache-key parameter
// alongside non-key, non-context parameters: extra inputs flow around
// the key.
func checkKeyFuncParams(pass *Pass, f *ast.File, keys map[*types.Named]bool) {
	info := pass.Pkg.Info
	isKeyField := func(field *ast.Field) bool {
		tv, ok := info.Types[field.Type]
		if !ok {
			return false
		}
		t := tv.Type
		if p, isPtr := t.(*types.Pointer); isPtr {
			t = p.Elem()
		}
		named, isNamed := t.(*types.Named)
		return isNamed && keys[named]
	}
	for _, decl := range f.Decls {
		fn, ok := decl.(*ast.FuncDecl)
		if !ok || fn.Type.Params == nil {
			continue
		}
		var keyName string
		for _, field := range fn.Type.Params.List {
			if isKeyField(field) {
				tv := info.Types[field.Type]
				t := tv.Type
				if p, isPtr := t.(*types.Pointer); isPtr {
					t = p.Elem()
				}
				keyName = t.(*types.Named).Obj().Name()
				break
			}
		}
		if keyName == "" {
			continue
		}
		for _, field := range fn.Type.Params.List {
			if isKeyField(field) {
				continue
			}
			tv, ok := info.Types[field.Type]
			if ok && isContextType(tv.Type) {
				continue
			}
			pass.Reportf(field.Pos(),
				"parameter %s of %s bypasses cache key %s; a solve input outside the key makes cached results alias — fold it into the key struct",
				fieldNames(field), fn.Name.Name, keyName)
		}
	}
}

// fieldNames renders a parameter field's name list (or its type for
// unnamed parameters).
func fieldNames(field *ast.Field) string {
	if len(field.Names) == 0 {
		return types.ExprString(field.Type)
	}
	names := make([]string, len(field.Names))
	for i, n := range field.Names {
		names[i] = n.Name
	}
	return strings.Join(names, ", ")
}

// cacheDoNames are the singleflight entry points the fill-coverage
// rule recognizes.
var cacheDoNames = map[string]bool{"do": true, "Do": true, "get": true, "Get": true}

// checkStringKeyFills checks fill-closure capture coverage at
// cache.do(...)-style call sites.
func checkStringKeyFills(pass *Pass, f *ast.File) {
	for _, decl := range f.Decls {
		fn, ok := decl.(*ast.FuncDecl)
		if !ok || fn.Body == nil {
			continue
		}
		var calls []*ast.CallExpr
		ast.Inspect(fn.Body, func(n ast.Node) bool {
			if call, ok := n.(*ast.CallExpr); ok {
				calls = append(calls, call)
			}
			return true
		})
		for _, call := range calls {
			checkFillCoverage(pass, fn, call)
		}
	}
}

func checkFillCoverage(pass *Pass, fn *ast.FuncDecl, call *ast.CallExpr) {
	info := pass.Pkg.Info
	sel, ok := unparen(call.Fun).(*ast.SelectorExpr)
	if !ok || !cacheDoNames[sel.Sel.Name] {
		return
	}
	recvT := typeOf(info, sel.X)
	if recvT == nil {
		return
	}
	if p, isPtr := recvT.(*types.Pointer); isPtr {
		recvT = p.Elem()
	}
	named, ok := recvT.(*types.Named)
	if !ok || !strings.Contains(strings.ToLower(named.Obj().Name()), "cache") {
		return
	}
	var keyExpr ast.Expr
	var fill *ast.FuncLit
	for _, arg := range call.Args {
		if keyExpr == nil {
			if t := typeOf(info, arg); t != nil {
				if b, ok := t.Underlying().(*types.Basic); ok && b.Info()&types.IsString != 0 {
					keyExpr = arg
				}
			}
		}
		if fill == nil {
			if fl, ok := unparen(arg).(*ast.FuncLit); ok {
				fill = fl
			}
		}
	}
	if keyExpr == nil || fill == nil {
		return
	}
	recvRoot := rootObject(info, sel.X)

	// Free variables of the fill: used inside, declared in the
	// enclosing function but outside the closure.
	type capture struct {
		v  *types.Var
		id *ast.Ident
	}
	var free []capture
	seen := make(map[*types.Var]bool)
	ast.Inspect(fill.Body, func(n ast.Node) bool {
		id, ok := n.(*ast.Ident)
		if !ok {
			return true
		}
		v, ok := info.Uses[id].(*types.Var)
		if !ok || v.IsField() || seen[v] {
			return true
		}
		if v.Pos() < fn.Pos() || v.Pos() > fn.End() {
			return true // package-level state, checked by concurrency
		}
		if v.Pos() >= fill.Pos() && v.Pos() <= fill.End() {
			return true // the closure's own declarations
		}
		if v == recvRoot || exemptCaptureType(v.Type()) {
			return true
		}
		seen[v] = true
		free = append(free, capture{v, id})
		return true
	})
	if len(free) == 0 {
		return
	}

	covered := coveredByKey(info, fn, keyExpr)
	for _, c := range free {
		if covered[c.v] {
			continue
		}
		pass.Reportf(c.id.Pos(),
			"cache fill captures %s, which the cache key does not cover; results differing in %s alias to one cached entry — fold it into the key",
			c.v.Name(), c.v.Name())
	}
}

// exemptCaptureType reports whether a captured value of type t cannot
// change the cached result: plumbing (contexts, errors, functions,
// http types, sync primitives) and telemetry collectors.
func exemptCaptureType(t types.Type) bool {
	if t == nil || isContextType(t) || isErrorType(t) {
		return true
	}
	if _, isFunc := t.Underlying().(*types.Signature); isFunc {
		return true
	}
	u := t
	if p, ok := u.(*types.Pointer); ok {
		u = p.Elem()
	}
	named, ok := u.(*types.Named)
	if !ok || named.Obj().Pkg() == nil {
		return false
	}
	switch path := named.Obj().Pkg().Path(); {
	case path == "net/http" || path == "testing" || path == "sync" || path == "time":
		return true
	case path == "internal/obs" || strings.HasSuffix(path, "/internal/obs"):
		return true
	}
	return false
}

// coveredByKey computes the set of variables derivable from the cache
// key expression: its own variables, closed under the enclosing
// function's data flow — co-assigned variables, assignment sources of
// covered targets, branch conditions guarding assignments, and
// variables fully determined by covered inputs.
func coveredByKey(info *types.Info, fn *ast.FuncDecl, keyExpr ast.Expr) map[types.Object]bool {
	covered := make(map[types.Object]bool)
	for _, o := range varsIn(info, keyExpr) {
		covered[o] = true
	}

	type link struct{ tgts, deps []types.Object }
	var links []link
	parents := buildParents(fn.Body)
	addLink := func(tgts []types.Object, depExprs []ast.Expr, at ast.Node) {
		if len(tgts) == 0 {
			return
		}
		var deps []types.Object
		for _, e := range depExprs {
			deps = append(deps, varsIn(info, e)...)
		}
		deps = append(deps, guardVars(info, parents, at)...)
		links = append(links, link{tgts, deps})
	}
	ast.Inspect(fn.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			var tgts []types.Object
			for _, l := range n.Lhs {
				if o := rootObject(info, l); o != nil {
					tgts = append(tgts, o)
				}
			}
			addLink(tgts, n.Rhs, n)
		case *ast.RangeStmt:
			var tgts []types.Object
			for _, e := range []ast.Expr{n.Key, n.Value} {
				if id, ok := e.(*ast.Ident); ok && id.Name != "_" {
					if o := info.Defs[id]; o != nil {
						tgts = append(tgts, o)
					} else if o := info.Uses[id]; o != nil {
						tgts = append(tgts, o)
					}
				}
			}
			addLink(tgts, []ast.Expr{n.X}, n)
		case *ast.ValueSpec:
			var tgts []types.Object
			for _, id := range n.Names {
				if o := info.Defs[id]; o != nil {
					tgts = append(tgts, o)
				}
			}
			addLink(tgts, n.Values, n)
		}
		return true
	})

	for changed := true; changed; {
		changed = false
		for _, l := range links {
			anyTgt := false
			for _, t := range l.tgts {
				if covered[t] {
					anyTgt = true
					break
				}
			}
			if anyTgt {
				for _, o := range l.tgts {
					if !covered[o] {
						covered[o] = true
						changed = true
					}
				}
				for _, o := range l.deps {
					if !covered[o] {
						covered[o] = true
						changed = true
					}
				}
				continue
			}
			allDeps := true
			for _, d := range l.deps {
				if !covered[d] {
					allDeps = false
					break
				}
			}
			if allDeps {
				for _, t := range l.tgts {
					if !covered[t] {
						covered[t] = true
						changed = true
					}
				}
			}
		}
	}
	return covered
}

// guardVars collects the variables of every branch condition enclosing
// n inside the function body — the state that decides whether an
// assignment runs.
func guardVars(info *types.Info, parents map[ast.Node]ast.Node, n ast.Node) []types.Object {
	var out []types.Object
	for p := parents[n]; p != nil; p = parents[p] {
		switch p := p.(type) {
		case *ast.IfStmt:
			out = append(out, varsIn(info, p.Cond)...)
		case *ast.ForStmt:
			if p.Cond != nil {
				out = append(out, varsIn(info, p.Cond)...)
			}
		case *ast.SwitchStmt:
			if p.Tag != nil {
				out = append(out, varsIn(info, p.Tag)...)
			}
		case *ast.CaseClause:
			for _, e := range p.List {
				out = append(out, varsIn(info, e)...)
			}
		case *ast.RangeStmt:
			out = append(out, varsIn(info, p.X)...)
		}
	}
	return out
}

// varsIn collects the non-field variables referenced by e.
func varsIn(info *types.Info, e ast.Expr) []types.Object {
	var out []types.Object
	ast.Inspect(e, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok {
			if v, ok := info.Uses[id].(*types.Var); ok && !v.IsField() {
				out = append(out, v)
			}
		}
		return true
	})
	return out
}
