package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// ZeroSentinelAnalyzer polices the zero-as-sentinel bug family PRs 2
// and 3 spent fixing: config structs whose zero values are meaningful
// (a 0 tolerance, a 0 sample count) must not be conjured from nothing
// or probed with `== 0` to mean "unset". A struct type T qualifies
// when its package declares a `DefaultT() T` constructor — the repo's
// signal that zero values need explicit defaults:
//
//   - an empty literal `T{}` silently picks the zero values; start
//     from DefaultT() (or `var x T` plus explicit fields, which reads
//     as a deliberate zero);
//   - comparing a field of T to zero with == treats a legal value as
//     a sentinel; validate ranges (`< 1`, `<= 0`) or fold the default
//     into DefaultT().
//
// Test files are skipped: tests construct partial configs on purpose.
var ZeroSentinelAnalyzer = &Analyzer{
	Name: "zerosentinel",
	Doc:  "require Default* constructors for config structs with meaningful zero values; flag empty literals and ==0 sentinel probes of their fields",
	Run:  runZeroSentinel,
}

func runZeroSentinel(pass *Pass) {
	defaults := defaultConstructors(pass.Module)
	if len(defaults) == 0 {
		return
	}
	for i, f := range pass.Pkg.Files {
		if pass.fileIsTest(i) {
			continue
		}
		checkZeroLiterals(pass, f, defaults)
		checkZeroProbes(pass, f, defaults)
	}
}

// defaultConstructors finds every `DefaultT() T` constructor in the
// module: a niladic function named Default<TypeName> returning exactly
// that named type from the same package. The map is keyed by typeKey,
// because a package with in-package tests is type-checked twice and its
// importers see the other *types.Named; the value is the qualified
// constructor name for messages.
func defaultConstructors(mod *Module) map[string]string {
	out := make(map[string]string)
	for _, pkg := range mod.Pkgs {
		if pkg.Test {
			continue
		}
		scope := pkg.Types.Scope()
		for _, name := range scope.Names() {
			fn, ok := scope.Lookup(name).(*types.Func)
			if !ok || !strings.HasPrefix(name, "Default") {
				continue
			}
			sig, ok := fn.Type().(*types.Signature)
			if !ok || sig.Recv() != nil || sig.Params().Len() != 0 || sig.Results().Len() != 1 {
				continue
			}
			t := sig.Results().At(0).Type()
			if p, isPtr := t.(*types.Pointer); isPtr {
				t = p.Elem()
			}
			named, ok := t.(*types.Named)
			if !ok {
				continue
			}
			obj := named.Obj()
			if obj.Pkg() != pkg.Types || obj.Name() != strings.TrimPrefix(name, "Default") {
				continue
			}
			out[typeKey(named)] = pkg.Name + "." + name
		}
	}
	return out
}

// typeKey names a package-level named type by import path and name,
// and returns "" for any other named type.
func typeKey(named *types.Named) string {
	obj := named.Obj()
	if obj.Pkg() == nil || obj.Parent() != obj.Pkg().Scope() {
		return ""
	}
	return obj.Pkg().Path() + "." + obj.Name()
}

// checkZeroLiterals flags empty composite literals of types that have
// a Default constructor, outside the constructor itself.
func checkZeroLiterals(pass *Pass, f *ast.File, defaults map[string]string) {
	info := pass.Pkg.Info
	ast.Inspect(f, func(n ast.Node) bool {
		fn, ok := n.(*ast.FuncDecl)
		if !ok || fn.Body == nil {
			return true
		}
		ast.Inspect(fn.Body, func(m ast.Node) bool {
			lit, ok := m.(*ast.CompositeLit)
			if !ok || len(lit.Elts) != 0 {
				return true
			}
			tv, ok := info.Types[lit]
			if !ok {
				return true
			}
			named, ok := tv.Type.(*types.Named)
			if !ok {
				return true
			}
			ctor, isDefault := defaults[typeKey(named)]
			if !isDefault {
				return true
			}
			// The constructor itself may build from the zero value.
			if strings.HasPrefix(ctor, pass.Pkg.Name+".") && fn.Name.Name == strings.TrimPrefix(ctor, pass.Pkg.Name+".") {
				return true
			}
			pass.Reportf(lit.Pos(),
				"empty %s literal relies on zero values that are meaningful here; construct via %s() and override fields",
				named.Obj().Name(), ctor)
			return true
		})
		return false
	})
}

// checkZeroProbes flags `x.Field == 0` sentinel probes on fields of
// Default-constructed types.
func checkZeroProbes(pass *Pass, f *ast.File, defaults map[string]string) {
	info := pass.Pkg.Info
	ast.Inspect(f, func(n ast.Node) bool {
		bin, ok := n.(*ast.BinaryExpr)
		if !ok || bin.Op != token.EQL {
			return true
		}
		sel, zero := sentinelProbe(info, bin.X, bin.Y)
		if sel == nil {
			sel, zero = sentinelProbe(info, bin.Y, bin.X)
		}
		if sel == nil || !zero {
			return true
		}
		t := typeOf(info, sel.X)
		if t == nil {
			return true
		}
		if p, isPtr := t.(*types.Pointer); isPtr {
			t = p.Elem()
		}
		named, ok := t.(*types.Named)
		if !ok {
			return true
		}
		ctor, isDefault := defaults[typeKey(named)]
		if !isDefault {
			return true
		}
		pass.Reportf(bin.Pos(),
			"%s == 0 treats a meaningful zero of %s.%s as \"unset\" (the sentinel-bug family); construct via %s() and validate ranges instead",
			types.ExprString(bin.X), named.Obj().Name(), sel.Sel.Name, ctor)
		return true
	})
}

// sentinelProbe matches the (selector, zero-literal) operand shape and
// reports whether rhs is the constant 0.
func sentinelProbe(info *types.Info, lhs, rhs ast.Expr) (*ast.SelectorExpr, bool) {
	sel, ok := unparen(lhs).(*ast.SelectorExpr)
	if !ok {
		return nil, false
	}
	if _, isVar := info.Uses[sel.Sel].(*types.Var); !isVar {
		return nil, false
	}
	v, isConst := constFloat(info, rhs)
	//ooclint:ignore floatcmp matching the literal 0 is exact by construction
	return sel, isConst && v == 0
}
