// Package regcomplete enforces registry completeness: every summary
// family the codec layer can ship must be dispatchable by name. A
// family is recognizable by its wire trio — an exported type whose
// pointer carries MarshalBinary, UnmarshalBinary and Merge — and any
// package declaring one must catalog it with registry.Register in the
// same package, so the server, the bench report and the public
// mergesum.Decode surface pick it up automatically.
//
// A type that deliberately stays out of the catalog (e.g. a variant
// sharing another family's wire tag) opts out by ending its doc comment
// with a "//sketch:unregistered" directive line, after text saying why.
// (gofmt moves directive lines to the end of a doc comment, so one
// placed mid-comment leaves the file unformatted.)
package regcomplete

import (
	"go/ast"
	"go/types"
	"strings"

	"repro/internal/analysis"
)

// Analyzer is the regcomplete pass.
var Analyzer = &analysis.Analyzer{
	Name: "regcomplete",
	Doc: `flag summary families missing from the registry catalog

A package exporting a type with the MarshalBinary/UnmarshalBinary/Merge
trio must register it via registry.Register (or mark the type's doc
comment with //sketch:unregistered and explain why); unregistered
families silently vanish from the server, bench and Decode surfaces.`,
	Run: run,
}

func run(pass *analysis.Pass) error {
	registered := registeredTypeNames(pass)
	scope := pass.Pkg.Scope()
	for _, name := range scope.Names() {
		obj, ok := scope.Lookup(name).(*types.TypeName)
		if !ok || !obj.Exported() || obj.IsAlias() {
			continue
		}
		named, ok := obj.Type().(*types.Named)
		if !ok {
			continue
		}
		if !hasWireTrio(named) {
			continue
		}
		if registered[name] || optedOut(pass, name) {
			continue
		}
		pass.Reportf(obj.Pos(), "type %s exports the MarshalBinary/UnmarshalBinary/Merge trio but is not cataloged via registry.Register; register the family or mark its doc comment with //sketch:unregistered", name)
	}
	return nil
}

// hasWireTrio reports whether *T carries the full wire contract:
// MarshalBinary() ([]byte, error), UnmarshalBinary([]byte) error and a
// Merge method.
func hasWireTrio(named *types.Named) bool {
	ms := types.NewMethodSet(types.NewPointer(named))
	for _, want := range [...]string{"MarshalBinary", "UnmarshalBinary", "Merge"} {
		if lookupMethod(ms, want) == nil {
			return false
		}
	}
	return true
}

func lookupMethod(ms *types.MethodSet, name string) *types.Func {
	for i := 0; i < ms.Len(); i++ {
		if f, ok := ms.At(i).Obj().(*types.Func); ok && f.Name() == name {
			return f
		}
	}
	return nil
}

// registeredTypeNames collects the local type names passed as the
// summary type argument of registry.Register calls in this package,
// whether the argument is written explicitly (Register[Summary](...))
// or inferred from the Spec literal.
func registeredTypeNames(pass *analysis.Pass) map[string]bool {
	out := make(map[string]bool)
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			sel := calleeSelector(call)
			if sel == nil || sel.Sel.Name != "Register" || !isRegistryPkg(pass, sel.X) {
				return true
			}
			// The instantiation map resolves the summary type argument
			// for both explicit and inferred calls.
			if inst, ok := pass.TypesInfo.Instances[sel.Sel]; ok && inst.TypeArgs.Len() > 0 {
				t := inst.TypeArgs.At(0)
				if ptr, ok := t.(*types.Pointer); ok {
					t = ptr.Elem()
				}
				if named, ok := t.(*types.Named); ok {
					out[named.Obj().Name()] = true
				}
			}
			return true
		})
	}
	return out
}

// calleeSelector unwraps a possibly-instantiated call expression down
// to its pkg.Func selector.
func calleeSelector(call *ast.CallExpr) *ast.SelectorExpr {
	fun := call.Fun
	switch e := fun.(type) {
	case *ast.IndexExpr:
		fun = e.X
	case *ast.IndexListExpr:
		fun = e.X
	}
	sel, _ := fun.(*ast.SelectorExpr)
	return sel
}

// isRegistryPkg reports whether expr names an imported package whose
// path ends in /registry (covering fixture stand-ins as well as
// repro/internal/registry).
func isRegistryPkg(pass *analysis.Pass, expr ast.Expr) bool {
	id, ok := expr.(*ast.Ident)
	if !ok {
		return false
	}
	pkgName, ok := pass.TypesInfo.Uses[id].(*types.PkgName)
	if !ok {
		return false
	}
	path := pkgName.Imported().Path()
	return path == "repro/internal/registry" || strings.HasSuffix(path, "/registry")
}

// optedOut reports whether the named type's doc comment carries the
// //sketch:unregistered escape hatch.
func optedOut(pass *analysis.Pass, typeName string) bool {
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			gd, ok := decl.(*ast.GenDecl)
			if !ok {
				continue
			}
			for _, spec := range gd.Specs {
				ts, ok := spec.(*ast.TypeSpec)
				if !ok || ts.Name.Name != typeName {
					continue
				}
				doc := ts.Doc
				if doc == nil {
					doc = gd.Doc
				}
				if doc == nil {
					continue
				}
				for _, c := range doc.List {
					if strings.Contains(c.Text, "sketch:unregistered") {
						return true
					}
				}
			}
		}
	}
	return false
}
