// Package encodepure defines an Analyzer that checks the purity of
// encode paths: every method named MarshalBinary or Encode must be a
// deterministic, read-only function of summary state.
//
// The mergeability contract needs byte-identical encodings for equal
// states — snapshot caching, the wire protocol's frame dedup and the
// shuffle-invariance tests all compare encoded bytes. PR 4 caught a
// marshal-time RNG draw with runtime fuzzing; this pass makes the
// property static. For each encode method it reports:
//
//   - writes to receiver state (field assignments, in-place sorts of
//     receiver-rooted data, calls to same-package methods that write
//     the receiver),
//   - RNG draws (gen.RNG draw methods, math/rand) reached directly or
//     through same-package helpers — persisting rng.State() is the
//     pure alternative and stays clean,
//   - wall-clock reads (time.Now, time.Since),
//   - map iteration feeding codec.Buffer writes from inside the loop,
//     whose nondeterministic order becomes wire order; collect-sort-
//     write loops are clean.
//
// A method may opt out with a `//sketch:encodemutates` doc-comment
// line, documenting why mutation is safe (e.g. an idempotent
// canonicalization under exclusive access).
package encodepure

import (
	"go/ast"
	"go/types"
	"strings"

	"repro/internal/analysis"
	"repro/internal/analysis/flow"
)

// Analyzer is the encodepure pass.
var Analyzer = &analysis.Analyzer{
	Name: "encodepure",
	Doc: `check that Encode/MarshalBinary paths are pure and deterministic

Flags receiver-state writes, RNG draws, wall-clock reads and
map-iteration order feeding encoded bytes, in encode methods and the
same-package helpers they call. Opt out per method with
//sketch:encodemutates.`,
	Run: run,
}

func run(pass *analysis.Pass) error {
	in := flow.Of(pass)
	for fn, fd := range in.Funcs {
		if fd.Recv == nil {
			continue
		}
		if name := fn.Name(); name != "MarshalBinary" && name != "Encode" {
			continue
		}
		if flow.HasAnnotation(fd, "//sketch:encodemutates") {
			continue
		}
		check(pass, in, fd)
	}
	return nil
}

// check walks one encode method, reporting local impurities and
// impure same-package callees (whose summaries already fold their own
// transitive callees).
func check(pass *analysis.Pass, in *flow.Info, fd *ast.FuncDecl) {
	recv := flow.RecvIdent(fd)
	var recvObj types.Object
	if recv != nil {
		recvObj = in.TypesInfo.Defs[recv]
	}
	rootsAtRecv := func(e ast.Expr) bool {
		id := flow.RootIdent(e)
		return id != nil && recvObj != nil && in.ObjOf(id) == recvObj
	}

	ast.Inspect(fd.Body, func(n ast.Node) bool {
		switch x := n.(type) {
		case *ast.FuncLit:
			// sort.Slice comparators and the like: reads are fine,
			// and writes inside them are caught by the enclosing
			// call's argument check.
			return true
		case *ast.AssignStmt:
			for _, lhs := range x.Lhs {
				if isWriteTarget(lhs) && rootsAtRecv(lhs) {
					pass.Reportf(lhs.Pos(), "encode path writes receiver state (%s)", types.ExprString(lhs))
				}
			}
		case *ast.IncDecStmt:
			if isWriteTarget(x.X) && rootsAtRecv(x.X) {
				pass.Reportf(x.Pos(), "encode path writes receiver state (%s)", types.ExprString(x.X))
			}
		case *ast.RangeStmt:
			if in.IsMapType(x.X) && in.RangeFeedsBuffer(x) {
				pass.Reportf(x.Pos(), "map iteration order feeds encoded bytes; collect and sort keys before writing")
			}
		case *ast.CallExpr:
			checkCall(pass, in, x, rootsAtRecv)
		}
		return true
	})
}

// isWriteTarget filters assignment targets to those that store into
// the receiver's memory: a field, an element, or a dereference. A
// plain `s := ...` rebinding a local named like the receiver is not a
// receiver write (rootsAtRecv distinguishes by object identity
// anyway); a bare receiver ident on the LHS (shadow-free `d = other`)
// is only possible for value receivers, where it is local.
func isWriteTarget(e ast.Expr) bool {
	switch e.(type) {
	case *ast.SelectorExpr, *ast.IndexExpr, *ast.StarExpr:
		return true
	}
	return false
}

// checkCall classifies one call inside an encode method.
func checkCall(pass *analysis.Pass, in *flow.Info, call *ast.CallExpr, rootsAtRecv func(ast.Expr) bool) {
	name := flow.CalleeName(call)
	fn := in.Callee(call)

	// In-place mutators applied to receiver-rooted data.
	if fn != nil && flow.IsInPlaceSort(fn) {
		if len(call.Args) > 0 && rootsAtRecv(call.Args[0]) {
			pass.Reportf(call.Pos(), "encode path sorts receiver state in place (%s.%s); sort a copy", fn.Pkg().Path(), name)
		}
	}
	if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok && (id.Name == "clear" || id.Name == "delete") && fn == nil {
		if len(call.Args) > 0 && rootsAtRecv(call.Args[0]) {
			pass.Reportf(call.Pos(), "encode path mutates receiver state (%s)", id.Name)
		}
	}

	// Direct impurities.
	if fn != nil {
		pkg := ""
		if fn.Pkg() != nil {
			pkg = fn.Pkg().Path()
		}
		if pkg == "time" && (name == "Now" || name == "Since") {
			pass.Reportf(call.Pos(), "encode path reads the wall clock (time.%s)", name)
		}
		if pkg == "math/rand" || pkg == "math/rand/v2" {
			pass.Reportf(call.Pos(), "encode path draws randomness (rand.%s)", name)
		}
	}
	if fn != nil && isDrawMethod(fn, name) {
		pass.Reportf(call.Pos(), "encode path draws randomness (%s.%s); persist rng.State() instead", flow.RecvTypeName(fn), name)
	}

	// Same-package callees, one summary lookup deep (summaries are
	// already transitive within the package).
	callee, cs := in.FuncOf(call)
	if cs == nil {
		return
	}
	if cs.WritesRecv {
		if root := flow.RecvRoot(call); root != nil && rootsAtRecv(root) {
			pass.Reportf(call.Pos(), "encode path calls %s, which writes receiver state", callee.Name())
		}
	}
	if cs.Draws {
		pass.Reportf(call.Pos(), "encode path reaches an RNG draw (%s) via %s", cs.DrawName, callee.Name())
	}
	if cs.Clock {
		pass.Reportf(call.Pos(), "encode path reaches a wall-clock read via %s", callee.Name())
	}
	if cs.MapRangeEncode {
		pass.Reportf(call.Pos(), "encode path reaches order-dependent map iteration via %s", callee.Name())
	}
}

// isDrawMethod reports draw-named methods on gen-package RNG types.
func isDrawMethod(fn *types.Func, name string) bool {
	if !flow.IsDrawName(name) {
		return false
	}
	path := flow.RecvTypePkgPath(fn)
	return path == "gen" || strings.HasSuffix(path, "/gen")
}
