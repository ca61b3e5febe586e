package lint

import (
	"go/ast"
	"go/constant"
	"go/token"
	"go/types"
)

// TruncationAnalyzer flags int(x) / int32(x) conversions of wider
// integer values — the exact class that overflowed triggeredSpec and
// a since-deleted round-robin backend pick on GOARCH=386, where int is
// 32 bits.  A conversion is
// accepted when the operand is provably reduced first: a constant
// that fits, or a top-level % / & / &^ whose result the conversion
// cannot truncate further in the idiomatic counter-reduction pattern
// (reduce in uint64, then convert).  Conversions that are bounded for
// non-local reasons annotate the site with //fxlint:allow truncation
// and say why.
var TruncationAnalyzer = &Analyzer{
	Name: "truncation",
	Doc:  "forbid int/int32 conversions of 64-bit (or word-sized) counters unless reduced first; int is 32 bits on 386",
	Run:  runTruncation,
}

func runTruncation(pass *Pass) {
	for _, f := range pass.Pkg.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok || len(call.Args) != 1 {
				return true
			}
			tv, ok := pass.Pkg.Info.Types[call.Fun]
			if !ok || !tv.IsType() {
				return true
			}
			target, ok := tv.Type.Underlying().(*types.Basic)
			if !ok || (target.Kind() != types.Int && target.Kind() != types.Int32) {
				return true
			}
			arg := ast.Unparen(call.Args[0])
			atv, ok := pass.Pkg.Info.Types[arg]
			if !ok {
				return true
			}
			operand, ok := atv.Type.Underlying().(*types.Basic)
			if !ok {
				return true
			}
			switch operand.Kind() {
			case types.Int64, types.Uint64, types.Uint, types.Uintptr:
			default:
				return true
			}
			// A constant operand that fits in int32 cannot truncate.
			if atv.Value != nil {
				if v, exact := constant.Int64Val(atv.Value); exact && v >= -1<<31 && v < 1<<31 {
					return true
				}
			}
			// Reduction idiom: int(x % uint64(n)), int(x & mask).
			if be, ok := arg.(*ast.BinaryExpr); ok {
				switch be.Op {
				case token.REM, token.AND, token.AND_NOT:
					return true
				}
			}
			src := "a"
			if fromAtomic(pass, arg) {
				src = "an atomic"
			}
			pass.Reportf(call.Pos(),
				"%s(...) of %s %s value truncates on 32-bit platforms; reduce first (%% or & in the wide type) or annotate //fxlint:allow truncation with the bound",
				target.Name(), src, operand.Name())
			return true
		})
	}
}

// fromAtomic reports whether the expression is directly a sync/atomic
// load, add or swap, so the diagnostic can name the counter class.
func fromAtomic(pass *Pass, expr ast.Expr) bool {
	call, ok := ast.Unparen(expr).(*ast.CallExpr)
	if !ok {
		return false
	}
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return false
	}
	fn, ok := pass.Pkg.Info.Uses[sel.Sel].(*types.Func)
	return ok && fn.Pkg() != nil && fn.Pkg().Path() == "sync/atomic"
}
