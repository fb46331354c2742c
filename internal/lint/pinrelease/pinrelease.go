// Package pinrelease defines an analyzer pairing snapshot pins with their
// releases.
//
// snapshot.Store.Pin(seq) marks a version's chain link (its sequence number
// and batch) as held by a reader: it stays resolvable after the retention
// ring trims past it, until a matching Release(seq). Pins nest and are
// counted, so a leaked pin is invisible — nothing crashes, the store just
// retains one more batch per leak forever and memory creeps. That failure
// mode is exactly the kind a machine should watch for.
//
// The analysis is lexical and intra-procedural: within one function body
// (closures are their own scopes), every call to Pin on a Store must have a
// companion Release on the same receiver expression with the same sequence
// expression. A deferred Release is exit-safe and always satisfies the
// pair. An explicit Release satisfies it only when no return statement
// sits between the Pin and the Release — an early return on that span
// leaks the pin on the error path, the classic bug.
//
// Protocols where the release legitimately lives in another function (the
// view ring pins a chain at publication and releases it at eviction) do not
// pair lexically; such a site carries //lint:allow pinrelease with a
// pointer to its releasing counterpart. A suppression is a documented
// ownership transfer, not an exemption.
package pinrelease

import (
	"go/ast"
	"go/token"
	"go/types"

	"dfpr/internal/lint/analysis"
	"dfpr/internal/lint/lintutil"
)

// Analyzer flags snapshot pins that have no dominating release.
var Analyzer = &analysis.Analyzer{
	Name: "pinrelease",
	Doc: "every snapshot.Store.Pin must be paired with a Release on all " +
		"paths (defer it, release before every return, or //lint:allow a " +
		"documented cross-function handoff)",
	Run: run,
}

func run(pass *analysis.Pass) (interface{}, error) {
	lintutil.ForEachFuncDecl(pass.Files, func(fd *ast.FuncDecl) {
		for _, scope := range scopes(fd.Body) {
			check(pass, fd.Name.Name, scope)
		}
	})
	return nil, nil
}

// scopes yields the function body plus each nested closure body; a pin
// taken inside a closure must be released inside it (or handed off).
func scopes(body *ast.BlockStmt) []*ast.BlockStmt {
	out := []*ast.BlockStmt{body}
	ast.Inspect(body, func(n ast.Node) bool {
		if fl, ok := n.(*ast.FuncLit); ok {
			out = append(out, fl.Body)
		}
		return true
	})
	return out
}

// site is one Pin or Release call: its receiver and sequence argument,
// rendered to source text for lexical pairing.
type site struct {
	pos      token.Pos
	recv     string
	seq      string
	deferred bool
}

func check(pass *analysis.Pass, fname string, body *ast.BlockStmt) {
	var pins, releases []site
	var returns []token.Pos
	var walk func(n ast.Node, inDefer bool)
	walk = func(n ast.Node, inDefer bool) {
		ast.Inspect(n, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.FuncLit:
				return false
			case *ast.ReturnStmt:
				returns = append(returns, n.Pos())
			case *ast.DeferStmt:
				walk(n.Call, true)
				return false
			case *ast.CallExpr:
				name, ok := storeCall(pass.TypesInfo, n)
				if !ok || len(n.Args) != 1 {
					return true
				}
				s := site{
					pos:      n.Pos(),
					recv:     lintutil.ExprString(lintutil.ReceiverExpr(n)),
					seq:      lintutil.ExprString(n.Args[0]),
					deferred: inDefer,
				}
				switch name {
				case "Pin":
					pins = append(pins, s)
				case "Release":
					releases = append(releases, s)
				}
			}
			return true
		})
	}
	walk(body, false)

	for _, pin := range pins {
		var matched, exitSafe bool
		for _, rel := range releases {
			if rel.recv != pin.recv || rel.seq != pin.seq {
				continue
			}
			matched = true
			if rel.deferred || rel.pos < pin.pos {
				// Deferred runs at every exit; a textually earlier release
				// is the loop idiom (release previous, pin next).
				exitSafe = true
				break
			}
			if !returnBetween(returns, pin.pos, rel.pos) {
				exitSafe = true
				break
			}
		}
		switch {
		case !matched:
			pass.Reportf(pin.pos, "%s pins %s.Pin(%s) with no matching Release(%s) in this function; defer the release, or //lint:allow pinrelease naming the releasing owner",
				fname, pin.recv, pin.seq, pin.seq)
		case !exitSafe:
			pass.Reportf(pin.pos, "%s releases Pin(%s) only after a return statement that can leak it; defer the release or release before every return",
				fname, pin.seq)
		}
	}
}

// returnBetween reports whether any return lies strictly between lo and hi.
func returnBetween(returns []token.Pos, lo, hi token.Pos) bool {
	for _, r := range returns {
		if r > lo && r < hi {
			return true
		}
	}
	return false
}

// storeCall reports whether call is Pin or Release on a snapshot Store,
// returning the method name. Matching is by receiver type name so fixtures
// can stub the store with local declarations.
func storeCall(info *types.Info, call *ast.CallExpr) (string, bool) {
	fn := lintutil.CalleeFunc(info, call)
	if fn == nil || (fn.Name() != "Pin" && fn.Name() != "Release") {
		return "", false
	}
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return "", false
	}
	t := sig.Recv().Type()
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok || named.Obj().Name() != "Store" {
		return "", false
	}
	return fn.Name(), true
}
