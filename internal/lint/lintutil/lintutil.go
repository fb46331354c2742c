// Package lintutil holds the type-resolution helpers shared by prlint's
// analyzers: resolving a call expression to the function it invokes,
// reading directive comments, and walking function bodies.
package lintutil

import (
	"go/ast"
	"go/types"
	"strings"
)

// CalleeFunc resolves the function or method a call expression statically
// invokes, or nil for calls through function values, builtins and
// conversions.
func CalleeFunc(info *types.Info, call *ast.CallExpr) *types.Func {
	var obj types.Object
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		obj = info.Uses[fun]
	case *ast.SelectorExpr:
		if sel, ok := info.Selections[fun]; ok {
			obj = sel.Obj()
		} else {
			obj = info.Uses[fun.Sel] // package-qualified call
		}
	}
	fn, _ := obj.(*types.Func)
	return fn
}

// HasDirective reports whether a function declaration's doc comment carries
// the given directive comment line (e.g. "//dfpr:hotpath").
func HasDirective(fd *ast.FuncDecl, directive string) bool {
	if fd.Doc == nil {
		return false
	}
	for _, c := range fd.Doc.List {
		text := strings.TrimSpace(c.Text)
		if text == directive || strings.HasPrefix(text, directive+" ") {
			return true
		}
	}
	return false
}

// ForEachFuncDecl calls fn for every function declaration with a body in
// the files.
func ForEachFuncDecl(files []*ast.File, fn func(fd *ast.FuncDecl)) {
	for _, f := range files {
		for _, decl := range f.Decls {
			if fd, ok := decl.(*ast.FuncDecl); ok && fd.Body != nil {
				fn(fd)
			}
		}
	}
}

// IsErrorType reports whether t is the error interface or a named type
// whose underlying type is an interface satisfying error.
func IsErrorType(t types.Type) bool {
	if t == nil {
		return false
	}
	return types.AssignableTo(t, types.Universe.Lookup("error").Type()) &&
		types.IsInterface(t.Underlying())
}
