package dfpr

import (
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// TestSurfaceGolden pins the configurable surface — engine options, serve
// options, prserve flags, ClusterConfig fields — against
// testdata/surface.golden. A knob stays only if a shipped caller (a command,
// serve, a benchmark workload, a CI job or a README recipe) sets it to
// something other than its default, so adding one fails here until the
// golden gains its line and, after the '#', who needs it.
func TestSurfaceGolden(t *testing.T) {
	var got []string
	add := func(kind string, names []string) {
		for _, n := range names {
			got = append(got, kind+" "+n)
		}
	}
	add("engine-option", withSetters(t, "options.go"))
	add("serve-option", withSetters(t, "serve/serve.go"))
	add("prserve-flag", flagNames(t, "cmd/prserve/main.go"))
	add("cluster-field", structFields(t, "cluster.go", "ClusterConfig"))
	sort.Strings(got)

	raw, err := os.ReadFile("testdata/surface.golden")
	if err != nil {
		t.Fatal(err)
	}
	var want []string
	for i, line := range strings.Split(string(raw), "\n") {
		entry, why, _ := strings.Cut(line, "#")
		if entry = strings.TrimSpace(entry); entry == "" {
			continue
		}
		if strings.TrimSpace(why) == "" {
			t.Errorf("surface.golden:%d: %q names no caller that needs it", i+1, entry)
		}
		want = append(want, strings.Join(strings.Fields(entry), " "))
	}
	sort.Strings(want)

	for _, g := range diff(got, want) {
		t.Errorf("%q is in the code but not in testdata/surface.golden: delete it, or add its line with the shipped caller that sets it", g)
	}
	for _, w := range diff(want, got) {
		t.Errorf("%q is in testdata/surface.golden but not in the code: drop the line", w)
	}
}

// diff returns the entries of a (sorted) missing from b (sorted).
func diff(a, b []string) []string {
	var out []string
	for _, s := range a {
		if i := sort.SearchStrings(b, s); i == len(b) || b[i] != s {
			out = append(out, s)
		}
	}
	return out
}

func parseFile(t *testing.T, path string) *ast.File {
	t.Helper()
	f, err := parser.ParseFile(token.NewFileSet(), path, nil, parser.SkipObjectResolution)
	if err != nil {
		t.Fatal(err)
	}
	return f
}

// withSetters lists the exported package-level With* functions of a file.
func withSetters(t *testing.T, path string) []string {
	var out []string
	for _, d := range parseFile(t, path).Decls {
		if fn, ok := d.(*ast.FuncDecl); ok && fn.Recv == nil && strings.HasPrefix(fn.Name.Name, "With") {
			out = append(out, fn.Name.Name)
		}
	}
	return out
}

// flagNames lists the name argument of every flag.<Type>("name", …) call.
func flagNames(t *testing.T, path string) []string {
	var out []string
	ast.Inspect(parseFile(t, path), func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok || len(call.Args) < 3 {
			return true
		}
		sel, ok := call.Fun.(*ast.SelectorExpr)
		if !ok {
			return true
		}
		if pkg, ok := sel.X.(*ast.Ident); !ok || pkg.Name != "flag" {
			return true
		}
		if lit, ok := call.Args[0].(*ast.BasicLit); ok && lit.Kind == token.STRING {
			name, err := strconv.Unquote(lit.Value)
			if err != nil {
				t.Fatalf("%s: flag name %s: %v", path, lit.Value, err)
			}
			out = append(out, "-"+name)
		}
		return true
	})
	return out
}

// structFields lists the field names of a package-level struct type.
func structFields(t *testing.T, path, typeName string) []string {
	var out []string
	ast.Inspect(parseFile(t, path), func(n ast.Node) bool {
		ts, ok := n.(*ast.TypeSpec)
		if !ok || ts.Name.Name != typeName {
			return true
		}
		st, ok := ts.Type.(*ast.StructType)
		if !ok {
			t.Fatalf("%s: %s is not a struct", path, typeName)
		}
		for _, f := range st.Fields.List {
			for _, name := range f.Names {
				out = append(out, name.Name)
			}
		}
		return false
	})
	if len(out) == 0 {
		t.Fatalf("%s: no struct %s", path, typeName)
	}
	return out
}
