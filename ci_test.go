package dfpr

import (
	"go/ast"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"strings"
	"testing"
)

// TestCIPatternsSelectTests checks every -run and -bench pattern in the CI
// workflow against the test functions of the packages its step names: each
// top-level '|' alternative must match at least one. `go test -run NoSuch`
// passes with "no tests to run", so a renamed test would otherwise turn its
// race or repeat step silently empty. '^$' (select nothing, beside -bench or
// -fuzz) is exempt.
func TestCIPatternsSelectTests(t *testing.T) {
	raw, err := os.ReadFile(".github/workflows/ci.yml")
	if err != nil {
		t.Fatal(err)
	}
	funcs := testFuncsByDir(t)
	for i, line := range strings.Split(string(raw), "\n") {
		_, cmd, ok := strings.Cut(line, "go test ")
		if !ok {
			continue
		}
		words := shellWords(cmd)
		var dirs []string
		for _, w := range words {
			if w == "." || strings.HasPrefix(w, "./") {
				dirs = append(dirs, filepath.Clean(w))
			}
		}
		if len(dirs) == 0 {
			dirs = []string{"."}
		}
		for j, w := range words {
			flag, val, eq := strings.Cut(w, "=")
			if !eq && j+1 < len(words) {
				val = words[j+1]
			}
			kinds, isPattern := map[string][]string{
				"-run":   {"Test", "Fuzz", "Example"},
				"-bench": {"Benchmark"},
			}[flag]
			if !isPattern || val == "^$" {
				continue
			}
			for _, alt := range topLevelAlternatives(val) {
				re, err := regexp.Compile(alt)
				if err != nil {
					t.Errorf("ci.yml:%d: %s %q: %v", i+1, flag, alt, err)
					continue
				}
				if !anyMatch(funcs, dirs, kinds, re) {
					t.Errorf("ci.yml:%d: %s alternative %q selects no test in %v", i+1, flag, alt, dirs)
				}
			}
		}
	}
}

// testFuncsByDir lists the package-level functions of this module's test
// files by package directory. Nested modules (benchmark/) and
// testdata trees are not part of `go test ./...` here and are skipped.
func testFuncsByDir(t *testing.T) map[string][]string {
	out := map[string][]string{}
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != "." && (d.Name() == "testdata" || strings.HasPrefix(d.Name(), ".")) {
				return filepath.SkipDir
			}
			if _, err := os.Stat(filepath.Join(path, "go.mod")); path != "." && err == nil {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, "_test.go") {
			return nil
		}
		for _, decl := range parseFile(t, path).Decls {
			if fn, ok := decl.(*ast.FuncDecl); ok && fn.Recv == nil {
				out[filepath.Dir(path)] = append(out[filepath.Dir(path)], fn.Name.Name)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// anyMatch reports whether re matches a function whose name starts with
// one of kinds in a package dirs name.
func anyMatch(funcs map[string][]string, dirs, kinds []string, re *regexp.Regexp) bool {
	for dir, names := range funcs {
		if !slices.ContainsFunc(dirs, func(pkg string) bool { return covers(pkg, dir) }) {
			continue
		}
		for _, name := range names {
			isKind := slices.ContainsFunc(kinds, func(k string) bool { return strings.HasPrefix(name, k) })
			if isKind && re.MatchString(name) {
				return true
			}
		}
	}
	return false
}

// covers reports whether the package argument pkg ("serve", "...",
// "internal/lint/...") names directory dir.
func covers(pkg, dir string) bool {
	if base, ok := strings.CutSuffix(pkg, "..."); ok {
		base = strings.TrimSuffix(base, "/")
		return base == "" || dir == base || strings.HasPrefix(dir, base+"/")
	}
	return pkg == dir
}

// topLevelAlternatives splits a pattern at the '|' outside parentheses:
// "A|B(C|D)" is A and B(C|D).
func topLevelAlternatives(p string) []string {
	var out []string
	depth, start := 0, 0
	for i, c := range p {
		switch c {
		case '(':
			depth++
		case ')':
			depth--
		case '|':
			if depth == 0 {
				out = append(out, p[start:i])
				start = i + 1
			}
		}
	}
	return append(out, p[start:])
}

// shellWords splits a command line into words, removing single and double
// quotes the way a shell would for the patterns the workflow writes.
func shellWords(s string) []string {
	var out []string
	var w strings.Builder
	inWord := false
	var quote rune
	for _, c := range s {
		switch {
		case quote != 0:
			if c == quote {
				quote = 0
			} else {
				w.WriteRune(c)
			}
		case c == '\'' || c == '"':
			quote, inWord = c, true
		case c == ' ' || c == '\t':
			if inWord {
				out = append(out, w.String())
				w.Reset()
				inWord = false
			}
		default:
			w.WriteRune(c)
			inWord = true
		}
	}
	if inWord {
		out = append(out, w.String())
	}
	return out
}
