package randompeer

import (
	"bufio"
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"strings"
	"testing"
)

// TestCIPatternsNameFunctions reads every `go test` line of the
// Makefile and of CI's workflow, and holds each -run, -bench and -fuzz
// on it to the test functions of the packages on that line: each
// alternative of a pattern must match a function in one of them, and
// the whole pattern one in each, so that a renamed test cannot leave a
// CI step running nothing; a -fuzz name must match exactly one fuzz
// target in its package, as go test requires. '^$' (run nothing) is
// exempt.
func TestCIPatternsNameFunctions(t *testing.T) {
	t.Parallel()
	lines := goTestLines(t, "Makefile")
	lines = append(lines, goTestLines(t, filepath.Join(".github", "workflows", "ci.yml"))...)
	if len(lines) < 20 {
		t.Fatalf("found %d go test lines; the parser lost some", len(lines))
	}
	funcs := map[string][]string{} // package dir -> its test functions
	checked := 0
	for _, line := range lines {
		args := shellWords(line)
		dir, patterns, pkgs := ".", map[string]string{}, []string(nil)
		for i := 0; i < len(args); i++ {
			switch a := args[i]; {
			case a == "-C" && i+1 < len(args):
				dir = args[i+1]
				i++
			case (a == "-run" || a == "-bench" || a == "-fuzz") && i+1 < len(args):
				patterns[a] = args[i+1]
				i++
			case a == "." || strings.HasPrefix(a, "./"):
				pkgs = append(pkgs, expand(t, filepath.Join(dir, a))...)
			}
		}
		for flag, pattern := range patterns {
			if pattern == "^$" {
				continue
			}
			kinds := map[string][]string{"-run": {"Test", "Fuzz", "Example"}, "-bench": {"Benchmark"}, "-fuzz": {"Fuzz"}}[flag]
			alts := strings.Split(strings.Split(pattern, "/")[0], "|")
			matched := make([]bool, len(alts))
			for _, pkg := range pkgs {
				if _, ok := funcs[pkg]; !ok {
					funcs[pkg] = testFuncs(t, pkg)
				}
				any, fuzz := false, 0
				for _, f := range funcs[pkg] {
					if !slices.ContainsFunc(kinds, func(k string) bool { return strings.HasPrefix(f, k) }) {
						continue
					}
					for j, alt := range alts {
						if regexp.MustCompile(alt).MatchString(f) {
							matched[j], any = true, true
							if flag == "-fuzz" {
								fuzz++
							}
						}
					}
				}
				if !any {
					t.Errorf("%s %q matches no function in %s: %s", flag, pattern, pkg, line)
				} else if flag == "-fuzz" && fuzz != 1 {
					t.Errorf("-fuzz %q matches %d fuzz targets in %s: %s", pattern, fuzz, pkg, line)
				}
			}
			for j, ok := range matched {
				if !ok {
					t.Errorf("%s alternative %q matches no function in %v: %s", flag, alts[j], pkgs, line)
				}
			}
			checked++
		}
	}
	if checked < 20 {
		t.Errorf("checked %d patterns; the parser lost some", checked)
	}
}

// goTestLines returns the `go test` command lines of a Makefile or
// workflow file, continuation lines joined and make's $$ unescaped.
func goTestLines(t *testing.T, path string) []string {
	t.Helper()
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	var out []string
	var cur string
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if strings.HasPrefix(line, "#") {
			continue
		}
		cur += line
		if strings.HasSuffix(cur, "\\") {
			cur = strings.TrimSuffix(cur, "\\") + " "
			continue
		}
		cur = strings.ReplaceAll(strings.ReplaceAll(cur, "$(GO)", "go"), "$$", "$")
		if i := strings.Index(cur, "go test "); i >= 0 {
			out = append(out, cur[i:])
		}
		cur = ""
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return out
}

// shellWords splits a command line into words, honouring single and
// double quotes.
func shellWords(line string) []string {
	var words []string
	var w strings.Builder
	var quote rune
	inWord := false
	for _, r := range line {
		switch {
		case quote != 0 && r == quote:
			quote = 0
		case quote != 0:
			w.WriteRune(r)
		case r == '\'' || r == '"':
			quote, inWord = r, true
		case r == ' ' || r == '\t':
			if inWord {
				words = append(words, w.String())
				w.Reset()
				inWord = false
			}
		default:
			w.WriteRune(r)
			inWord = true
		}
	}
	if inWord {
		words = append(words, w.String())
	}
	return words
}

// expand resolves a package argument to the directories it names: a
// trailing /... takes every directory below that holds Go tests.
func expand(t *testing.T, pkg string) []string {
	t.Helper()
	root, ok := strings.CutSuffix(pkg, string(filepath.Separator)+"...")
	if !ok {
		return []string{filepath.Clean(pkg)}
	}
	var dirs []string
	err := filepath.WalkDir(root, func(path string, d os.DirEntry, err error) error {
		if err != nil || !d.IsDir() {
			return err
		}
		if m, _ := filepath.Glob(filepath.Join(path, "*_test.go")); len(m) > 0 {
			dirs = append(dirs, path)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return dirs
}

// testFuncs returns the names of the top-level functions declared in
// the test files of a package directory.
func testFuncs(t *testing.T, dir string) []string {
	t.Helper()
	files, err := filepath.Glob(filepath.Join(dir, "*_test.go"))
	if err != nil || len(files) == 0 {
		t.Fatalf("package %s has no test files (%v)", dir, err)
	}
	var names []string
	fset := token.NewFileSet()
	for _, file := range files {
		f, err := parser.ParseFile(fset, file, nil, parser.SkipObjectResolution)
		if err != nil {
			t.Fatal(err)
		}
		for _, d := range f.Decls {
			if fd, ok := d.(*ast.FuncDecl); ok && fd.Recv == nil {
				names = append(names, fd.Name.Name)
			}
		}
	}
	return names
}
