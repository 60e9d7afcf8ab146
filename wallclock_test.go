package randompeer

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"testing"
)

// wallClockFuncs are the package time functions that read or wait on
// the host's clock.
var wallClockFuncs = []string{"Now", "Since", "Until", "Sleep", "After", "Tick", "NewTimer", "NewTicker", "AfterFunc"}

// wallClockExempt are the internal/ packages that run on real sockets
// and processes, where the host's clock is the only clock: deadlines,
// retries and process start-up.
var wallClockExempt = []string{"internal/wire", "internal/cluster"}

// wallClockAllowed names, by file and function, every other place that
// reads the host's clock, and why that cannot bend a simulated result.
var wallClockAllowed = map[string]string{
	"internal/sim/transport.go (*Transport).callTraced": "a traced hop's WallNanos: host time measured beside the virtual round trip, read only from the trace",
	"internal/simnet/direct.go (*Direct).callTraced":    "a traced hop's WallNanos: the only latency an in-process call has, read only from the trace",
	"internal/exp/scenario.go newScenario":              "the build wall a scenario reports; the scenario runs in virtual time",
	"internal/exp/exp_scale.go RunScaleScenario":        "the run wall the scale table reports beside its virtual-time results",
	"internal/exp/exp_scale.go RunStorageScale":         "the build wall the storage table reports beside its byte counts",
	"internal/exp/exp_slo.go RunSLOScenario":            "the run wall an SLO report states beside its virtual-time windows",
	"internal/exp/exp.go RunAll":                        "each experiment's elapsed time, printed under its table",
}

// TestWallClockOnlyWhereAllowed parses the non-test files of every
// internal/ package but the socket ones and fails on each use of a
// wall-clock function of package time outside wallClockAllowed: the
// overlays, the sampler and the simulator must take their time from
// the kernel's virtual clock, or two runs of one seed could differ. An
// allow-list entry that matches nothing fails too, so the list stays
// the list of what is there.
func TestWallClockOnlyWhereAllowed(t *testing.T) {
	t.Parallel()
	used := map[string]bool{}
	files := 0
	err := filepath.WalkDir("internal", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if slices.Contains(wallClockExempt, filepath.ToSlash(path)) {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		files++
		for _, use := range wallClockUses(t, path) {
			if _, ok := wallClockAllowed[use.where]; !ok {
				t.Errorf("%s: time.%s in %s; take time from the virtual clock, or add the function to wallClockAllowed with the reason", use.pos, use.name, use.where)
				continue
			}
			used[use.where] = true
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if files < 80 {
		t.Fatalf("parsed %d files; the walk lost some", files)
	}
	for where := range wallClockAllowed {
		if !used[where] {
			t.Errorf("wallClockAllowed names %s, which reads no wall clock; drop the entry", where)
		}
	}
}

// wallClockUse is one reference to a wall-clock function.
type wallClockUse struct {
	pos   token.Position
	name  string // the function of package time
	where string // "file function", as wallClockAllowed keys it
}

// wallClockUses returns every reference in the file to a function of
// wallClockFuncs, called or not, under whatever name the file imports
// package time as. A dot import of time is reported as a use.
func wallClockUses(t *testing.T, path string) []wallClockUse {
	t.Helper()
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
	if err != nil {
		t.Fatal(err)
	}
	file := filepath.ToSlash(path)
	timeName := ""
	for _, imp := range f.Imports {
		if p, _ := strconv.Unquote(imp.Path.Value); p == "time" {
			timeName = "time"
			if imp.Name != nil {
				timeName = imp.Name.Name
			}
		}
	}
	switch timeName {
	case "":
		return nil
	case ".":
		return []wallClockUse{{fset.Position(f.Package), "* (dot import)", file}}
	}
	var uses []wallClockUse
	scan := func(n ast.Node, fn string) {
		ast.Inspect(n, func(n ast.Node) bool {
			sel, ok := n.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			if x, ok := sel.X.(*ast.Ident); ok && x.Name == timeName && slices.Contains(wallClockFuncs, sel.Sel.Name) {
				uses = append(uses, wallClockUse{fset.Position(sel.Pos()), sel.Sel.Name, strings.TrimSpace(file + " " + fn)})
			}
			return true
		})
	}
	for _, decl := range f.Decls {
		fd, ok := decl.(*ast.FuncDecl)
		if !ok {
			scan(decl, "")
			continue
		}
		name := fd.Name.Name
		if fd.Recv != nil && len(fd.Recv.List) == 1 {
			recv := fd.Recv.List[0].Type
			star := ""
			if s, ok := recv.(*ast.StarExpr); ok {
				recv, star = s.X, "*"
			}
			if ix, ok := recv.(*ast.IndexExpr); ok {
				recv = ix.X
			}
			if id, ok := recv.(*ast.Ident); ok {
				name = "(" + star + id.Name + ")." + name
			}
		}
		scan(fd, name)
	}
	return uses
}
