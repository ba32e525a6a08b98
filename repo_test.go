package stamp

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"sort"
	"strings"
	"testing"
)

// Checks on the repository as a whole: what the prose docs cite, what
// production code may name and which binaries cmd/ builds. They read
// the source tree from the module root, the bench/ module included.

// goFiles returns the repository's .go files, test files or the rest,
// skipping hidden directories (.git and build caches).
func goFiles(t *testing.T, tests bool) []string {
	t.Helper()
	var files []string
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != "." && strings.HasPrefix(d.Name(), ".") {
				return filepath.SkipDir
			}
			return nil
		}
		if strings.HasSuffix(path, ".go") && strings.HasSuffix(path, "_test.go") == tests {
			files = append(files, path)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return files
}

// TestDocsNameOnlyTestsThatExist: every Test, Benchmark or Fuzz function
// the prose docs cite is a top-level function of some _test.go file, so
// a rename cannot leave a dangling reference.
func TestDocsNameOnlyTestsThatExist(t *testing.T) {
	defined := map[string]bool{}
	fset := token.NewFileSet()
	for _, path := range goFiles(t, true) {
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			t.Fatal(err)
		}
		for _, decl := range f.Decls {
			if fn, ok := decl.(*ast.FuncDecl); ok && fn.Recv == nil {
				defined[fn.Name.Name] = true
			}
		}
	}
	cite := regexp.MustCompile(`\b(Test|Benchmark|Fuzz)[A-Z][A-Za-z0-9_]*`)
	for _, doc := range []string{"DESIGN.md", "EXPERIMENTS.md", "README.md"} {
		text, err := os.ReadFile(doc)
		if err != nil {
			t.Fatal(err)
		}
		names := cite.FindAllString(string(text), -1)
		sort.Strings(names)
		for i, name := range names {
			if (i == 0 || name != names[i-1]) && !defined[name] {
				t.Errorf("%s cites %s, which no _test.go defines", doc, name)
			}
		}
	}
}

// TestProductionCodeNamesNoTestOracle: the map-backed reference engine
// and the naive walkers are test oracles. They live in _test.go files,
// and no other file names them — not in code, comments or strings — so
// they cannot creep back into the build.
func TestProductionCodeNamesNoTestOracle(t *testing.T) {
	oracle := regexp.MustCompile(`MapEngine|MapState|NaiveWalk`)
	fset := token.NewFileSet()
	for _, path := range goFiles(t, false) {
		f, err := parser.ParseFile(fset, path, nil, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			t.Fatal(err)
		}
		report := func(pos token.Pos, text string) {
			if m := oracle.FindString(text); m != "" {
				t.Errorf("%s: production code names the test-only oracle %s", fset.Position(pos), m)
			}
		}
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				report(c.Pos(), c.Text)
			}
		}
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.Ident:
				report(n.Pos(), n.Name)
			case *ast.BasicLit:
				report(n.Pos(), n.Value)
			}
			return true
		})
	}
}

// TestOneBinary: cmd/ holds exactly one main package, cmd/stamp, the
// whole CLI surface; a second command belongs under `stamp` as a
// subcommand.
func TestOneBinary(t *testing.T) {
	var mains []string
	fset := token.NewFileSet()
	err := filepath.WalkDir("cmd", func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() || !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return err
		}
		f, err := parser.ParseFile(fset, path, nil, parser.PackageClauseOnly)
		if err != nil {
			return err
		}
		if dir := filepath.ToSlash(filepath.Dir(path)); f.Name.Name == "main" && !slices.Contains(mains, dir) {
			mains = append(mains, dir)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(mains, []string{"cmd/stamp"}) {
		t.Fatalf("cmd/ main packages: %v, want exactly [cmd/stamp]", mains)
	}
}

// TestLabRacePatternSelectsTests: CI's first race step runs
// internal/lab under -race with a -run pattern, and a rename that left
// the pattern matching nothing would pass that step having raced
// nothing. The pattern, read from ci.yml, must select at least one
// top-level Test function of internal/lab.
func TestLabRacePatternSelectsTests(t *testing.T) {
	ci, err := os.ReadFile(".github/workflows/ci.yml")
	if err != nil {
		t.Fatal(err)
	}
	m := regexp.MustCompile(`go test -race -run '([^']+)' \./internal/lab/`).FindSubmatch(ci)
	if m == nil {
		t.Fatal("ci.yml has no `go test -race -run '…' ./internal/lab/` step")
	}
	run, err := regexp.Compile(string(m[1]))
	if err != nil {
		t.Fatalf("lab race pattern %q: %v", m[1], err)
	}
	files, err := filepath.Glob("internal/lab/*_test.go")
	if err != nil {
		t.Fatal(err)
	}
	fset := token.NewFileSet()
	for _, path := range files {
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			t.Fatal(err)
		}
		for _, decl := range f.Decls {
			if fn, ok := decl.(*ast.FuncDecl); ok && fn.Recv == nil &&
				strings.HasPrefix(fn.Name.Name, "Test") && run.MatchString(fn.Name.Name) {
				return
			}
		}
	}
	t.Fatalf("ci.yml's lab race pattern %q selects no Test function in internal/lab", m[1])
}
