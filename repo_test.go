package stamp

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"sort"
	"strconv"
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

// testSupport is the one package of shared test oracles. Only _test.go
// files may import it, and its own exports need no production caller.
const testSupport = "stamp/internal/testkit"

// stdInterfaceMethods are method names that satisfy a standard-library
// interface, so a type can be used through it with no call site naming
// the method. Interfaces declared in this repository are found by the
// scan itself.
var stdInterfaceMethods = map[string]string{
	"Is":          "errors.Is's interface{ Is(error) bool } (atlas's refusal)",
	"MarshalJSON": "json.Marshaler (metrics and traffic results)",
	"MarshalText": "encoding.TextMarshaler (scenario.Kind, traffic.Protocol)",
	"Read":        "io.Reader, net.Conn (wire.MuxStream)",
	"SetDeadline": "net.Conn (wire.MuxStream)",
}

// testAccessors are exported methods that only other packages' tests
// call and that cannot move to them: a method reading unexported state
// stays with its type. Each entry says who reads it.
var testAccessors = map[string]string{
	"stamp/internal/bgp.Speaker.Desired": "core's and traffic's tests read a speaker's per-neighbour desired advertisement",
}

// importPath maps a repository-relative .go file to its package's import
// path; the bench/ module is stamp/bench, so one rule covers both modules.
func importPath(file string) string {
	return "stamp/" + filepath.ToSlash(filepath.Dir(file))
}

// TestInternalExportsHaveProductionCallers: every exported package-level
// identifier and method declared under internal/ is named by some
// non-test file of either module (cmd/stamp, internal/ or bench/) other
// than its own declaration, so the build carries no API that only tests
// call. A method also counts as used when an interface declared in the
// repository, or one in stdInterfaceMethods, has a method of its name.
// Test-only helpers live in _test.go files or in the test-support
// package, which no non-test file may import and whose references do
// not count. The scan is syntactic: package-level names are keyed by
// import path, methods by name alone.
func TestInternalExportsHaveProductionCallers(t *testing.T) {
	type key struct{ pkg, name string }
	type decl struct {
		pos    token.Position
		method string // the method's name; empty for a package-level identifier
	}
	declared := map[key]decl{}
	used := map[key]bool{}
	selected := map[string]bool{}   // names selected from a value
	interfaced := map[string]bool{} // method names of repository interfaces
	fset := token.NewFileSet()
	for _, path := range goFiles(t, false) {
		if strings.Contains(filepath.ToSlash(path), "/testdata/") {
			continue
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			t.Fatal(err)
		}
		pkg := importPath(path)
		imports := map[string]string{}
		for _, spec := range f.Imports {
			ip, _ := strconv.Unquote(spec.Path.Value)
			if ip == testSupport {
				t.Errorf("%s: non-test file imports the test-support package %s", fset.Position(spec.Pos()), ip)
			}
			name := filepath.Base(ip)
			if spec.Name != nil {
				name = spec.Name.Name
			}
			imports[name] = ip
		}
		support := pkg == testSupport
		names := map[*ast.Ident]bool{}
		if strings.HasPrefix(pkg, "stamp/internal/") && !support {
			for _, d := range f.Decls {
				switch d := d.(type) {
				case *ast.FuncDecl:
					names[d.Name] = true
					if !d.Name.IsExported() {
						continue
					}
					if d.Recv == nil {
						declared[key{pkg, d.Name.Name}] = decl{pos: fset.Position(d.Pos())}
						continue
					}
					recv := d.Recv.List[0].Type // T, *T, T[P] or *T[P, Q]
					if star, ok := recv.(*ast.StarExpr); ok {
						recv = star.X
					}
					switch r := recv.(type) {
					case *ast.IndexExpr:
						recv = r.X
					case *ast.IndexListExpr:
						recv = r.X
					}
					m := recv.(*ast.Ident).Name + "." + d.Name.Name
					declared[key{pkg, m}] = decl{pos: fset.Position(d.Pos()), method: d.Name.Name}
				case *ast.GenDecl:
					for _, spec := range d.Specs {
						var ids []*ast.Ident
						switch s := spec.(type) {
						case *ast.TypeSpec:
							ids = []*ast.Ident{s.Name}
						case *ast.ValueSpec:
							ids = s.Names
						}
						for _, id := range ids {
							names[id] = true
							if id.IsExported() {
								declared[key{pkg, id.Name}] = decl{pos: fset.Position(id.Pos())}
							}
						}
					}
				}
			}
		}
		if support {
			continue
		}
		var visit func(n ast.Node) bool
		visit = func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.SelectorExpr:
				if x, ok := n.X.(*ast.Ident); ok && imports[x.Name] != "" {
					used[key{imports[x.Name], n.Sel.Name}] = true
					return false
				}
				selected[n.Sel.Name] = true
				ast.Inspect(n.X, visit)
				return false
			case *ast.InterfaceType:
				for _, m := range n.Methods.List {
					for _, id := range m.Names {
						interfaced[id.Name] = true
					}
				}
			case *ast.Ident:
				if !names[n] {
					used[key{pkg, n.Name}] = true
				}
			}
			return true
		}
		ast.Inspect(f, visit)
	}
	var unused []string
	allowed := map[string]bool{}
	for k, d := range declared {
		if d.method != "" {
			if selected[d.method] || interfaced[d.method] || stdInterfaceMethods[d.method] != "" {
				continue
			}
		} else if used[k] {
			continue
		}
		if name := k.pkg + "." + k.name; testAccessors[name] != "" {
			allowed[name] = true
			continue
		}
		unused = append(unused, fmt.Sprintf("%s: %s.%s", d.pos, filepath.Base(k.pkg), k.name))
	}
	sort.Strings(unused)
	for _, u := range unused {
		t.Errorf("%s is exported but no non-test file uses it: unexport it, move it to a _test.go file or %s, or delete it", u, testSupport)
	}
	for name := range testAccessors {
		if !allowed[name] {
			t.Errorf("testAccessors lists %s, which is not an exported identifier without a production caller", name)
		}
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
