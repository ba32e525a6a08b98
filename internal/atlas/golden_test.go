package atlas

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite testdata golden files")

// checkGolden holds rows, one line each, to the golden file at path,
// whose first line is header. A mismatch reports how many rows differ
// and prints the first few side by side, so a change names the rows it
// moved; -update rewrites the file instead.
func checkGolden(t *testing.T, path, header string, rows []string) {
	t.Helper()
	got := append([]string{header}, rows...)
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(strings.Join(got, "\n")+"\n"), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run with -update to create it)", err)
	}
	want := strings.Split(strings.TrimSuffix(string(raw), "\n"), "\n")
	var diffs []string
	for i := 0; i < max(len(got), len(want)); i++ {
		var g, w string
		if i < len(got) {
			g = got[i]
		}
		if i < len(want) {
			w = want[i]
		}
		if g != w {
			diffs = append(diffs, fmt.Sprintf("line %d:\n  want %s\n  got  %s", i+1, w, g))
		}
	}
	if len(diffs) == 0 {
		return
	}
	const show = 8
	t.Errorf("%s: %d of %d rows differ (%d rows now, %d in the file); first %d:\n%s",
		path, len(diffs), max(len(got), len(want))-1, len(got)-1, len(want)-1,
		min(show, len(diffs)), strings.Join(diffs[:min(show, len(diffs))], "\n"))
}
