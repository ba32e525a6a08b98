package trace

import (
	"bytes"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"testing"
)

var update = flag.Bool("update", false, "rewrite golden files")

// goldenTracer builds a deterministic two-trace recording: one applied
// event with its cascade and three plane spans, then one HTTP read —
// the span shapes the real instrumentation emits.
func goldenTracer() *Tracer {
	tr := New(Options{Shards: 2, BufferPerShard: 32})
	tr.setNow(fakeClock(500)) // 0.5µs per clock read

	ev := tr.Event(0)
	root := ev.Start("atlas.apply_event")
	root.ArgStr("op", "withdraw")
	casc := ev.StartChild(root.ID(), "atlas.cascade")
	casc.Arg("frontier", 41)
	casc.End()
	for _, plane := range []string{"atlas.plane_bgp", "atlas.plane_red", "atlas.plane_blue"} {
		sp := ev.StartChild(root.ID(), plane)
		sp.Arg("seed_frontier", 41)
		sp.Arg("rounds", 2)
		sp.Arg("round1_changed", 17)
		sp.Arg("round2_changed", 3)
		sp.End()
	}
	root.Arg("rounds", 2)
	root.Arg("changed", 20)
	root.Arg("stamp_lost", 1)
	root.End()

	rd := tr.Event(1)
	sp := rd.Start("serve.read")
	sp.ArgStr("path", "/route")
	sp.End()
	return tr
}

// TestChromeGolden pins the Chrome trace-event JSON schema byte for
// byte. Regenerate with `go test ./internal/trace -run ChromeGolden
// -update` and eyeball the diff in Perfetto before committing.
func TestChromeGolden(t *testing.T) {
	tr := goldenTracer()
	var buf bytes.Buffer
	meta := map[string]any{"tool": "stamp", "sample_every": tr.SampleEvery()}
	if err := WriteChrome(&buf, tr.Snapshot(), meta); err != nil {
		t.Fatal(err)
	}

	path := filepath.Join("testdata", "chrome.golden")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("read golden (run with -update to create): %v", err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Fatalf("chrome trace drifted from golden\ngot:\n%s\nwant:\n%s", buf.Bytes(), want)
	}
}

// TestChromeLoadable checks the structural contract Perfetto needs:
// top-level traceEvents array, every event a complete ("X") phase with
// name/ts/dur, and parseable as plain JSON.
func TestChromeLoadable(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteChrome(&buf, goldenTracer().Snapshot(), nil); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("not valid JSON: %v", err)
	}
	if len(doc.TraceEvents) != 6 {
		t.Fatalf("got %d events, want 6", len(doc.TraceEvents))
	}
	for i, ev := range doc.TraceEvents {
		if ev["ph"] != "X" {
			t.Fatalf("event %d: ph=%v, want X", i, ev["ph"])
		}
		if _, ok := ev["name"].(string); !ok {
			t.Fatalf("event %d: missing name", i)
		}
		if _, ok := ev["ts"].(float64); !ok {
			t.Fatalf("event %d: missing ts", i)
		}
		if _, ok := ev["dur"].(float64); !ok {
			t.Fatalf("event %d: missing dur", i)
		}
	}
}
