package cli

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
)

// TestReplayTraceDocument runs `stamp atlas -replay -trace` in process
// and reads back the Chrome trace-event document it writes: complete
// events only, the engine's apply, plane and cascade spans, each
// destination shard on its own thread track, and the sampling stats in
// the metadata.
func TestReplayTraceDocument(t *testing.T) {
	path := filepath.Join(t.TempDir(), "replay.json")
	code, _, stderr := run(t, "atlas", "-replay", "-n", "300", "-dests", "3", "-seed", "3",
		"-workers", "2", "-trace", path)
	if code != ExitOK {
		t.Fatalf("atlas -replay -trace exit %d (stderr: %s)", code, stderr)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Name string `json:"name"`
			Ph   string `json:"ph"`
			TID  int32  `json:"tid"`
		} `json:"traceEvents"`
		Metadata map[string]any `json:"metadata"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatalf("trace does not load: %v", err)
	}
	if len(doc.TraceEvents) == 0 {
		t.Fatal("trace has no events")
	}
	names := map[string]bool{}
	tids := map[int32]bool{}
	for _, ev := range doc.TraceEvents {
		if ev.Ph != "X" {
			t.Fatalf("span %s has phase %q, want X", ev.Name, ev.Ph)
		}
		names[ev.Name] = true
		tids[ev.TID] = true
	}
	for _, want := range []string{"atlas.apply_event", "atlas.plane_bgp", "atlas.cascade"} {
		if !names[want] {
			t.Fatalf("no %s span; names: %v", want, names)
		}
	}
	if len(tids) < 2 {
		t.Fatalf("spans on %d thread tracks, want one per destination shard (>= 2)", len(tids))
	}
	for _, key := range []string{"decisions", "sampled"} {
		if n, ok := doc.Metadata[key].(float64); !ok || n <= 0 {
			t.Fatalf("metadata %s = %v, want a positive count", key, doc.Metadata[key])
		}
	}
}
