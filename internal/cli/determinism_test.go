package cli

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"

	"stamp/internal/lab"
)

// TestJSONByteIdenticalAcrossWorkers is the repository's core invariant
// at the CLI: every sharded command's -json output is byte-identical
// for any -workers value. Each row runs two command lines through Main
// in-process and compares their stdout. Two rows compare other things
// the output must not depend on: the registry spelling of `stamp atlas
// -replay`, and whether the -why shard carried a journal (the why
// payload removed from both sides first).
func TestJSONByteIdenticalAcrossWorkers(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every sharded experiment at full size")
	}
	// Outputs are kept by command line: several rows share one run.
	outputs := map[string]string{}
	stdout := func(t *testing.T, cmdline string) string {
		t.Helper()
		if out, ok := outputs[cmdline]; ok {
			return out
		}
		argv := strings.Fields(cmdline)
		code, out, stderr := run(t, argv...)
		if code != ExitOK {
			t.Fatalf("stamp %s: exit %d (stderr: %s)", cmdline, code, stderr)
		}
		var env struct {
			SchemaVersion int    `json:"schema_version"`
			Experiment    string `json:"experiment"`
		}
		if err := json.Unmarshal([]byte(out), &env); err != nil {
			t.Fatalf("stamp %s: %v", cmdline, err)
		}
		if env.SchemaVersion != lab.SchemaVersion || (argv[0] == "run" && env.Experiment != argv[1]) {
			t.Fatalf("stamp %s: envelope %+v", cmdline, env)
		}
		outputs[cmdline] = out
		return out
	}
	const (
		replay1k  = "atlas -replay -n 1000 -dests 16 -seed 5 -repeat 3 -json -why auto"
		replay10k = "atlas -replay -n 10000 -dests 16 -seed 5 -repeat 3 -json"
	)
	cases := []struct {
		name, a, b string
		// dropWhy removes every "why" key from both outputs before
		// they are compared.
		dropWhy bool
	}{
		{name: "figure2-n120",
			a: "run figure2 -n 120 -trials 2 -seed 5 -json -workers 1",
			b: "run figure2 -n 120 -trials 2 -seed 5 -json -workers 4"},
		{name: "figure2",
			a: "run figure2 -n 400 -trials 8 -seed 5 -json -workers 1",
			b: "run figure2 -n 400 -trials 8 -seed 5 -json -workers 8"},
		{name: "atlas-converge-n200",
			a: "run atlas-converge -n 200 -dests 6 -seed 5 -scenario flap-storm -json -workers 1",
			b: "run atlas-converge -n 200 -dests 6 -seed 5 -scenario flap-storm -json -workers 4"},
		{name: "atlas-converge",
			a: "run atlas-converge -n 1000 -dests 16 -seed 5 -json -workers 1",
			b: "run atlas-converge -n 1000 -dests 16 -seed 5 -json -workers 8"},
		// -why auto rides along: the provenance chain in the payload
		// must be byte-identical across worker counts too.
		{name: "atlas-replay",
			a: replay1k + " -workers 1",
			b: replay1k + " -workers 8"},
		// The registry spelling reads the same -why/-repeat flags.
		{name: "atlas-replay-registry-spelling",
			a: replay1k + " -workers 1",
			b: "run atlas-replay -n 1000 -dests 16 -seed 5 -repeat 3 -json -why auto -workers 1"},
		// Replay settles sparse windows, so a 10k-AS stream is cheap.
		{name: "atlas-replay-10k",
			a: replay10k + " -why auto -workers 1",
			b: replay10k + " -why auto -workers 8"},
		// Only the -why shard carries a journal, and a journal only
		// observes the engine: stripped of the why payload, the
		// journal-free run must say the same.
		{name: "atlas-replay-10k-journal-free",
			a:       replay10k + " -why auto -workers 1",
			b:       replay10k + " -workers 1",
			dropWhy: true},
		{name: "steer-latency",
			a: "run steer-latency -n 400 -trials 4 -seed 5 -json -workers 1",
			b: "run steer-latency -n 400 -trials 4 -seed 5 -json -workers 8"},
		{name: "loss",
			a: "run loss -n 400 -trials 4 -seed 5 -json -workers 1",
			b: "run loss -n 400 -trials 4 -seed 5 -json -workers 8"},
		// The loss-curve path: change-driven sampling and the flat R-BGP
		// walker keep their scratch per shard, so the envelope must not
		// depend on which worker ran which shard.
		{name: "flood-two-links-shared",
			a: "flood -n 400 -scenario two-links-shared -trials 4 -seed 5 -json -workers 1",
			b: "flood -n 400 -scenario two-links-shared -trials 4 -seed 5 -json -workers 4"},
		// The transient trial keeps per-shard walker and dirty-list
		// scratch too.
		{name: "transient-flap-storm",
			a: "run transient -scenario flap-storm -n 400 -trials 4 -seed 5 -json -workers 1",
			b: "run transient -scenario flap-storm -n 400 -trials 4 -seed 5 -json -workers 4"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			a, b := []byte(stdout(t, tc.a)), []byte(stdout(t, tc.b))
			if tc.dropWhy {
				a, b = withoutWhy(t, a), withoutWhy(t, b)
			}
			if !bytes.Equal(a, b) {
				t.Errorf("outputs differ:\nstamp %s\n%.400s\nstamp %s\n%.400s", tc.a, a, tc.b, b)
			}
		})
	}
}

// withoutWhy re-encodes a JSON document with every "why" key deleted,
// at any depth.
func withoutWhy(t *testing.T, raw []byte) []byte {
	t.Helper()
	var doc any
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatal(err)
	}
	var drop func(v any)
	drop = func(v any) {
		switch v := v.(type) {
		case map[string]any:
			delete(v, "why")
			for _, e := range v {
				drop(e)
			}
		case []any:
			for _, e := range v {
				drop(e)
			}
		}
	}
	drop(doc)
	out, err := json.Marshal(doc)
	if err != nil {
		t.Fatal(err)
	}
	return out
}
