package cli

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"net/http"
	"os"
	"regexp"
	"strings"
	"sync"
	"testing"
	"time"

	"stamp/internal/lab"
	"stamp/internal/obs"
)

// run drives the full CLI in-process: argv to exit code, capturing both
// streams.
func run(t *testing.T, argv ...string) (code int, stdout, stderr string) {
	t.Helper()
	var out, errw bytes.Buffer
	code = Main(context.Background(), argv, &out, &errw)
	return code, out.String(), errw.String()
}

// TestExitCodes pins the operator contract: 0 success, 1 failure, 2
// usage — identical across subcommands.
func TestExitCodes(t *testing.T) {
	cases := []struct {
		name string
		argv []string
		want int
	}{
		{"no args", nil, ExitUsage},
		{"unknown subcommand", []string{"frobnicate"}, ExitUsage},
		{"run without experiment", []string{"run"}, ExitUsage},
		{"run unknown experiment", []string{"run", "no-such-harness"}, ExitUsage},
		{"run bad flag", []string{"run", "transient", "-badflag"}, ExitUsage},
		{"run bad scenario", []string{"run", "transient", "-scenario", "meteor-strike", "-n", "50"}, ExitFailure},
		{"bad topo seeds", []string{"run", "sweep", "-topo-seeds", "x"}, ExitUsage},
		{"help", []string{"help"}, ExitOK},
		{"subcommand -h is success", []string{"run", "transient", "-h"}, ExitOK},
		{"run -h is success", []string{"run", "-h"}, ExitOK},
		{"topo -h is success", []string{"topo", "-h"}, ExitOK},
		{"daemon bad originate", []string{"daemon", "-as", "64512", "-originate", "not-a-prefix"}, ExitUsage},
		{"loss emu rejects non-stamp protocol", []string{"flood", "-backend", "emu", "-n", "40", "-protocol", "bgp"}, ExitFailure},
		{"run transient rejects the steering arm", []string{"run", "transient", "-n", "40", "-protocol", "stamp-steer"}, ExitUsage},
		{"flood rejects the steering arm", []string{"flood", "-n", "40", "-protocol", "stamp-steer"}, ExitUsage},
		{"run transient rejects a duplicated protocol", []string{"run", "transient", "-n", "40", "-trials", "1", "-protocol", "bgp,bgp"}, ExitUsage},
		{"flood rejects a duplicated protocol", []string{"flood", "-n", "40", "-trials", "1", "-protocol", "stamp,stamp"}, ExitUsage},
		{"steer rejects a duplicated arm", []string{"steer", "-n", "40", "-trials", "1", "-protocol", "stamp-steer,stamp-steer"}, ExitUsage},
		{"figure2 does not read -readers", []string{"run", "figure2", "-readers", "5", "-n", "120", "-trials", "1"}, ExitUsage},
		{"figure2 pins its scenario", []string{"run", "figure2", "-scenario", "node-failure", "-n", "120", "-trials", "1"}, ExitUsage},
		{"overhead does not read -protocol", []string{"run", "overhead", "-protocol", "rbgp", "-n", "60"}, ExitUsage},
		{"lab does not read -dests", []string{"lab", "-dests", "3", "-n", "40"}, ExitUsage},
		{"steer -loss does not read -dests", []string{"steer", "-loss", "-dests", "3", "-n", "40"}, ExitUsage},
		{"run emu-converge reads -diff", []string{"run", "emu-converge", "-backend", "sim", "-diff=false", "-n", "40"}, ExitOK},
		{"list", []string{"list"}, ExitOK},
		{"run ok", []string{"run", "partial", "-n", "60"}, ExitOK},
		{"atlas bad scenario", []string{"atlas", "-n", "100", "-scenario", "meteor-strike"}, ExitFailure},
		{"atlas rejects prefix-withdraw", []string{"atlas", "-n", "100", "-scenario", "prefix-withdraw"}, ExitFailure},
		{"atlas -h is success", []string{"atlas", "-h"}, ExitOK},
		{"atlas -loss -replay conflict", []string{"atlas", "-loss", "-replay", "-n", "100"}, ExitUsage},
		{"atlas replay rejects withdraw", []string{"atlas", "-replay", "-n", "100", "-scenario", "prefix-withdraw"}, ExitFailure},
		{"atlas replay rejects unbalanced repeat", []string{"atlas", "-replay", "-n", "100", "-scenario", "node-failure", "-repeat", "2", "-dests", "2"}, ExitFailure},
		{"atlas -why requires -replay", []string{"atlas", "-why", "auto", "-n", "100"}, ExitUsage},
		{"run atlas-replay reads -why", []string{"run", "atlas-replay", "-why", "auto", "-n", "100", "-dests", "2"}, ExitOK},
		{"run atlas-replay -trace-sample requires -trace", []string{"run", "atlas-replay", "-n", "100", "-dests", "2", "-trace-sample", "5"}, ExitUsage},
		{"atlas -trace-sample requires -trace", []string{"atlas", "-n", "200", "-dests", "2", "-trace-sample", "5"}, ExitUsage},
		{"atlas -trace-sample rejects negative", []string{"atlas", "-replay", "-n", "200", "-dests", "2", "-trace-sample", "-3"}, ExitUsage},
		{"atlas -repeat requires -replay", []string{"atlas", "-n", "200", "-dests", "2", "-repeat", "3"}, ExitUsage},
		// Zero means "default"; a negative count, duration or steering
		// threshold is refused instead of silently becoming the default.
		{"figure2 rejects negative -trials", []string{"run", "figure2", "-n", "120", "-trials", "-3"}, ExitUsage},
		{"loss rejects negative -ticks", []string{"run", "loss", "-n", "120", "-trials", "1", "-ticks", "-5"}, ExitUsage},
		{"loss rejects negative -tick", []string{"run", "loss", "-n", "120", "-trials", "1", "-tick", "-3ms"}, ExitUsage},
		{"flood rejects negative -flows", []string{"flood", "-n", "120", "-trials", "1", "-flows", "-2"}, ExitUsage},
		{"steer rejects negative -steer-n", []string{"run", "steer-latency", "-n", "120", "-trials", "1", "-steer-n", "-4"}, ExitUsage},
		{"steer rejects negative -steer-max-ms", []string{"run", "steer-latency", "-n", "120", "-trials", "1", "-steer-max-ms", "-1"}, ExitUsage},
		{"steer rejects negative -steer-degrade-ms", []string{"steer", "-loss", "-n", "120", "-trials", "1", "-steer-degrade-ms", "-7"}, ExitUsage},
		{"steer rejects negative -steer-comfort-ms", []string{"steer", "-n", "120", "-trials", "1", "-steer-comfort-ms", "-2"}, ExitUsage},
		{"steer keeps a negative -steer-cooldown", []string{"steer", "-n", "60", "-trials", "1", "-ticks", "20", "-steer-cooldown", "-1"}, ExitOK},
		{"atlas rejects negative -dests", []string{"atlas", "-n", "300", "-dests", "-2"}, ExitUsage},
		{"atlas replay rejects negative -repeat", []string{"atlas", "-replay", "-n", "200", "-dests", "2", "-repeat", "-1"}, ExitUsage},
		{"serve-load rejects negative -readers", []string{"run", "serve-load", "-n", "200", "-readers", "-1"}, ExitUsage},
		{"serve-load rejects negative -load-for", []string{"run", "serve-load", "-n", "200", "-load-for", "-1s"}, ExitUsage},
		{"lab rejects negative -timeout", []string{"lab", "-n", "40", "-timeout", "-1s"}, ExitUsage},
		{"lab has no quiet window", []string{"lab", "-n", "40", "-quiet", "1s"}, ExitUsage},
		{"atlas -why rejects bad spec", []string{"atlas", "-replay", "-why", "5", "-n", "100"}, ExitFailure},
		{"atlas -why rejects unsampled dest", []string{"atlas", "-replay", "-why", "999999:1", "-n", "100", "-dests", "2"}, ExitFailure},
		{"topo stats with snapshot flags", []string{"topo", "-in", "/no/such/file", "-tier1", "9"}, ExitUsage},
		{"flood bad backend", []string{"flood", "-backend", "quantum", "-n", "50"}, ExitFailure},
		{"topo ok", []string{"topo", "-n", "30"}, ExitOK},
		{"steer -h is success", []string{"steer", "-h"}, ExitOK},
		{"steer bad scenario", []string{"steer", "-n", "60", "-scenario", "meteor-strike"}, ExitFailure},
		{"steer bad protocol", []string{"steer", "-n", "60", "-protocol", "ospf"}, ExitFailure},
		{"serve -h is success", []string{"serve", "-h"}, ExitOK},
		{"serve bad flag", []string{"serve", "-badflag"}, ExitUsage},
		{"serve bad scenario", []string{"serve", "-scenario", "meteor-strike"}, ExitUsage},
		{"serve bad rate", []string{"serve", "-rate", "0"}, ExitUsage},
		{"serve rejects a rate with a zero interval", []string{"serve", "-rate", "2e9"}, ExitUsage},
		{"serve rejects an infinite rate", []string{"serve", "-rate", "Inf"}, ExitUsage},
		{"serve rejects a NaN rate", []string{"serve", "-rate", "NaN"}, ExitUsage},
		{"serve bind failure", []string{"serve", "-n", "100", "-addr", "999.999.999.999:0", "-swarm", "1"}, ExitFailure},
		{"serve missing snapshot", []string{"serve", "-topo", "/no/such/file"}, ExitFailure},
		{"serve rejects unbalanced endless replay", []string{"serve", "-n", "100", "-replay", "-scenario", "node-failure"}, ExitFailure},
		{"serve reads -n 0 as the default", []string{"serve", "-n", "0", "-dests", "1", "-addr", "127.0.0.1:0", "-swarm", "1", "-duration", "100ms"}, ExitOK},
		{"serve rejects negative -swarm", []string{"serve", "-n", "100", "-addr", "127.0.0.1:0", "-swarm", "-2"}, ExitUsage},
		{"serve rejects negative -duration", []string{"serve", "-n", "100", "-addr", "127.0.0.1:0", "-swarm", "1", "-duration", "-1s"}, ExitUsage},
		{"serve rejects negative -dests", []string{"serve", "-n", "100", "-addr", "127.0.0.1:0", "-swarm", "1", "-dests", "-3"}, ExitUsage},
		{"serve rejects negative -repeat", []string{"serve", "-n", "100", "-addr", "127.0.0.1:0", "-swarm", "1", "-repeat", "-1"}, ExitUsage},
		{"serve rejects negative -slo", []string{"serve", "-n", "100", "-addr", "127.0.0.1:0", "-swarm", "1", "-slo", "-5"}, ExitUsage},
		{"serve rejects negative -trace-sample", []string{"serve", "-n", "100", "-addr", "127.0.0.1:0", "-swarm", "1", "-trace-sample", "-4"}, ExitUsage},
		{"serve rejects negative -prov-cap", []string{"serve", "-n", "100", "-addr", "127.0.0.1:0", "-swarm", "1", "-prov-cap", "-5"}, ExitUsage},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			code, _, stderr := run(t, tc.argv...)
			if code != tc.want {
				t.Errorf("argv %v: exit %d, want %d (stderr: %s)", tc.argv, code, tc.want, stderr)
			}
		})
	}
}

// TestRunFlagSurface: for every registry entry and every request flag
// the CLI knows, `stamp run <name>` parses the flag exactly when the
// entry declares it (or it is in the shared header), refuses it with
// exit 2 otherwise, and `-h` lists exactly that set.
func TestRunFlagSurface(t *testing.T) {
	all := flag.NewFlagSet("all", flag.ContinueOnError)
	newRequestFlags(all, nil)
	listed := regexp.MustCompile(`(?m)^  -(\S+)`)
	for _, name := range lab.Names() {
		exp, _ := lab.Get(name)
		want := map[string]bool{}
		for _, fl := range append(append([]string{}, header...), exp.Flags...) {
			if all.Lookup(fl) == nil {
				t.Errorf("%s declares %q, which is no CLI flag", name, fl)
			}
			want[fl] = true
		}
		code, _, stderr := run(t, "run", name, "-h")
		if code != ExitOK {
			t.Fatalf("run %s -h: exit %d", name, code)
		}
		got := map[string]bool{}
		for _, m := range listed.FindAllStringSubmatch(stderr, -1) {
			got[m[1]] = true
		}
		if len(got) != len(want) {
			t.Errorf("run %s -h lists %d flags, want %d:\n%s", name, len(got), len(want), stderr)
		}
		all.VisitAll(func(fl *flag.Flag) {
			arg := "-" + fl.Name + "=" + fl.DefValue
			if got[fl.Name] != want[fl.Name] {
				t.Errorf("run %s -h: -%s listed %v, declared %v", name, fl.Name, got[fl.Name], want[fl.Name])
			}
			if want[fl.Name] {
				// The flag parses; -h then stops before anything runs.
				if code, _, stderr := run(t, "run", name, arg, "-h"); code != ExitOK {
					t.Errorf("run %s %s: exit %d, want %d (stderr: %s)", name, arg, code, ExitOK, stderr)
				}
			} else if code, _, _ := run(t, "run", name, arg); code != ExitUsage {
				t.Errorf("run %s %s: exit %d, want %d", name, arg, code, ExitUsage)
			}
		})
	}
}

// TestDivergenceExitCode: a result carrying divergences exits 1 even
// though the run itself succeeded — parity failure is failure.
func TestDivergenceExitCode(t *testing.T) {
	var out, errw bytes.Buffer
	e := env{ctx: context.Background(), stdout: &out, stderr: &errw}
	if code := e.emit(&lab.Result{SchemaVersion: lab.SchemaVersion, Divergences: 2}, true); code != ExitFailure {
		t.Errorf("divergent result: exit %d, want %d", code, ExitFailure)
	}
	if !strings.Contains(errw.String(), "divergences") {
		t.Errorf("stderr %q does not mention divergences", errw.String())
	}
	if code := e.emit(&lab.Result{SchemaVersion: lab.SchemaVersion}, true); code != ExitOK {
		t.Errorf("clean result: exit %d, want %d", code, ExitOK)
	}
}

// TestListCoversRegistry: `stamp list` prints every registered
// experiment.
func TestListCoversRegistry(t *testing.T) {
	code, stdout, _ := run(t, "list")
	if code != ExitOK {
		t.Fatalf("list exit %d", code)
	}
	for _, name := range lab.Names() {
		if !strings.Contains(stdout, name) {
			t.Errorf("stamp list output missing %q", name)
		}
	}
}

// syncBuf is a goroutine-safe writer for capturing a live subcommand's
// stderr while it runs.
type syncBuf struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *syncBuf) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *syncBuf) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

// TestDaemonMetricsEndpoint: `stamp daemon -metrics` exposes the shared
// observability mux — wire-level Prometheus metrics and /healthz —
// while the daemon runs, and SIGINT (context cancel) still exits 0.
func TestDaemonMetricsEndpoint(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var out bytes.Buffer
	errw := &syncBuf{}
	done := make(chan int, 1)
	go func() {
		done <- Main(ctx, []string{"daemon", "-as", "64512",
			"-listen", "127.0.0.1:0", "-metrics", "127.0.0.1:0"}, &out, errw)
	}()

	// The daemon logs the bound metrics address; poll for it.
	re := regexp.MustCompile(`metrics on (http://[^/\s]+)/metrics`)
	var base string
	for deadline := time.Now().Add(5 * time.Second); time.Now().Before(deadline); {
		if m := re.FindStringSubmatch(errw.String()); m != nil {
			base = m[1]
			break
		}
		time.Sleep(10 * time.Millisecond)
	}
	if base == "" {
		cancel()
		t.Fatalf("metrics address never logged:\n%s", errw.String())
	}

	resp, err := http.Get(base + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	sc, err := obs.ParseText(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"stamp_netd_sessions_up", "stamp_daemon_route_changes_total"} {
		if _, ok := sc.Types[want]; !ok {
			t.Errorf("scrape missing %s", want)
		}
	}
	var health struct {
		Status string `json:"status"`
		AS     int    `json:"as"`
	}
	hr, err := http.Get(base + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	if err := json.NewDecoder(hr.Body).Decode(&health); err != nil {
		t.Fatal(err)
	}
	hr.Body.Close()
	if health.Status != "ok" || health.AS != 64512 {
		t.Errorf("health = %+v", health)
	}

	cancel()
	select {
	case code := <-done:
		if code != ExitOK {
			t.Errorf("daemon exit %d, want %d", code, ExitOK)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("daemon did not exit on context cancel")
	}
}

// TestAtlasCLI: `stamp atlas` runs the flat-engine experiment end to
// end, and `stamp topo -stats -in` summarizes an ingested snapshot —
// the zero-to-atlas operator path.
func TestAtlasCLI(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation")
	}
	dir := t.TempDir()
	snapshot := dir + "/topo.asrel"
	if code, _, stderr := run(t, "topo", "-n", "150", "-seed", "2", "-o", snapshot); code != ExitOK {
		t.Fatalf("topo exit %d (stderr: %s)", code, stderr)
	}
	code, _, stderr := run(t, "topo", "-in", snapshot, "-stats")
	if code != ExitOK {
		t.Fatalf("topo -stats exit %d (stderr: %s)", code, stderr)
	}
	for _, want := range []string{"degree", "tier-1", "customer-provider"} {
		if !strings.Contains(stderr, want) {
			t.Errorf("topo -stats output missing %q:\n%s", want, stderr)
		}
	}
	code, stdout, stderr := run(t, "atlas", "-topo", snapshot, "-dests", "4", "-seed", "3", "-json")
	if code != ExitOK {
		t.Fatalf("atlas exit %d (stderr: %s)", code, stderr)
	}
	var env struct {
		Experiment string `json:"experiment"`
		Topology   struct {
			Loaded bool `json:"loaded"`
		} `json:"topology"`
	}
	if err := json.Unmarshal([]byte(stdout), &env); err != nil {
		t.Fatal(err)
	}
	if env.Experiment != "atlas-converge" || !env.Topology.Loaded {
		t.Errorf("envelope = %+v, want atlas-converge on a loaded snapshot", env)
	}
	if code, _, stderr := run(t, "atlas", "-loss", "-topo", snapshot, "-dests", "2", "-seed", "3"); code != ExitOK {
		t.Fatalf("atlas -loss exit %d (stderr: %s)", code, stderr)
	}
}

// TestTopoReemitKeepsOriginalASNs: round-tripping a snapshot through
// `stamp topo -in ... -o ...` must keep the snapshot's ASNs, not
// replace them with the loader's dense renumbering.
func TestTopoReemitKeepsOriginalASNs(t *testing.T) {
	dir := t.TempDir()
	src := dir + "/real.asrel"
	if err := os.WriteFile(src, []byte("174|3356|0\n174|64512|-1\n3356|64512|-1\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	out := dir + "/copy.asrel"
	if code, _, stderr := run(t, "topo", "-in", src, "-o", out); code != ExitOK {
		t.Fatalf("topo -in -o exit %d (stderr: %s)", code, stderr)
	}
	raw, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	for _, asn := range []string{"174", "3356", "64512"} {
		if !strings.Contains(string(raw), asn) {
			t.Errorf("re-emitted snapshot lost original ASN %s:\n%s", asn, raw)
		}
	}
}

// TestServeSwarmCLI: `stamp serve -replay -swarm` boots the service
// mode end to end — converge, replay, swarm load, SLO gate — and emits
// the swarm report JSON.
func TestServeSwarmCLI(t *testing.T) {
	if testing.Short() {
		t.Skip("live service load run")
	}
	code, stdout, stderr := run(t, "serve",
		"-n", "300", "-dests", "4", "-seed", "3", "-addr", "127.0.0.1:0",
		"-replay", "-rate", "40", "-swarm", "4", "-duration", "1s", "-json")
	if code != ExitOK {
		t.Fatalf("serve exit %d (stderr: %s)", code, stderr)
	}
	var rep struct {
		Readers           int     `json:"readers"`
		Requests          int64   `json:"requests"`
		ReadP99Ms         float64 `json:"read_p99_ms"`
		CountersMonotonic bool    `json:"counters_monotonic"`
		EpochEnd          uint64  `json:"epoch_end"`
	}
	if err := json.Unmarshal([]byte(stdout), &rep); err != nil {
		t.Fatalf("swarm report: %v\n%s", err, stdout)
	}
	if rep.Readers != 4 || rep.Requests == 0 || !rep.CountersMonotonic || rep.EpochEnd == 0 {
		t.Errorf("report = %+v, want a live loaded run with monotonic counters", rep)
	}
	// An absurdly tight SLO must trip the gate.
	code, _, stderr = run(t, "serve",
		"-n", "300", "-dests", "2", "-seed", "3", "-addr", "127.0.0.1:0",
		"-replay", "-swarm", "2", "-duration", "500ms", "-slo", "0.000001")
	if code != ExitFailure {
		t.Errorf("impossible SLO: exit %d (stderr: %s), want %d", code, stderr, ExitFailure)
	}
}

// TestSteerGridWinsAtCIScale runs the steering grid CI archives as
// BENCH_steer.json, with CI's exact arguments, and holds its headline:
// steering beats color-locked STAMP on user latency (0 < ratio < 1) and
// the steering arm switched at least once, so the win has a mechanism.
func TestSteerGridWinsAtCIScale(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation")
	}
	code, stdout, stderr := run(t, "run", "steer-latency", "-scenario", "latency-brownout",
		"-n", "400", "-trials", "4", "-seed", "5", "-workers", "4", "-json")
	if code != ExitOK {
		t.Fatalf("steer-latency exit %d (stderr: %s)", code, stderr)
	}
	var env struct {
		Data struct {
			Ratio float64 `json:"steer_vs_locked_latency_ratio"`
			Arms  []struct {
				Protocol string `json:"protocol"`
				Switches struct {
					Sum float64 `json:"Sum"`
				} `json:"steer_switches"`
			} `json:"arms"`
		} `json:"data"`
	}
	if err := json.Unmarshal([]byte(stdout), &env); err != nil {
		t.Fatal(err)
	}
	if r := env.Data.Ratio; r <= 0 || r >= 1 {
		t.Fatalf("steering does not beat locked STAMP: ratio %v", r)
	}
	switches := 0.0
	for _, a := range env.Data.Arms {
		if a.Protocol == "STAMP-steer" {
			switches = a.Switches.Sum
		}
	}
	if switches <= 0 {
		t.Fatalf("the STAMP-steer arm never switched (arms %+v)", env.Data.Arms)
	}
}

// TestSteerCLI: `stamp steer` runs the four-arm latency steering grid
// end to end — the brownout preset, the -loss gray-failure preset, and
// the policy tuning flags reaching the experiment request.
func TestSteerCLI(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation")
	}
	code, stdout, stderr := run(t, "steer",
		"-n", "80", "-trials", "2", "-seed", "5", "-ticks", "120", "-json")
	if code != ExitOK {
		t.Fatalf("steer exit %d (stderr: %s)", code, stderr)
	}
	var env struct {
		Experiment string `json:"experiment"`
		Scenario   string `json:"scenario"`
		Data       struct {
			Arms []struct {
				Protocol string `json:"protocol"`
			} `json:"arms"`
			Ratio float64 `json:"steer_vs_locked_latency_ratio"`
		} `json:"data"`
	}
	if err := json.Unmarshal([]byte(stdout), &env); err != nil {
		t.Fatal(err)
	}
	if env.Experiment != "steer-latency" || env.Scenario != "latency-brownout" || len(env.Data.Arms) != 4 {
		t.Errorf("envelope = %+v, want the four-arm steer-latency grid on latency-brownout", env)
	}
	if env.Data.Ratio <= 0 {
		t.Errorf("steer_vs_locked_latency_ratio = %v, want > 0", env.Data.Ratio)
	}
	// -loss swaps the preset; the tuning flags reach the policy config.
	code, stdout, stderr = run(t, "steer", "-loss",
		"-n", "80", "-trials", "1", "-seed", "5", "-ticks", "80",
		"-protocol", "stamp,stamp-steer", "-steer-n", "2", "-steer-cooldown", "15", "-json")
	if code != ExitOK {
		t.Fatalf("steer -loss exit %d (stderr: %s)", code, stderr)
	}
	var loss struct {
		Experiment string `json:"experiment"`
		Data       struct {
			Config struct {
				Consecutive   int `json:"consecutive"`
				CooldownTicks int `json:"cooldown_ticks"`
			} `json:"steer_config"`
		} `json:"data"`
	}
	if err := json.Unmarshal([]byte(stdout), &loss); err != nil {
		t.Fatal(err)
	}
	if loss.Experiment != "steer-loss" || loss.Data.Config.Consecutive != 2 || loss.Data.Config.CooldownTicks != 15 {
		t.Errorf("steer -loss envelope = %+v, want steer-loss with consecutive=2 cooldown=15", loss)
	}
}

// TestAtlasReplayCLI: `stamp atlas -replay -why` streams the script
// through the incremental engine end to end, and its JSON — including
// the provenance chain — is byte-identical for any -workers value: the
// CLI-level determinism gate for the replay and provenance paths.
func TestAtlasReplayCLI(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation")
	}
	var snaps []string
	for _, workers := range []string{"1", "8"} {
		code, stdout, stderr := run(t, "atlas", "-replay",
			"-n", "200", "-dests", "6", "-seed", "5", "-repeat", "2", "-why", "auto", "-workers", workers, "-json")
		if code != ExitOK {
			t.Fatalf("workers=%s: exit %d (stderr: %s)", workers, code, stderr)
		}
		snaps = append(snaps, stdout)
	}
	if snaps[0] != snaps[1] {
		t.Errorf("stamp atlas -replay -json differs between -workers 1 and 8:\n%.300s\n%.300s", snaps[0], snaps[1])
	}
	var env struct {
		Experiment string `json:"experiment"`
		Data       struct {
			TotalEvents int `json:"total_events"`
			Repeat      int `json:"repeat"`
			PerEvent    []struct {
				Rounds int64 `json:"rounds"`
			} `json:"per_event"`
			Why *struct {
				Appends uint64 `json:"journal_appends"`
				Chains  []struct {
					Plane     string `json:"plane"`
					Truncated bool   `json:"truncated"`
					Hops      []struct {
						Kind   string `json:"kind"`
						Origin bool   `json:"origin"`
					} `json:"hops"`
				} `json:"chains"`
			} `json:"why"`
		} `json:"data"`
	}
	if err := json.Unmarshal([]byte(snaps[0]), &env); err != nil {
		t.Fatal(err)
	}
	if env.Experiment != "atlas-replay" || env.Data.Repeat != 2 ||
		len(env.Data.PerEvent) != env.Data.TotalEvents || env.Data.TotalEvents == 0 {
		t.Errorf("envelope = %+v, want an atlas-replay per-event stream", env)
	}
	if env.Data.Why == nil || env.Data.Why.Appends == 0 || len(env.Data.Why.Chains) != 3 {
		t.Fatalf("why payload = %+v, want three-plane chains with journal appends", env.Data.Why)
	}
	// Every routed chain reaches the origin untruncated.
	for _, c := range env.Data.Why.Chains {
		if n := len(c.Hops); c.Truncated || n > 0 && c.Hops[n-1].Kind != "none" && !c.Hops[n-1].Origin {
			t.Errorf("%s chain does not reach the origin: %+v", c.Plane, c)
		}
	}
}

// TestDaemonListenerTimeouts: the daemon's -metrics listener bounds how
// long a request may take to arrive and its response to leave, as
// stamp serve's does, so a slow client cannot hold a connection for
// ever.
func TestDaemonListenerTimeouts(t *testing.T) {
	srv, _, err := serveMux(http.NewServeMux(), "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	if srv.ReadTimeout <= 0 || srv.WriteTimeout <= 0 {
		t.Fatalf("daemon listener timeouts: read %v, write %v", srv.ReadTimeout, srv.WriteTimeout)
	}
}
