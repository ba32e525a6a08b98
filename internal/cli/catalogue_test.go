package cli

import (
	"bytes"
	"os"
	"slices"
	"strings"
	"testing"
	"time"

	"stamp/internal/atlas"
	"stamp/internal/netd"
	"stamp/internal/obs"
	"stamp/internal/scenario"
	"stamp/internal/serve"
	"stamp/internal/topology"
)

// TestMetricCatalogue: every metric family a process of this repository
// can expose — a booted serve.Server's, and the daemon's netd families
// registered as `stamp daemon` does — appears under its full name in a
// row of DESIGN.md's metric catalogue.
func TestMetricCatalogue(t *testing.T) {
	tg, err := topology.GenerateDefault(200, 42)
	if err != nil {
		t.Fatal(err)
	}
	g, err := atlas.FromTopology(tg)
	if err != nil {
		t.Fatal(err)
	}
	reg := obs.NewRegistry()
	if _, err := serve.New(serve.Config{Graph: g, Scenario: scenario.FlapStorm, Dests: 2, Seed: 7,
		Interval: time.Millisecond, Registry: reg}); err != nil {
		t.Fatal(err)
	}
	netd.NewMetrics(reg)
	daemonRouteChanges(reg)
	var buf bytes.Buffer
	if err := reg.WriteText(&buf); err != nil {
		t.Fatal(err)
	}
	sc, err := obs.ParseText(&buf)
	if err != nil {
		t.Fatal(err)
	}
	design, err := os.ReadFile("../../DESIGN.md")
	if err != nil {
		t.Fatal(err)
	}
	// The catalogue is the table whose rows open with a family name.
	var rows strings.Builder
	for _, line := range strings.Split(string(design), "\n") {
		if strings.HasPrefix(line, "| `stamp_") {
			rows.WriteString(line)
		}
	}
	catalogue := rows.String()
	var missing []string
	for name := range sc.Types {
		if !strings.Contains(catalogue, "`"+name+"`") && !strings.Contains(catalogue, "`"+name+"{") {
			missing = append(missing, name)
		}
	}
	if len(sc.Types) < 40 {
		t.Fatalf("scraped only %d families; the registry is not the whole surface", len(sc.Types))
	}
	if len(missing) > 0 {
		slices.Sort(missing)
		t.Fatalf("DESIGN.md's metric catalogue lacks %d families by full name: %v", len(missing), missing)
	}
}
