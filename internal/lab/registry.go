package lab

import (
	"fmt"
	"slices"
	"sort"
)

// Experiment is one registry entry: a named harness expressed as data —
// its defaults, the flags it reads, and a run function over the uniform
// Request.
type Experiment struct {
	// Name is the registry key ("transient", "ablation/lock", …).
	Name string
	// Desc is the one-line description `stamp list` prints.
	Desc string
	// Backends lists the execution engines the experiment supports, CLI
	// default first. Empty means sim-only.
	Backends []string
	// DefaultN is the generated-topology size when the request leaves
	// Topo.N zero.
	DefaultN int
	// DefaultScenario fills Request.Scenario when empty (experiments
	// that take no scenario leave it blank).
	DefaultScenario string
	// Flags names the command-line flags the run reads beyond the
	// shared header (-n, -seed, -topo, -workers, -json, -progress):
	// "trials", "scenario", "protocol", "backend", "transport", "flows",
	// "tick", "ticks", "dests", "repeat", "topo-seeds", "readers",
	// "load-for", "diff", "quiet", "timeout", "why", "trace",
	// "trace-sample" and the "steer-*" policy knobs.
	Flags []string
	// Run executes the experiment on an already-normalized request.
	Run func(req Request) (*Result, error)
}

// BackendNames lists the experiment's supported backends, CLI default
// first.
func (e Experiment) BackendNames() []string { return e.backends() }

// backendSupported reports whether the entry can run on the backend.
func (e Experiment) backendSupported(name string) bool {
	return slices.Contains(e.backends(), name)
}

func (e Experiment) backends() []string {
	if len(e.Backends) == 0 {
		return []string{"sim"}
	}
	return e.Backends
}

var registry = map[string]Experiment{}

// Register adds an experiment to the registry; duplicate names are a
// programming error.
func Register(e Experiment) {
	if e.Name == "" || e.Run == nil {
		panic("lab: Register needs a name and a run function")
	}
	if _, dup := registry[e.Name]; dup {
		panic(fmt.Sprintf("lab: experiment %q registered twice", e.Name))
	}
	registry[e.Name] = e
}

// Get looks an experiment up by name.
func Get(name string) (Experiment, bool) {
	e, ok := registry[name]
	return e, ok
}

// Names lists the registered experiments, sorted.
func Names() []string {
	out := make([]string, 0, len(registry))
	for name := range registry {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// Run is the lab's single entry point: it resolves the request's
// experiment, fills experiment-level defaults (topology size, scenario,
// backend), drops the trials and scenario of an entry that does not
// read them, validates the backend, and executes.
func Run(req Request) (*Result, error) {
	e, ok := Get(req.Experiment)
	if !ok {
		return nil, fmt.Errorf("lab: unknown experiment %q (stamp list prints the registry)", req.Experiment)
	}
	req = req.normalized()
	if req.Topo.N <= 0 {
		req.Topo.N = e.DefaultN
		if req.Topo.N <= 0 {
			req.Topo.N = 1000
		}
	}
	if req.Scenario == "" || !slices.Contains(e.Flags, "scenario") {
		req.Scenario = e.DefaultScenario
	}
	if !slices.Contains(e.Flags, "trials") {
		req.Trials = 0
	}
	if req.Backend == "" {
		req.Backend = e.backends()[0]
	}
	if !e.backendSupported(req.Backend) {
		return nil, fmt.Errorf("lab: experiment %q supports backends %v, not %q",
			e.Name, e.backends(), req.Backend)
	}
	res, err := e.Run(req)
	if err != nil {
		return nil, fmt.Errorf("lab: %s: %w", e.Name, err)
	}
	return res, nil
}
