package emu

import (
	"time"

	"stamp/internal/metrics"
	"stamp/internal/scenario"
)

// Result is one complete live-emulation run: boot, initial convergence,
// scenario, final convergence, and the resulting tables.
type Result struct {
	Stats Stats `json:"stats"`
	// Tables is the converged live routing state after the scenario.
	Tables *Tables `json:"-"`
	// Boot is the wall-clock time to wire and establish every session.
	Boot time.Duration `json:"boot"`
	// InitialConvergence is origination to fleet quiescence.
	InitialConvergence time.Duration `json:"initial_convergence"`
	// ScenarioConvergence is first scenario event to fleet quiescence
	// (zero for scripts with no events).
	ScenarioConvergence time.Duration `json:"scenario_convergence"`
	// ConvCDF is the per-AS wall-clock convergence distribution of the
	// scenario phase: for each AS whose best route changed, the time from
	// scenario start to its last change.
	ConvCDF *metrics.CDF `json:"-"`
}

// Run executes one full emulation: boot the fabric, originate at the
// script's destination, converge, apply the script's events at their
// offsets, converge again, and snapshot tables and stats. The fabric is
// torn down before returning.
func Run(opts Options, script scenario.Script) (*Result, error) {
	f, err := New(opts)
	if err != nil {
		return nil, err
	}
	defer f.Close()

	res := &Result{}
	t0 := time.Now()
	if err := f.Boot(); err != nil {
		return nil, err
	}
	res.Boot = time.Since(t0)

	// Convergence is measured to the retirement that emptied the
	// in-flight count, not to when WaitConverged noticed.
	t1 := time.Now()
	f.Originate(script.Dest)
	if err := f.WaitConverged(); err != nil {
		return nil, err
	}
	res.InitialConvergence = f.quietSince(t1)

	if len(script.Events) > 0 {
		t2 := time.Now()
		if err := f.RunScript(script); err != nil {
			return nil, err
		}
		if err := f.WaitConverged(); err != nil {
			return nil, err
		}
		res.ScenarioConvergence = f.quietSince(t2)
		res.ConvCDF = metrics.NewCDF(f.convergenceSamples(t2))
	}

	res.Tables = f.Tables()
	res.Stats = f.Stats()
	return res, f.Err()
}

// quietSince is the time from start to when the in-flight count last
// emptied; zero when it has not emptied since start.
func (f *Fabric) quietSince(start time.Time) time.Duration {
	_, at := f.inFlight()
	if d := at.Sub(start); d > 0 {
		return d
	}
	return 0
}
