package traffic

import (
	"fmt"
	"time"

	"stamp/internal/emu"
	"stamp/internal/scenario"
)

// EmuOpts configures one live flow-injection run: the same synthetic
// flows as RunSim, but driven through the live fabric's wall-clock
// forwarding tables while the scenario script executes against real
// sessions.
type EmuOpts struct {
	// Fabric configures the live fleet (Graph required). The fleet is
	// STAMP-only, so the emu backend always exercises the STAMP data
	// plane.
	Fabric emu.Options
	// Script is the failure workload, applied at wall-clock offsets.
	Script scenario.Script
	// Flows is the number of flows per source AS (default 1).
	Flows int
	// Tick is the wall-clock sampling interval (default 10ms).
	Tick time.Duration
	// Ticks is the number of samples from script start (default 150).
	Ticks int
}

func (o EmuOpts) withDefaults() EmuOpts {
	if o.Flows <= 0 {
		o.Flows = DefaultFlows
	}
	if o.Tick <= 0 {
		o.Tick = DefaultEmuTick
	}
	if o.Ticks <= 0 {
		o.Ticks = DefaultEmuTicks
	}
	return o
}

// stampTables views a live DataPlane snapshot as walker input (the
// shapes are identical; only slice headers are copied).
func stampTables(dp *emu.DataPlane) StampTables {
	return StampTables{
		NextRed: dp.NextRed, NextBlue: dp.NextBlue,
		UnstableRed: dp.UnstableRed, UnstableBlue: dp.UnstableBlue,
		Pref: dp.Pref,
	}
}

// RunEmu boots the live fabric, converges it, then executes the script
// while sampling the fleet's forwarding state at wall-clock ticks; every
// sample is classified by the same batched walker the simulator backend
// uses. After the script and re-convergence, the final deliverability is
// recorded. The fabric is torn down before returning.
func RunEmu(o EmuOpts) (*Curve, error) {
	o = o.withDefaults()
	if o.Fabric.Graph == nil {
		return nil, fmt.Errorf("traffic: nil topology")
	}
	f, err := emu.New(o.Fabric)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	if err := f.Boot(); err != nil {
		return nil, err
	}
	f.Originate(o.Script.Dest)
	if err := f.WaitConverged(); err != nil {
		return nil, err
	}

	var walker Walker
	dest := int32(o.Script.Dest)
	baseline := &Walk{}
	walker.WalkStamp(stampTables(f.DataPlane()), dest, baseline)

	cur, err := newCurve(STAMP, o.Flows, o.Ticks, o.Tick, o.Fabric.Graph.Len())
	if err != nil {
		return nil, err
	}

	// The script (with its built-in waits) and post-script convergence
	// run concurrently with the sampling loop.
	done := make(chan error, 1)
	go func() {
		if err := f.RunScript(o.Script); err != nil {
			done <- err
			return
		}
		done <- f.WaitConverged()
	}()

	start := time.Now()
	w := &Walk{}
	for i := 1; i <= o.Ticks; i++ {
		if d := time.Until(start.Add(time.Duration(i) * o.Tick)); d > 0 {
			time.Sleep(d)
		}
		walker.WalkStamp(stampTables(f.DataPlane()), dest, w)
		cur.observe(i, w, baseline, true)
	}
	if err := <-done; err != nil {
		return nil, err
	}
	walker.WalkStamp(stampTables(f.DataPlane()), dest, &cur.Final)
	cur.finish()
	return cur, f.Err()
}

// The sim-vs-live transient-deliverability parity recipe — the live
// curve diffed against the simulator in the deterministic reference
// configuration (emu.ReferenceParams, first-candidate lock picks) —
// lives in internal/lab's runLossParity (the loss experiment on the emu
// backend), which runs RunEmu and RunSim side by side. Its fixture test
// is internal/lab's TestSimEmuTransientParity.
