package lab

import (
	"encoding/binary"
	"hash/fnv"
	"math"
	"testing"

	"stamp/internal/metrics"
	"stamp/internal/runner"
	"stamp/internal/scenario"
	"stamp/internal/sim"
	"stamp/internal/steer"
	"stamp/internal/traffic"
)

// TestTransientFingerprintPinned pins every field of every transient
// shard, in shard order, for every scenario kind the harness accepts ×
// the four protocols at two (n, seed) pairs. A change to how a
// transient trial builds, perturbs or classifies its simulation that
// moves any count, duration, message total or stretch bit fails here.
func TestTransientFingerprintPinned(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation")
	}
	kinds := []scenario.Kind{
		scenario.SingleLink, scenario.TwoLinksApart, scenario.TwoLinksShared,
		scenario.NodeFailure, scenario.LinkFlap, scenario.PrefixWithdraw,
		scenario.FlapStorm, scenario.LatencyBrownout, scenario.GrayFailure,
		scenario.OscillatingCongestion,
	}
	for _, tc := range []struct {
		n    int
		seed int64
		want uint64
	}{
		{150, 3, 0xc7c7e57902cd824a},
		{300, 11, 0xdec2fc67e3f3d83a},
	} {
		g := smokeGraph(t, tc.n, tc.seed)
		h := fnv.New64a()
		var buf [8]byte
		put := func(vs ...int64) {
			for _, v := range vs {
				binary.LittleEndian.PutUint64(buf[:], uint64(v))
				h.Write(buf[:])
			}
		}
		shards := 0
		for _, kind := range kinds {
			w := newWorkload(g, kind, traffic.AllProtocols(), tc.seed)
			outs, err := runner.Run(shardSpec("transient", w, 3, transientRun(sim.DefaultParams())), runner.Options{})
			if err != nil {
				t.Fatalf("%v: %v", kind, err)
			}
			for _, o := range outs {
				valid := int64(0)
				if o.StretchValid {
					valid = 1
				}
				put(int64(o.Trial), int64(o.Proto), int64(o.Affected), int64(o.Convergence),
					o.Updates, o.Withdrawals, o.InitialUpdates,
					int64(math.Float64bits(o.Stretch)), valid)
			}
			shards += len(outs)
		}
		if got := h.Sum64(); got != tc.want {
			t.Errorf("GenerateDefault(%d, %d): transient fingerprint = %#x over %d shards, want %#x",
				tc.n, tc.seed, got, shards, tc.want)
		}
	}
}

// TestCurveFingerprintPinned pins every shard's curve, in shard order,
// of the two packet-level harnesses at two (n, seed) pairs: the loss
// experiment's four protocols on link-failure and two-links-shared, and
// the steering grid's four arms on latency-brownout and gray-failure. A
// change to how a curve shard picks its script, seeds its engine or
// configures its arm that moves any loss integral, affected count,
// per-tick sum, user-latency bit or switch count fails here.
func TestCurveFingerprintPinned(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation")
	}
	for _, tc := range []struct {
		n    int
		seed int64
		want uint64
	}{
		{150, 3, 0xa0038162cad03119},
		{300, 11, 0x4e650d541de09170},
	} {
		g := smokeGraph(t, tc.n, tc.seed)
		h := fnv.New64a()
		var buf [8]byte
		put := func(vs ...int64) {
			for _, v := range vs {
				binary.LittleEndian.PutUint64(buf[:], uint64(v))
				h.Write(buf[:])
			}
		}
		putCurve := func(c *traffic.Curve, switches, unhealthy int64) {
			put(int64(c.Proto), c.LostPacketTicks, c.TransientLostPacketTicks,
				int64(c.EverAffected), int64(c.TransientAffected))
			for _, ts := range []*metrics.TimeSeries{c.Lost, c.Delivered, c.Stretch, c.UserLatency} {
				if ts == nil {
					put(-1)
					continue
				}
				put(int64(ts.Len()))
				for i := 0; i < ts.Len(); i++ {
					put(int64(math.Float64bits(ts.Sum(i))), ts.Count(i))
				}
			}
			put(int64(math.Float64bits(c.UserLatencyMeanMs)), c.SteerSwitches, switches, unhealthy)
		}
		shards := 0
		for _, kind := range []scenario.Kind{scenario.SingleLink, scenario.TwoLinksShared} {
			w := newWorkload(g, kind, traffic.AllProtocols(), tc.seed)
			loss := &LossResult{Flows: 1, Tick: traffic.DefaultTick, Ticks: traffic.DefaultTicks}
			outs, err := runner.Run(shardSpec("loss", w, 3, loss.run), runner.Options{})
			if err != nil {
				t.Fatalf("loss %v: %v", kind, err)
			}
			for _, c := range outs {
				putCurve(c, 0, 0)
			}
			shards += len(outs)
		}
		for _, kind := range []scenario.Kind{scenario.LatencyBrownout, scenario.GrayFailure} {
			w := newWorkload(g, kind, traffic.GridProtocols(), tc.seed)
			grid := &SteerResult{Flows: 1, Tick: traffic.DefaultTick, Ticks: steerTicks,
				TimeoutMs: traffic.DefaultTimeoutMs, Config: steer.DefaultConfig(), seed: tc.seed}
			outs, err := runner.Run(shardSpec("steer", w, 3, grid.run), runner.Options{})
			if err != nil {
				t.Fatalf("grid %v: %v", kind, err)
			}
			for _, o := range outs {
				putCurve(o.curve, o.curve.SteerSwitches, o.unhealthy)
			}
			shards += len(outs)
		}
		if got := h.Sum64(); got != tc.want {
			t.Errorf("GenerateDefault(%d, %d): curve fingerprint = %#x over %d shards, want %#x",
				tc.n, tc.seed, got, shards, tc.want)
		}
	}
}
