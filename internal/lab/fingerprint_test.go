package lab

import (
	"encoding/binary"
	"hash/fnv"
	"math"
	"testing"

	"stamp/internal/runner"
	"stamp/internal/scenario"
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
			spec := transientSpec(TransientOpts{G: g, Trials: 3, Seed: tc.seed, Scenario: kind}.normalized())
			outs, err := runner.Run(spec, runner.Options{})
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
