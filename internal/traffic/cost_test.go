package traffic

import (
	"math/rand"
	"testing"
)

// pairCost is a hand-written link cost: distinct latency/loss per
// normalized endpoint pair, so an index-mapping bug in the walker's
// cost accumulation (real AS vs color-plane state id) shows up as a
// wrong sum, not a lucky match.
type pairCost struct {
	lat  map[[2]int32]float64
	loss map[[2]int32]float64
}

func pk(a, b int32) [2]int32 {
	if b < a {
		a, b = b, a
	}
	return [2]int32{a, b}
}

func (c pairCost) LinkLatMs(a, b int32) float64    { return c.lat[pk(a, b)] }
func (c pairCost) LinkLossRate(a, b int32) float64 { return c.loss[pk(a, b)] }

// TestWalkSingleCost: chain, local delivery, loop, and no-route latency
// accounting on a hand-built single-plane snapshot.
func TestWalkSingleCost(t *testing.T) {
	// 0 -> 1 -> 2 (dest), 3 -> 4 -> 3 loop, 5 no route.
	next := []int32{1, 2, 2, 4, 3, -1}
	cost := pairCost{
		lat:  map[[2]int32]float64{pk(0, 1): 5, pk(1, 2): 7, pk(3, 4): 100},
		loss: map[[2]int32]float64{pk(0, 1): 0.1, pk(1, 2): 0.2},
	}
	w := Walker{Cost: cost}
	var out Walk
	w.WalkSingle(next, 2, &out)

	if out.LatMs[2] != 0 || out.LossP[2] != 0 {
		t.Errorf("dest: lat %v loss %v, want 0/0", out.LatMs[2], out.LossP[2])
	}
	if out.LatMs[1] != 7 {
		t.Errorf("1: lat %v, want 7", out.LatMs[1])
	}
	if got, want := out.LossP[1], 1-float32(1-0.2); got != want {
		t.Errorf("1: loss %v, want %v", got, want)
	}
	if out.LatMs[0] != 12 {
		t.Errorf("0: lat %v, want 5+7", out.LatMs[0])
	}
	// Survival 0.9 × 0.8 = 0.72 -> loss 0.28 (float32 arithmetic).
	if got, want := out.LossP[0], 1-float32(1-0.1)*float32(1-0.2); got != want {
		t.Errorf("0: loss %v, want %v", got, want)
	}
	for _, v := range []int{3, 4, 5} {
		if out.Status[v] == Delivered {
			t.Fatalf("%d delivered, want undelivered", v)
		}
		if out.LatMs[v] != NoLat || out.LossP[v] != 1 {
			t.Errorf("%d: lat %v loss %v, want NoLat/1", v, out.LatMs[v], out.LossP[v])
		}
	}
}

// TestWalkStampCostSwitchOnce: a packet that switches color mid-path
// must accumulate cost over the real links it crossed, across the
// plane boundary.
func TestWalkStampCostSwitchOnce(t *testing.T) {
	// Red: 0 -> 1, then 1 is red-unstable and switches to blue, blue
	// 1 -> 2 delivers. Source 1 (red-preferring) switches immediately.
	tables := StampTables{
		NextRed:      []int32{1, -1, 2},
		NextBlue:     []int32{0, 2, 2},
		UnstableRed:  []bool{false, true, false},
		UnstableBlue: []bool{false, false, false},
		Pref:         []uint8{0, 0, 0},
	}
	cost := pairCost{
		lat:  map[[2]int32]float64{pk(0, 1): 5, pk(1, 2): 7},
		loss: map[[2]int32]float64{pk(1, 2): 0.25},
	}
	w := Walker{Cost: cost}
	var out Walk
	w.WalkStamp(tables, 2, &out)

	for v, st := range out.Status {
		if st != Delivered {
			t.Fatalf("%d: %v, want delivered", v, st)
		}
	}
	if out.LatMs[0] != 12 || out.LatMs[1] != 7 || out.LatMs[2] != 0 {
		t.Errorf("lat = %v, want [12 7 0]", out.LatMs)
	}
	if got, want := out.LossP[0], float32(0.25); got != want {
		t.Errorf("0: loss %v, want %v (only link 1--2 is lossy)", got, want)
	}
}

// TestWalkCostNilEquivalence: attaching a cost model must not change
// status or hop classification on random snapshots — the cost arrays
// are a pure addition.
func TestWalkCostNilEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	cost := pairCost{lat: map[[2]int32]float64{}, loss: map[[2]int32]float64{}}
	plain := Walker{}
	costed := Walker{Cost: cost}
	for trial := 0; trial < 100; trial++ {
		n := 2 + rng.Intn(50)
		tables, dest := randStamp(rng, n)
		var a, b Walk
		plain.WalkStamp(tables, dest, &a)
		costed.WalkStamp(tables, dest, &b)
		for v := 0; v < n; v++ {
			if a.Status[v] != b.Status[v] || a.Hops[v] != b.Hops[v] {
				t.Fatalf("trial %d: cost model changed classification of %d: %v/%d vs %v/%d",
					trial, v, a.Status[v], a.Hops[v], b.Status[v], b.Hops[v])
			}
		}
		if b.LatMs == nil || a.LatMs != nil {
			t.Fatal("cost arrays: want nil without model, non-nil with")
		}

		next, sdest := randSingle(rng, n)
		var c, d Walk
		plain.WalkSingle(next, sdest, &c)
		costed.WalkSingle(next, sdest, &d)
		for v := 0; v < n; v++ {
			if c.Status[v] != d.Status[v] || c.Hops[v] != d.Hops[v] {
				t.Fatalf("trial %d: cost model changed single classification of %d", trial, v)
			}
		}
	}
}
