package forwarding

import (
	"testing"

	"stamp/internal/bgp"
	"stamp/internal/topology"
)

func TestClassifySingleDelivery(t *testing.T) {
	// 0 -> 1 -> 2 (dest).
	next := map[topology.ASN]topology.ASN{0: 1, 1: 2}
	st := ClassifySingle(3, 2, func(v topology.ASN) (topology.ASN, bool) {
		nh, ok := next[v]
		return nh, ok
	})
	for v, r := range st {
		if r.Status != Delivered {
			t.Errorf("status[%d] = %v, want delivered", v, r.Status)
		}
	}
	for v, want := range []int32{2, 1, 0} {
		if st[v].Hops != want {
			t.Errorf("hops[%d] = %d, want %d", v, st[v].Hops, want)
		}
	}
}

func TestClassifySingleLoop(t *testing.T) {
	// 0 -> 1 -> 0 loop; 2 feeds into the loop; dest 3 isolated.
	next := map[topology.ASN]topology.ASN{0: 1, 1: 0, 2: 0}
	st := ClassifySingle(4, 3, func(v topology.ASN) (topology.ASN, bool) {
		nh, ok := next[v]
		return nh, ok
	})
	for _, v := range []topology.ASN{0, 1, 2} {
		if st[v].Status != Loop {
			t.Errorf("status[%d] = %v, want loop", v, st[v].Status)
		}
		if st[v].Hops != NoHops {
			t.Errorf("hops[%d] = %d, want NoHops", v, st[v].Hops)
		}
	}
	if st[3].Status != Delivered || st[3].Hops != 0 {
		t.Errorf("dest result = %+v, want delivered at 0 hops", st[3])
	}
}

func TestClassifySingleBlackhole(t *testing.T) {
	next := map[topology.ASN]topology.ASN{0: 1} // 1 has no route
	st := ClassifySingle(3, 2, func(v topology.ASN) (topology.ASN, bool) {
		nh, ok := next[v]
		return nh, ok
	})
	if st[0].Status != Blackhole || st[1].Status != Blackhole {
		t.Errorf("results = %v, want blackholes at 0 and 1", st)
	}
	if st[0].Hops != NoHops {
		t.Errorf("hops[0] = %d, want NoHops", st[0].Hops)
	}
}

func TestClassifySingleSelfDelivery(t *testing.T) {
	// An AS returning itself is treated as local delivery (origin).
	st := ClassifySingle(2, 1, func(v topology.ASN) (topology.ASN, bool) {
		if v == 0 {
			return 0, true
		}
		return 0, false
	})
	if st[0].Status != Delivered || st[0].Hops != 0 {
		t.Errorf("result[0] = %+v, want delivered (self) at 0 hops", st[0])
	}
}

// stampFake implements StampState from maps.
type stampFake struct {
	next     map[topology.ASN]map[bgp.Color]topology.ASN
	unstable map[topology.ASN]map[bgp.Color]bool
	pref     map[topology.ASN]bgp.Color
}

func (f stampFake) NextHop(as topology.ASN, c bgp.Color) (topology.ASN, bool) {
	nh, ok := f.next[as][c]
	return nh, ok
}
func (f stampFake) Unstable(as topology.ASN, c bgp.Color) bool { return f.unstable[as][c] }
func (f stampFake) Preferred(as topology.ASN) bgp.Color {
	if c, ok := f.pref[as]; ok {
		return c
	}
	return bgp.ColorRed
}

func TestClassifyStampSwitchOnce(t *testing.T) {
	// Red plane: 0 -> 1, but 1's red is gone; 1's blue -> 2 (dest).
	f := stampFake{
		next: map[topology.ASN]map[bgp.Color]topology.ASN{
			0: {bgp.ColorRed: 1},
			1: {bgp.ColorBlue: 2},
		},
		unstable: map[topology.ASN]map[bgp.Color]bool{},
	}
	st := ClassifyStamp(3, 2, f)
	if st[0].Status != Delivered {
		t.Errorf("status[0] = %v, want delivered via color switch", st[0].Status)
	}
	if st[0].Hops != 2 {
		t.Errorf("hops[0] = %d, want 2", st[0].Hops)
	}
}

func TestClassifyStampSecondSwitchForbidden(t *testing.T) {
	// 0 red -> 1; 1 has only blue -> 2; 2 has only red -> 3... a packet
	// switching at 1 (red->blue) cannot switch back at 2.
	f := stampFake{
		next: map[topology.ASN]map[bgp.Color]topology.ASN{
			0: {bgp.ColorRed: 1},
			1: {bgp.ColorBlue: 2},
			2: {bgp.ColorRed: 3},
		},
		unstable: map[topology.ASN]map[bgp.Color]bool{},
	}
	st := ClassifyStamp(4, 3, f)
	if st[0].Status != Blackhole {
		t.Errorf("status[0] = %v, want blackhole (second switch forbidden)", st[0].Status)
	}
}

func TestClassifyStampUnstableSwitch(t *testing.T) {
	// 0's red is unstable and would loop; blue delivers. The packet must
	// switch at 0 because red is flagged.
	f := stampFake{
		next: map[topology.ASN]map[bgp.Color]topology.ASN{
			0: {bgp.ColorRed: 1, bgp.ColorBlue: 2},
			1: {bgp.ColorRed: 0},
		},
		unstable: map[topology.ASN]map[bgp.Color]bool{
			0: {bgp.ColorRed: true},
		},
	}
	st := ClassifyStamp(3, 2, f)
	if st[0].Status != Delivered {
		t.Errorf("status[0] = %v, want delivered via unstable-triggered switch", st[0].Status)
	}
}

func TestClassifyStampBothUnstableKeepsRoute(t *testing.T) {
	// Both colors unstable but red has a route: "either process that
	// still has a route can be used" — no pointless switch.
	f := stampFake{
		next: map[topology.ASN]map[bgp.Color]topology.ASN{
			0: {bgp.ColorRed: 1, bgp.ColorBlue: 1},
			1: {bgp.ColorRed: 2, bgp.ColorBlue: 2},
		},
		unstable: map[topology.ASN]map[bgp.Color]bool{
			0: {bgp.ColorRed: true, bgp.ColorBlue: true},
		},
	}
	st := ClassifyStamp(3, 2, f)
	if st[0].Status != Delivered {
		t.Errorf("status[0] = %v, want delivered on unstable-but-present route", st[0].Status)
	}
}

func TestClassifyStampLoopDetected(t *testing.T) {
	// Red loop 0 <-> 1 with no blue anywhere.
	f := stampFake{
		next: map[topology.ASN]map[bgp.Color]topology.ASN{
			0: {bgp.ColorRed: 1},
			1: {bgp.ColorRed: 0},
		},
		unstable: map[topology.ASN]map[bgp.Color]bool{},
	}
	st := ClassifyStamp(3, 2, f)
	if st[0].Status != Loop || st[1].Status != Loop {
		t.Errorf("results = %v, want loops", st)
	}
}

func TestAffectedAccumulates(t *testing.T) {
	acc := make([]bool, 3)
	n1 := Affected(acc, []Result{{Delivered, 1}, {Loop, NoHops}, {Delivered, 0}})
	if n1 != 1 || !acc[1] {
		t.Errorf("first merge: n=%d acc=%v", n1, acc)
	}
	n2 := Affected(acc, []Result{{Blackhole, NoHops}, {Loop, NoHops}, {Delivered, 0}})
	if n2 != 1 || !acc[0] {
		t.Errorf("second merge: n=%d acc=%v", n2, acc)
	}
}

func TestCountNot(t *testing.T) {
	res := []Result{{Delivered, 1}, {Loop, NoHops}, {Blackhole, NoHops}}
	if got := CountNot(res, Delivered); got != 2 {
		t.Errorf("CountNot = %d, want 2", got)
	}
}

func TestMeanStretch(t *testing.T) {
	base := []Result{{Delivered, 2}, {Delivered, 3}, {Delivered, 0}, {Blackhole, NoHops}}
	cur := []Result{{Delivered, 4}, {Delivered, 3}, {Delivered, 5}, {Delivered, 1}}
	// Qualifying sources: 0 (4/2 = 2) and 1 (3/3 = 1); source 2 has a
	// zero baseline (it is the dest), source 3 was not delivered at base.
	got, ok := MeanStretch(base, cur)
	if !ok || got != 1.5 {
		t.Errorf("MeanStretch = (%g, %v), want (1.5, true)", got, ok)
	}
	if _, ok := MeanStretch(base, []Result{{Loop, NoHops}}); ok {
		t.Error("MeanStretch over no qualifying sources should report !ok")
	}
}

func TestStatusString(t *testing.T) {
	for s, want := range map[Status]string{Delivered: "delivered", Loop: "loop", Blackhole: "blackhole"} {
		if s.String() != want {
			t.Errorf("%d.String() = %q", s, s.String())
		}
	}
}
