package sim

import (
	"math/rand"
	"runtime"
	"testing"
	"time"
	"weak"

	"stamp/internal/topology"
)

// TestQueuePopOrderIsKeyOrder: under random interleaved pushes and pops
// with many events due at the same instant, every pop returns the
// (at, seq)-least queued event — the order a sort of the queue by
// (at, seq) gives.
func TestQueuePopOrderIsKeyOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	var q queue
	var ref []event // the queued events, in no particular order
	var seq int64
	popRef := func() event {
		m := 0
		for i := range ref {
			if ref[i].before(&ref[m]) {
				m = i
			}
		}
		ev := ref[m]
		ref = append(ref[:m], ref[m+1:]...)
		return ev
	}
	pops := 0
	for round := 0; round < 50_000; round++ {
		if len(q) == 0 || rng.Intn(20) < 11 {
			seq++
			ev := event{at: time.Duration(rng.Intn(6)), seq: seq}
			q.push(ev)
			ref = append(ref, ev)
			continue
		}
		got, want := q.pop(), popRef()
		if got.at != want.at || got.seq != want.seq {
			t.Fatalf("pop %d = (%v, %d), want (%v, %d)", pops, got.at, got.seq, want.at, want.seq)
		}
		pops++
	}
	for len(q) > 0 {
		got, want := q.pop(), popRef()
		if got.at != want.at || got.seq != want.seq {
			t.Fatalf("drain pop %d = (%v, %d), want (%v, %d)", pops, got.at, got.seq, want.at, want.seq)
		}
		pops++
	}
	if pops != int(seq) {
		t.Errorf("popped %d of %d pushed events", pops, seq)
	}
}

// TestQueuePushPopAllocs: once the backing array has grown, queueing
// and popping a value event allocates nothing.
func TestQueuePushPopAllocs(t *testing.T) {
	var q queue
	for i := 0; i < 64; i++ {
		q.push(event{at: time.Duration(i), seq: int64(i)})
	}
	seq := int64(64)
	payload := &recorder{}
	if a := testing.AllocsPerRun(1000, func() {
		seq++
		q.push(event{at: time.Duration(seq % 64), seq: seq, payload: payload, from: 1, to: 2})
		q.pop()
	}); a != 0 {
		t.Errorf("push+pop allocates %v times, want 0", a)
	}
}

// sink is a Node that drops everything delivered to it.
type sink struct{}

func (sink) Recv(topology.ASN, any) {}
func (sink) LinkDown(topology.ASN)  {}
func (sink) LinkUp(topology.ASN)    {}

// TestDeliveryAllocs: a send and its delivery allocate nothing beyond
// the payload the caller boxed.
func TestDeliveryAllocs(t *testing.T) {
	g := topology.NewGraph(2)
	if err := g.AddProviderLink(1, 0); err != nil {
		t.Fatal(err)
	}
	e := NewEngine(DefaultParams(), 1)
	n := NewNetwork(e, g)
	n.Register(1, sink{})
	payload := &recorder{}
	if a := testing.AllocsPerRun(1000, func() {
		n.Send(0, 1, payload)
		if _, err := e.Run(); err != nil {
			t.Fatal(err)
		}
	}); a != 0 {
		t.Errorf("send+deliver allocates %v times, want 0", a)
	}
}

// TestDeliveredPayloadIsCollectable: once a delivery event has popped
// and run, the queue keeps no reference to its payload.
func TestDeliveredPayloadIsCollectable(t *testing.T) {
	g := topology.NewGraph(2)
	if err := g.AddProviderLink(1, 0); err != nil {
		t.Fatal(err)
	}
	e := NewEngine(DefaultParams(), 1)
	n := NewNetwork(e, g)
	n.Register(1, sink{})
	payload := new([4096]byte)
	wp := weak.Make(payload)
	n.Send(0, 1, payload)
	payload = nil
	if _, err := e.Run(); err != nil {
		t.Fatal(err)
	}
	runtime.GC()
	if wp.Value() != nil {
		t.Error("a delivered payload is still reachable from the drained queue")
	}
	runtime.KeepAlive(n) // the network, and through it the engine, stay live
}
