package sim

import (
	"context"
	"errors"
	"testing"
	"time"
)

func TestEngineOrdering(t *testing.T) {
	e := NewEngine(DefaultParams(), 1)
	var order []int
	e.After(20*time.Millisecond, func() { order = append(order, 2) })
	e.After(10*time.Millisecond, func() { order = append(order, 1) })
	e.After(30*time.Millisecond, func() { order = append(order, 3) })
	if _, err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if len(order) != 3 || order[0] != 1 || order[1] != 2 || order[2] != 3 {
		t.Errorf("execution order = %v", order)
	}
	if e.Now() != 30*time.Millisecond {
		t.Errorf("Now = %v, want 30ms", e.Now())
	}
}

func TestEngineFIFOAtSameInstant(t *testing.T) {
	e := NewEngine(DefaultParams(), 1)
	var order []int
	e.After(0, func() { order = append(order, 1) })
	e.After(0, func() { order = append(order, 2) })
	if _, err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if order[0] != 1 || order[1] != 2 {
		t.Errorf("same-instant events reordered: %v", order)
	}
}

func TestEngineNestedScheduling(t *testing.T) {
	e := NewEngine(DefaultParams(), 1)
	hits := 0
	e.After(time.Millisecond, func() {
		hits++
		e.After(time.Millisecond, func() { hits++ })
	})
	n, err := e.Run()
	if err != nil {
		t.Fatal(err)
	}
	if hits != 2 || n != 2 {
		t.Errorf("hits=%d events=%d, want 2/2", hits, n)
	}
}

func TestEngineNegativeDelayClamped(t *testing.T) {
	e := NewEngine(DefaultParams(), 1)
	ran := false
	e.After(-time.Second, func() { ran = true })
	if _, err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if !ran || e.Now() != 0 {
		t.Error("negative delay not clamped to now")
	}
}

func TestEngineMaxEvents(t *testing.T) {
	p := DefaultParams()
	p.MaxEvents = 10
	e := NewEngine(p, 1)
	var loop func()
	loop = func() { e.After(time.Millisecond, loop) }
	loop()
	if _, err := e.Run(); err == nil {
		t.Error("runaway event loop not detected")
	}
}

func TestEngineDelayBounds(t *testing.T) {
	e := NewEngine(DefaultParams(), 42)
	for i := 0; i < 1000; i++ {
		d := e.Delay()
		if d < 10*time.Millisecond || d >= 20*time.Millisecond {
			t.Fatalf("delay %v outside [10ms, 20ms)", d)
		}
	}
}

func TestEngineMRAIBounds(t *testing.T) {
	e := NewEngine(DefaultParams(), 42)
	for i := 0; i < 1000; i++ {
		m := e.MRAI()
		if m < 22500*time.Millisecond || m > 30*time.Second {
			t.Fatalf("MRAI %v outside [22.5s, 30s]", m)
		}
	}
	p := DefaultParams()
	p.MRAIEnabled = false
	e2 := NewEngine(p, 1)
	if e2.MRAI() != 0 {
		t.Error("disabled MRAI should be zero")
	}
}

func TestEngineDeterminism(t *testing.T) {
	run := func() []time.Duration {
		e := NewEngine(DefaultParams(), 7)
		var ds []time.Duration
		for i := 0; i < 50; i++ {
			ds = append(ds, e.Delay(), e.MRAI())
		}
		return ds
	}
	a, b := run(), run()
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("same seed produced different samples")
		}
	}
}

func TestEngineRunUntil(t *testing.T) {
	e := NewEngine(DefaultParams(), 1)
	hits := 0
	e.After(10*time.Millisecond, func() { hits++ })
	e.After(50*time.Millisecond, func() { hits++ })
	if _, err := e.RunUntil(20 * time.Millisecond); err != nil {
		t.Fatal(err)
	}
	if hits != 1 {
		t.Errorf("hits = %d, want 1", hits)
	}
	if !e.Pending() {
		t.Error("later event lost")
	}
	if e.Now() != 20*time.Millisecond {
		t.Errorf("Now = %v, want deadline", e.Now())
	}
	if _, err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if hits != 2 {
		t.Errorf("hits = %d, want 2", hits)
	}
}

// TestEngineCancel: an engine with a canceled context installed stops
// mid-run with the context error instead of draining its queue.
func TestEngineCancel(t *testing.T) {
	e := NewEngine(DefaultParams(), 1)
	ctx, cancel := context.WithCancel(context.Background())
	e.SetCancel(ctx)
	// Self-rescheduling event: without cancellation this would run until
	// MaxEvents.
	var tick func()
	n := 0
	tick = func() {
		n++
		if n == 3*cancelCheckInterval {
			cancel()
		}
		e.After(time.Millisecond, tick)
	}
	e.After(0, tick)
	if _, err := e.Run(); !errors.Is(err, context.Canceled) {
		t.Fatalf("Run error = %v, want context.Canceled", err)
	}
	if n >= 4*cancelCheckInterval {
		t.Errorf("engine executed %d events after cancellation", n-3*cancelCheckInterval)
	}
}

// Pending reports whether any events remain queued.
func (e *Engine) Pending() bool { return len(e.events) > 0 }
