package runner

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sync/atomic"
	"testing"
	"time"
)

// trialValue is a deliberately order-sensitive per-trial computation: it
// consumes a different number of RNG draws per trial so any leakage of a
// shared random stream across trials would show up immediately.
func trialValue(t Trial) float64 {
	rng := rand.New(rand.NewSource(t.Seed))
	n := 1 + rng.Intn(17)
	v := 0.0
	for i := 0; i < n; i++ {
		v += rng.Float64()
	}
	return v
}

// TestRunDeterministicAcrossWorkers: Run must return identical slices for
// any worker count.
func TestRunDeterministicAcrossWorkers(t *testing.T) {
	spec := Spec[float64]{Name: "det", Trials: 64, Seed: 42,
		Run: func(tr Trial) (float64, error) { return trialValue(tr), nil }}
	var base []float64
	for _, w := range []int{1, 2, 4, 8, 64} {
		got, err := Run(spec, Options{Workers: w})
		if err != nil {
			t.Fatal(err)
		}
		if base == nil {
			base = got
			continue
		}
		for i := range got {
			if got[i] != base[i] {
				t.Fatalf("workers=%d: trial %d = %v, want %v", w, i, got[i], base[i])
			}
		}
	}
}

// TestFoldOrder: Fold must merge strictly in index order even when
// completion order is scrambled by the pool.
func TestFoldOrder(t *testing.T) {
	spec := Spec[int]{Name: "order", Trials: 100, Seed: 7,
		Run: func(tr Trial) (int, error) { return tr.Index, nil }}
	for _, w := range []int{1, 3, 16} {
		got, err := Fold(spec, Options{Workers: w}, []int(nil),
			func(acc []int, _ Trial, v int) []int { return append(acc, v) })
		if err != nil {
			t.Fatal(err)
		}
		for i, v := range got {
			if v != i {
				t.Fatalf("workers=%d: fold position %d got trial %d", w, i, v)
			}
		}
	}
}

// TestFoldFloatDeterminism: floating-point accumulation (order-sensitive)
// must be bit-identical across worker counts because folding is ordered.
func TestFoldFloatDeterminism(t *testing.T) {
	spec := Spec[float64]{Name: "float", Trials: 200, Seed: 99,
		Run: func(tr Trial) (float64, error) { return trialValue(tr), nil }}
	var base float64
	for i, w := range []int{1, 8} {
		sum, err := Fold(spec, Options{Workers: w}, 0.0,
			func(acc float64, _ Trial, v float64) float64 { return acc + v })
		if err != nil {
			t.Fatal(err)
		}
		if i == 0 {
			base = sum
		} else if sum != base {
			t.Fatalf("workers=%d: sum %v != workers=1 sum %v", w, sum, base)
		}
	}
}

// TestRunError: a failing trial surfaces with spec name and index, and
// with one worker the lowest-indexed failure wins.
func TestRunError(t *testing.T) {
	boom := errors.New("boom")
	spec := Spec[int]{Name: "failing", Trials: 10, Seed: 1,
		Run: func(tr Trial) (int, error) {
			if tr.Index >= 4 {
				return 0, boom
			}
			return tr.Index, nil
		}}
	_, err := Run(spec, Options{Workers: 1})
	if !errors.Is(err, boom) {
		t.Fatalf("error not propagated: %v", err)
	}
	want := `runner: failing trial 4: boom`
	if err.Error() != want {
		t.Fatalf("error = %q, want %q", err.Error(), want)
	}
}

// TestProgress: the callback must be serialized, non-decreasing, and end
// at (total, total).
func TestProgress(t *testing.T) {
	spec := Spec[int]{Name: "progress", Trials: 32, Seed: 5,
		Run: func(tr Trial) (int, error) { return 0, nil }}
	last := 0
	_, err := Run(spec, Options{Workers: 4, Progress: func(done, total int) {
		if total != 32 {
			t.Errorf("total = %d, want 32", total)
		}
		if done < last {
			t.Errorf("done went backwards: %d after %d", done, last)
		}
		last = done
	}})
	if err != nil {
		t.Fatal(err)
	}
	if last != 32 {
		t.Fatalf("final done = %d, want 32", last)
	}
}

// TestZeroTrials: an empty spec completes without running anything.
func TestZeroTrials(t *testing.T) {
	spec := Spec[int]{Name: "empty", Trials: 0, Seed: 1,
		Run: func(tr Trial) (int, error) { t.Error("ran a trial"); return 0, nil }}
	got, err := Run(spec, Options{})
	if err != nil || len(got) != 0 {
		t.Fatalf("got %v, %v", got, err)
	}
}

// TestDeriveSeed: derived seeds must differ across indices, be stable,
// and be order-sensitive in their stream path.
func TestDeriveSeed(t *testing.T) {
	seen := make(map[int64]string)
	for master := int64(0); master < 4; master++ {
		for i := int64(0); i < 1000; i++ {
			s := DeriveSeed(master, i)
			key := fmt.Sprintf("m%d i%d", master, i)
			if prev, dup := seen[s]; dup {
				t.Fatalf("seed collision: %s and %s both -> %d", prev, key, s)
			}
			seen[s] = key
		}
	}
	if DeriveSeed(1, 2, 3) == DeriveSeed(1, 3, 2) {
		t.Error("stream path is not order-sensitive")
	}
	if DeriveSeed(1, 2) != DeriveSeed(1, 2) {
		t.Error("derivation is not stable")
	}
	tr := Trial{Index: 3, Seed: DeriveSeed(9, 3)}
	if tr.Derive(5) != DeriveSeed(DeriveSeed(9, 3), 5) {
		t.Error("Trial.Derive disagrees with DeriveSeed")
	}
}

// TestCancellation: once the context is canceled, no new trials are
// dispatched, trials blocked on Trial.Ctx unblock promptly, and Fold
// returns the context's error instead of draining the whole pool.
func TestCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	const trials = 64
	var started atomic.Int64
	release := make(chan struct{})
	spec := Spec[int]{
		Name:   "cancelable",
		Trials: trials,
		Seed:   1,
		Run: func(tr Trial) (int, error) {
			if started.Add(1) == 2 {
				close(release)
			}
			// An in-flight trial observes its context, exactly like a
			// sim engine with SetCancel installed.
			select {
			case <-tr.Ctx.Done():
				return 0, tr.Ctx.Err()
			case <-time.After(30 * time.Second):
				return tr.Index, nil
			}
		},
	}
	go func() {
		<-release
		cancel()
	}()
	done := make(chan struct{})
	var foldErr error
	merged := 0
	go func() {
		defer close(done)
		_, foldErr = Fold(spec, Options{Workers: 2, Context: ctx}, 0,
			func(a int, _ Trial, _ int) int { merged = a + 1; return merged })
	}()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("Fold did not return after cancellation; pool drained instead")
	}
	if !errors.Is(foldErr, context.Canceled) {
		t.Fatalf("Fold error = %v, want context.Canceled", foldErr)
	}
	if n := started.Load(); n >= trials {
		t.Errorf("all %d trials were dispatched despite cancellation", n)
	}
}

// TestCancelBeforeStart: a context canceled before Run is called
// dispatches nothing.
func TestCancelBeforeStart(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	spec := Spec[int]{Name: "dead", Trials: 8, Seed: 1,
		Run: func(tr Trial) (int, error) { t.Error("ran a trial"); return 0, nil }}
	if _, err := Run(spec, Options{Context: ctx}); !errors.Is(err, context.Canceled) {
		t.Fatalf("Run error = %v, want context.Canceled", err)
	}
}

// TestTrialCtxDefaultsToBackground: without an Options.Context, trials
// still receive a non-nil context.
func TestTrialCtxDefaultsToBackground(t *testing.T) {
	spec := Spec[int]{Name: "bg", Trials: 1, Seed: 1,
		Run: func(tr Trial) (int, error) {
			if tr.Ctx == nil {
				t.Error("Trial.Ctx is nil")
			} else if err := tr.Ctx.Err(); err != nil {
				t.Errorf("Trial.Ctx already done: %v", err)
			}
			return 0, nil
		}}
	if _, err := Run(spec, Options{}); err != nil {
		t.Fatal(err)
	}
}

// Derive returns a sub-seed of the trial's seed for an independent random
// stream (e.g. one per protocol under test within the same workload).
func (t Trial) Derive(stream int64) int64 { return DeriveSeed(t.Seed, stream) }
