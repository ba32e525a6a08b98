// Package runner shards independent experiment trials across a worker
// pool with results that are bit-identical regardless of worker count.
//
// An experiment is described by a Spec: a fixed number of enumerable
// trials, each identified only by its index. Every trial receives a seed
// derived from the spec's master seed and its index (see DeriveSeed), so
// a trial's random choices never depend on scheduling order. Run returns
// all trial results in index order; Fold merges them into an aggregate
// strictly in index order as they stream in, so aggregation that is
// sensitive to ordering (appending to slices, floating-point summation)
// is still deterministic under any -workers setting.
//
// The pool is intentionally minimal: trials must not communicate, and
// anything they share (a topology graph, precomputed statistics) must be
// treated as read-only for the duration of the run.
package runner

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
)

// Trial identifies one unit of work inside a Spec.
type Trial struct {
	// Index is the trial's position in the enumeration, 0 <= Index < Trials.
	Index int
	// Seed is DeriveSeed(spec.Seed, Index): the trial's private root seed.
	Seed int64
	// Ctx is the run's cancellation context (never nil). Long trials
	// should observe it — e.g. by installing it on their sim engine — so
	// Ctrl-C interrupts work in flight instead of merely stopping new
	// dispatch.
	Ctx context.Context
}

// Spec describes a sharded experiment: Trials independent units of work,
// each produced by Run from nothing but its Trial identity.
type Spec[T any] struct {
	// Name labels the experiment in errors and progress reporting.
	Name string
	// Trials is the number of units of work to enumerate.
	Trials int
	// Seed is the master seed all trial seeds derive from.
	Seed int64
	// Run executes one trial. It is called concurrently from multiple
	// goroutines and must not mutate shared state.
	Run func(t Trial) (T, error)
}

// Options controls pool execution. The zero value runs one worker per
// available CPU with no progress reporting.
type Options struct {
	// Workers is the pool size; <= 0 means runtime.GOMAXPROCS(0).
	Workers int
	// Progress, when non-nil, is called with (done, total) after trials
	// complete. Calls are serialized and done is non-decreasing, but for
	// Fold "done" counts trials merged (contiguous prefix), not merely
	// finished.
	Progress func(done, total int)
	// Context cancels the run: no new trials are dispatched once it is
	// done, every trial sees it as Trial.Ctx, and Run/Fold return its
	// error. nil means context.Background().
	Context context.Context
	// Metrics, when non-nil, streams pool activity (trials started/done,
	// in-flight, worker count) into an obs registry.
	Metrics *Metrics
}

func (o Options) context() context.Context {
	if o.Context == nil {
		return context.Background()
	}
	return o.Context
}

func (o Options) workers(trials int) int {
	w := o.Workers
	if w <= 0 {
		w = runtime.GOMAXPROCS(0)
	}
	if w > trials {
		w = trials
	}
	if w < 1 {
		w = 1
	}
	return w
}

// Run executes all trials of spec and returns their results in index
// order. On error it stops dispatching new trials and returns the
// lowest-indexed failure observed, wrapped with the spec name and trial
// index. (Which trials ran before cancellation can depend on scheduling;
// only success results are guaranteed worker-count-independent.)
func Run[T any](spec Spec[T], opts Options) ([]T, error) {
	results := make([]T, max(spec.Trials, 0))
	err := dispatch(spec.Name, spec.Trials, spec.Seed, opts, func(t Trial) (T, error) {
		return spec.Run(t)
	}, func(t Trial, v T) {
		results[t.Index] = v
	}, nil)
	if err != nil {
		return nil, err
	}
	return results, nil
}

// Fold executes all trials and merges their results into acc strictly in
// index order: merge(merge(acc, r0), r1)… regardless of which worker
// finished first. Out-of-order results are buffered until the preceding
// ones arrive, so merge itself runs on a single goroutine and may mutate
// acc freely. On error the partially folded accumulator is returned
// alongside the error of the lowest-indexed failing trial.
func Fold[T, A any](spec Spec[T], opts Options, acc A, merge func(A, Trial, T) A) (A, error) {
	pending := make(map[int]T)
	next := 0
	ctx := opts.context()
	err := dispatch(spec.Name, spec.Trials, spec.Seed, opts, func(t Trial) (T, error) {
		return spec.Run(t)
	}, func(t Trial, v T) {
		pending[t.Index] = v
		for {
			r, ok := pending[next]
			if !ok {
				break
			}
			delete(pending, next)
			acc = merge(acc, Trial{Index: next, Seed: DeriveSeed(spec.Seed, int64(next)), Ctx: ctx}, r)
			next++
		}
	}, func() int { return next })
	return acc, err
}

// dispatch runs the pool. collect is called under a mutex with each
// completed trial's result; foldedDone (optional) overrides the "done"
// count reported to Progress.
func dispatch[T any](name string, trials int, seed int64, opts Options,
	run func(Trial) (T, error), collect func(Trial, T), foldedDone func() int) error {
	if trials <= 0 {
		return nil
	}
	ctx := opts.context()
	var (
		nextIdx  atomic.Int64
		failed   atomic.Bool
		mu       sync.Mutex
		wg       sync.WaitGroup
		firstErr error
		errIdx   = trials
		done     int
	)
	if m := opts.Metrics; m != nil {
		m.Workers.Set(int64(opts.workers(trials)))
	}
	for w := 0; w < opts.workers(trials); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(nextIdx.Add(1)) - 1
				if i >= trials || failed.Load() || ctx.Err() != nil {
					return
				}
				t := Trial{Index: i, Seed: DeriveSeed(seed, int64(i)), Ctx: ctx}
				if m := opts.Metrics; m != nil {
					m.TrialsStarted.Inc()
					m.InFlight.Inc()
				}
				v, err := run(t)
				if m := opts.Metrics; m != nil {
					m.InFlight.Dec()
					if err == nil {
						m.TrialsDone.Inc()
					}
				}
				mu.Lock()
				if err != nil {
					if i < errIdx {
						errIdx = i
						firstErr = err
					}
					failed.Store(true)
				} else {
					collect(t, v)
					done++
					if opts.Progress != nil {
						d := done
						if foldedDone != nil {
							d = foldedDone()
						}
						opts.Progress(d, trials)
					}
				}
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	label := name
	if label == "" {
		label = "experiment"
	}
	// Cancellation wins over trial errors: an interrupted trial fails
	// with the context's error anyway, and reporting it as an experiment
	// failure would misattribute an operator Ctrl-C to the workload.
	if err := ctx.Err(); err != nil {
		return fmt.Errorf("runner: %s canceled: %w", label, err)
	}
	if firstErr != nil {
		return fmt.Errorf("runner: %s trial %d: %w", label, errIdx, firstErr)
	}
	return nil
}
