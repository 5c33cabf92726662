// Package par is the reproduction's deterministic fan-out substrate: a
// bounded worker pool whose results are collected index-addressed, so the
// output of a parallel loop is identical — byte for byte — to the serial
// loop it replaced, at any worker count.
//
// Determinism rests on two rules the callers follow (DESIGN.md §8):
//
//  1. Tasks never share mutable state; each task i writes only results[i].
//  2. Tasks never advance a shared RNG; any randomness comes from a
//     substream derived per task (rngutil.Derive) so consumption order
//     cannot depend on scheduling.
//
// Under those rules Map's merge order equals input order regardless of how
// the scheduler interleaves workers, and workers=1 reproduces the old
// serial behaviour exactly.
package par

import (
	"context"
	"fmt"
	"runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"
	"time"

	"offnetrisk/internal/obs"
)

// Deterministic fan-out metrics: totals are functions of the task structure
// alone (never of timing or worker count), so they land in run manifests and
// survive the runsdiff drift gate. Wall-clock accounting — per-worker busy
// and idle time — lives on spans only, where it is quarantined like every
// other duration.
var (
	mTasks = obs.NewCounter("par.tasks_total",
		"tasks executed across all parallel regions")
	mRegions = obs.NewCounter("par.regions_total",
		"parallel regions (Map/ForEach fan-outs) entered")
)

// Options tunes a fan-out. The zero value is valid: GOMAXPROCS workers, no
// span attribution.
type Options struct {
	// Workers bounds the pool; <= 0 means runtime.GOMAXPROCS(0).
	Workers int
	// Name labels per-worker spans ("<Name>/worker-<w>"); empty disables
	// span attribution even when the context carries a span.
	Name string
}

// Workers normalizes a worker-count knob: n when positive, otherwise
// GOMAXPROCS. Shared by everything exposing a Workers field.
func Workers(n int) int {
	if n > 0 {
		return n
	}
	return runtime.GOMAXPROCS(0)
}

// panicError carries a recovered task panic to the caller as an error.
type panicError struct {
	index int
	value any
	stack []byte
}

func (e *panicError) Error() string {
	return fmt.Sprintf("par: task %d panicked: %v\n%s", e.index, e.value, e.stack)
}

// Map runs fn(ctx, i) for every i in [0, n) across a bounded worker pool
// and returns the results in input order. The first failure (lowest task
// index, so the choice is deterministic even when several tasks fail
// concurrently) stops the pool claiming higher indices and is returned; a
// task panic is captured as an error rather than crashing the process. When
// the parent context is cancelled mid-flight, Map stops claiming tasks and
// returns the context's error.
//
// When opts.Name is set and ctx carries a span (obs.ContextWithSpan), each
// worker opens a "<Name>/worker-<w>" child span recording the tasks it ran,
// the time it spent inside tasks (busy_ms), the time it idled waiting for
// work or stragglers (idle_ms), and its startup delay (queue_wait_ms); the
// parent span gains a one-line "par:<Name>" summary with the region's
// parallel efficiency (Σ busy / (workers × region wall)). The context
// passed to fn carries the worker's span so task code can attach children
// of its own. Span attribution is observability-only — it never alters
// results.
func Map[R any](ctx context.Context, n int, opts Options, fn func(ctx context.Context, i int) (R, error)) ([]R, error) {
	return MapLocal(ctx, n, opts, func() struct{} { return struct{}{} },
		func(ctx context.Context, i int, _ struct{}) (R, error) { return fn(ctx, i) })
}

// MapLocal is Map with per-worker scratch state: newState runs once per
// worker goroutine and its value is handed to every task that worker claims.
// It exists so hot kernels can reuse buffers across tasks without a sync.Pool
// or per-task allocation.
//
// The determinism rules extend to state: it may hold only scratch whose
// contents are fully overwritten by each task before use — a task's result
// must never depend on which tasks previously ran on the same worker, and
// must not retain references into the state after returning.
func MapLocal[S, R any](ctx context.Context, n int, opts Options, newState func() S, fn func(ctx context.Context, i int, state S) (R, error)) ([]R, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if n <= 0 {
		return nil, nil
	}
	workers := Workers(opts.Workers)
	if workers > n {
		workers = n
	}

	results := make([]R, n)
	errs := make([]error, n)
	parent := obs.SpanFromContext(ctx)
	mRegions.Inc()

	// Busy/idle accounting runs only in the instrumented case: an
	// uninstrumented hot loop pays no time.Now calls.
	timed := opts.Name != "" && parent != nil
	var regionStart time.Time
	if timed {
		regionStart = time.Now()
	}
	var totalTasks, totalBusyNS atomic.Int64

	// Workers claim indices from an atomic cursor; each task writes only
	// its own slot, so the interleaving never matters. workers==1 runs the
	// same loop on the calling goroutine — the serial case is not special.
	// A failure records its index in lowFailed, and workers stop claiming
	// past the lowest failed index. Every claimed index below it still runs
	// to completion (no internal cancellation reaches it), so the error
	// returned is the lowest-index failure on every run.
	var next atomic.Int64
	var lowFailed atomic.Int64
	lowFailed.Store(int64(n))
	work := func(w int) {
		wctx := ctx
		var ws *obs.Span
		var queueWait time.Duration
		if timed {
			ws = parent.Child(fmt.Sprintf("%s/worker-%d", opts.Name, w))
			ws.SetAttr("worker", w)
			wctx = obs.ContextWithSpan(ctx, ws)
			// Startup delay: how long after the region opened this worker
			// got scheduled and reached the claim loop.
			queueWait = time.Since(regionStart)
		}
		state := newState()
		tasks := 0
		var busy time.Duration
		for {
			i := next.Add(1) - 1
			if i >= lowFailed.Load() || ctx.Err() != nil {
				break
			}
			tasks++
			var t0 time.Time
			if timed {
				t0 = time.Now()
			}
			err := runTask(wctx, int(i), state, fn, results)
			if timed {
				busy += time.Since(t0)
			}
			if err != nil {
				errs[i] = err
				storeMin(&lowFailed, i)
				break
			}
		}
		totalTasks.Add(int64(tasks))
		if ws != nil {
			totalBusyNS.Add(int64(busy))
			idle := ws.Elapsed() - busy
			if idle < 0 {
				idle = 0
			}
			ws.SetAttr("tasks", tasks)
			ws.SetAttr("busy_ms", ms(busy))
			ws.SetAttr("idle_ms", ms(idle))
			ws.SetAttr("queue_wait_ms", ms(queueWait))
			ws.End()
		}
	}

	if workers == 1 {
		work(0)
	} else {
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				work(w)
			}(w)
		}
		wg.Wait()
	}

	mTasks.Add(totalTasks.Load())
	if timed {
		wall := time.Since(regionStart)
		eff := 0.0
		if wall > 0 {
			eff = float64(totalBusyNS.Load()) / (float64(wall) * float64(workers))
			if eff > 1 {
				eff = 1
			}
		}
		parent.SetAttr("par:"+opts.Name, fmt.Sprintf(
			"workers=%d tasks=%d busy=%.1fms wall=%.1fms eff=%.0f%%",
			workers, totalTasks.Load(), ms(time.Duration(totalBusyNS.Load())), ms(wall), 100*eff))
	}

	if low := lowFailed.Load(); low < int64(n) {
		return nil, errs[low]
	}
	if err := ctx.Err(); err != nil {
		// Cancelled from outside mid-flight.
		return nil, err
	}
	return results, nil
}

// storeMin lowers v to x unless v already holds a value <= x.
func storeMin(v *atomic.Int64, x int64) {
	for {
		old := v.Load()
		if x >= old || v.CompareAndSwap(old, x) {
			return
		}
	}
}

// ms renders a duration as float milliseconds for span attributes.
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// runTask executes one task with panic capture, writing its result slot.
func runTask[S, R any](ctx context.Context, i int, state S, fn func(ctx context.Context, i int, state S) (R, error), results []R) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = &panicError{index: i, value: r, stack: debug.Stack()}
		}
	}()
	r, err := fn(ctx, i, state)
	if err != nil {
		return err
	}
	results[i] = r
	return nil
}

// ForEach is Map for side-effect-only tasks (each task must still write
// only state owned by its index).
func ForEach(ctx context.Context, n int, opts Options, fn func(ctx context.Context, i int) error) error {
	_, err := Map(ctx, n, opts, func(ctx context.Context, i int) (struct{}, error) {
		return struct{}{}, fn(ctx, i)
	})
	return err
}

// ForEachLocal is ForEach with per-worker scratch state (see MapLocal).
func ForEachLocal[S any](ctx context.Context, n int, opts Options, newState func() S, fn func(ctx context.Context, i int, state S) error) error {
	_, err := MapLocal(ctx, n, opts, newState, func(ctx context.Context, i int, state S) (struct{}, error) {
		return struct{}{}, fn(ctx, i, state)
	})
	return err
}
