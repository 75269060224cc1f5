package sim

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
)

// taskFunc adapts a closure to phaseTasks.
type taskFunc func(kind, idx int) error

func (f taskFunc) do(kind, idx int) error { return f(kind, idx) }

// startPool starts a phase pool of the given width.
func startPool(workers int) *phasePool {
	p := &phasePool{}
	p.start(workers)
	return p
}

// newRunner binds f to pool under the given engine and task names.
func newRunner(pool *phasePool, engine string, names []string, f taskFunc) *phaseRunner {
	return &phaseRunner{pool: pool, engine: engine, names: names, tasks: f}
}

// TestPoolPanicLowestIndexWins: two tasks of one phase panic. The
// barrier still returns after every task ran, the error names the
// lower index with the runner's engine, the kind's task name and the
// phase's rep, and the runner stays usable for the next phase.
func TestPoolPanicLowestIndexWins(t *testing.T) {
	defer leakCheck(t)()
	pool := startPool(3)
	defer pool.stop()
	var ran atomic.Int32
	r := newRunner(pool, "TestEngine", []string{"alpha", "beta"}, func(kind, idx int) error {
		ran.Add(1)
		if kind == 1 && (idx == 5 || idx == 2) {
			panic(fmt.Sprintf("boom %d", idx))
		}
		return nil
	})
	r.rep = 7
	err := r.runPhase(1, 8, "beta group")
	if got := ran.Load(); got != 8 {
		t.Fatalf("%d of 8 tasks ran before the barrier returned", got)
	}
	var perr *PanicError
	if !errors.As(err, &perr) {
		t.Fatalf("err = %v, want *PanicError", err)
	}
	if perr.Engine != "TestEngine" || perr.Task != "beta" || perr.Rep != 7 || perr.Index != 2 || perr.Value != "boom 2" {
		t.Fatalf("provenance %+v, want TestEngine beta task, rep 7, index 2", perr)
	}
	if len(perr.Stack) == 0 {
		t.Fatal("no stack captured")
	}
	if !strings.HasPrefix(err.Error(), "sim: TestEngine beta group 2: ") {
		t.Fatalf("error %q is not wrapped with the phase label and index", err)
	}
	ran.Store(0)
	if err := r.runPhase(0, 8, "alpha group"); err != nil || ran.Load() != 8 {
		t.Fatalf("phase after a failed phase: err = %v, %d of 8 tasks ran", err, ran.Load())
	}
}

// TestPoolReturnedErrorLowestIndex: a returned (non-panic) task error
// surfaces unwrapped from dispatch with its index, and wrapped from
// runPhase.
func TestPoolReturnedErrorLowestIndex(t *testing.T) {
	defer leakCheck(t)()
	pool := startPool(2)
	defer pool.stop()
	sentinel := errors.New("sentinel")
	r := newRunner(pool, "TestEngine", []string{"only"}, func(_, idx int) error {
		if idx >= 3 {
			return fmt.Errorf("task %d: %w", idx, sentinel)
		}
		return nil
	})
	i, err := r.dispatch(0, 6)
	if i != 3 || err == nil || err.Error() != "task 3: sentinel" {
		t.Fatalf("dispatch = (%d, %v), want (3, task 3: sentinel)", i, err)
	}
	err = r.runPhase(0, 6, "shard")
	if !errors.Is(err, sentinel) || err.Error() != "sim: TestEngine shard 3: task 3: sentinel" {
		t.Fatalf("runPhase = %v", err)
	}
}

// TestPoolPhaseAllocFree: dispatching a phase moves plain values through
// the channel and the cancellation polls are non-blocking receives, so
// a 64-task no-op phase allocates nothing, with or without a canceller.
func TestPoolPhaseAllocFree(t *testing.T) {
	pool := startPool(2)
	defer pool.stop()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	for _, cc := range []*canceller{nil, newCanceller(ctx)} {
		r := newRunner(pool, "TestEngine", []string{"noop"}, func(int, int) error { return nil })
		r.cc = cc
		if err := r.runPhase(0, 64, "noop"); err != nil {
			t.Fatal(err)
		}
		allocs := testing.AllocsPerRun(200, func() {
			if err := r.runPhase(0, 64, "noop"); err != nil {
				t.Fatal(err)
			}
		})
		if allocs != 0 {
			t.Fatalf("armed=%v: 64-task no-op phase allocates %v objects, want 0", cc != nil, allocs)
		}
	}
}

// TestPoolAbandonedOnCancel: a task cancels the run's context mid-phase.
// Every task still runs, and the phase then returns errAbandoned —
// bare, from runPhase and dispatch alike. A phase started after the
// context fired is abandoned without running a task.
func TestPoolAbandonedOnCancel(t *testing.T) {
	defer leakCheck(t)()
	pool := startPool(2)
	defer pool.stop()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var ran atomic.Int32
	r := newRunner(pool, "TestEngine", []string{"only"}, func(_, idx int) error {
		ran.Add(1)
		if idx == 3 {
			cancel()
		}
		return nil
	})
	r.cc = newCanceller(ctx)
	if err := r.runPhase(0, 8, "shard"); err != errAbandoned {
		t.Fatalf("runPhase = %v, want errAbandoned", err)
	}
	if got := ran.Load(); got != 8 {
		t.Fatalf("%d of 8 tasks ran before the barrier returned", got)
	}
	ran.Store(0)
	if i, err := r.dispatch(0, 8); i != -1 || err != errAbandoned || ran.Load() != 0 {
		t.Fatalf("phase after cancel: dispatch = (%d, %v) with %d tasks run, want (-1, errAbandoned) with none", i, err, ran.Load())
	}
}

// TestPoolTaskErrorBeatsAbandon: when a task fails in a phase whose
// context fired, the task's error is reported, not the abandonment.
func TestPoolTaskErrorBeatsAbandon(t *testing.T) {
	defer leakCheck(t)()
	pool := startPool(3)
	defer pool.stop()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	sentinel := errors.New("sentinel")
	r := newRunner(pool, "TestEngine", []string{"place", "route"}, func(kind, idx int) error {
		if idx == 0 {
			cancel()
		}
		if kind == 0 && idx == 5 {
			panic("boom")
		}
		if kind == 1 && idx == 6 {
			return sentinel
		}
		return nil
	})
	r.cc = newCanceller(ctx)
	err := r.runPhase(0, 8, "shard")
	var perr *PanicError
	if !errors.As(err, &perr) || perr.Task != "place" || perr.Index != 5 || errors.Is(err, errAbandoned) {
		t.Fatalf("panicking phase: err = %v, want the place task's *PanicError at index 5", err)
	}
	ctx, cancel = context.WithCancel(context.Background())
	defer cancel()
	r.cc = newCanceller(ctx)
	if err := r.runPhase(1, 8, "group"); !errors.Is(err, sentinel) || err.Error() != "sim: TestEngine group 6: sentinel" {
		t.Fatalf("failing phase: err = %v, want the wrapped task error of index 6", err)
	}
}

// TestPoolSerialStep: the guarded serial step turns a panic into a
// *PanicError with the given task name, the runner's rep and index -1,
// wrapped with the step's label; a returned error passes through as is.
func TestPoolSerialStep(t *testing.T) {
	r := newRunner(nil, "TestEngine", nil, nil)
	r.rep = 4
	err := r.serial("churn", "churn step", func() error { panic("boom") })
	var perr *PanicError
	if !errors.As(err, &perr) {
		t.Fatalf("err = %v, want *PanicError", err)
	}
	if perr.Engine != "TestEngine" || perr.Task != "churn" || perr.Rep != 4 || perr.Index != -1 || perr.Value != "boom" {
		t.Fatalf("provenance %+v, want TestEngine churn task, rep 4, index -1", perr)
	}
	if !strings.HasPrefix(err.Error(), "sim: TestEngine churn step: ") {
		t.Fatalf("error %q is not wrapped with the step label", err)
	}
	sentinel := errors.New("sentinel")
	if err := r.serial("churn", "churn step", func() error { return sentinel }); err != sentinel {
		t.Fatalf("returned error = %v, want the step's own error", err)
	}
	if err := r.serial("churn", "churn step", func() error { return nil }); err != nil {
		t.Fatalf("successful step: %v", err)
	}
}

// TestPoolSharedByConcurrentRunners: three owners drive their own
// runners over one set of workers at the same time, as RunLargeMonte's
// orchestrators do. Every owner sees exactly its own tasks' effects, a
// panic in one owner's phase is reported to that owner alone, and no
// goroutine is left after stop.
func TestPoolSharedByConcurrentRunners(t *testing.T) {
	defer leakCheck(t)()
	const owners, tasks, phases = 3, 16, 60
	pool := startPool(2)
	errs := make([]error, owners)
	var wg sync.WaitGroup
	for o := 0; o < owners; o++ {
		wg.Add(1)
		go func(o int) {
			defer wg.Done()
			sums := make([]int, tasks)
			var r *phaseRunner
			r = newRunner(pool, "Owner", []string{"even", "odd"}, func(kind, idx int) error {
				if o == 1 && r.rep == phases/2 && idx == 9 {
					panic("owner 1 fails")
				}
				sums[idx] += kind + 1
				return nil
			})
			for ph := 0; ph < phases; ph++ {
				r.rep = ph
				if err := r.runPhase(ph%2, tasks, "task"); err != nil {
					errs[o] = err
					return
				}
			}
			for idx, v := range sums {
				if v != phases/2*3 {
					errs[o] = fmt.Errorf("owner %d task %d sum %d, want %d", o, idx, v, phases/2*3)
					return
				}
			}
		}(o)
	}
	wg.Wait()
	pool.stop()
	for o, err := range errs {
		if o == 1 {
			var perr *PanicError
			if !errors.As(err, &perr) || perr.Engine != "Owner" || perr.Task != "even" || perr.Rep != phases/2 || perr.Index != 9 {
				t.Fatalf("owner 1: err = %v, want its own panic (even task, rep %d, index 9)", err, phases/2)
			}
			continue
		}
		if err != nil {
			t.Fatalf("owner %d: %v", o, err)
		}
	}
}
