package sim

import (
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
// the channel, so a 64-task no-op phase allocates nothing.
func TestPoolPhaseAllocFree(t *testing.T) {
	pool := startPool(2)
	defer pool.stop()
	r := newRunner(pool, "TestEngine", []string{"noop"}, func(int, int) error { return nil })
	if err := r.runPhase(0, 64, "noop"); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(200, func() {
		if err := r.runPhase(0, 64, "noop"); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("64-task no-op phase allocates %v objects, want 0", allocs)
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
