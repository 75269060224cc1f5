// Phase runner: the one worker pool behind the sharded engines.
//
// RunLarge, RunLargeMonte, the streaming engine and the cluster engine
// all execute the paper's two-level model the same way: a phase of
// indexed tasks of one kind (routing groups, shard placements,
// deletions, …), a barrier, then orchestrator-side bookkeeping before
// the next phase. A phasePool is a fixed set of worker goroutines; a
// phaseRunner is one orchestrator's handle on it — the engine's task
// switch (bound once at set-up), the lowest-index task error, and the
// phase barrier. Tasks travel through the pool's channel as plain
// {runner, kind, idx} values, so dispatching a phase allocates nothing.
//
// Several runners may share one pool: RunLargeMonte gives every
// repetition orchestrator its own runner over one set of workers, so
// total CPU concurrency never exceeds the pool size.
//
// Every task runs behind its own recover: a panic becomes a
// *PanicError{engine, task name, rep, index}, the worker keeps
// draining, and the barrier is always reached.
package sim

import (
	"fmt"
	"sync"
)

// phasePool is a fixed set of workers draining phase tasks. The zero
// value is ready for start.
type phasePool struct {
	tasks chan phaseTask
	wg    sync.WaitGroup
}

// phaseTask is one unit of pool work, passed by value.
type phaseTask struct {
	r    *phaseRunner
	kind int32
	idx  int32
}

// start launches workers goroutines. The caller must stop the pool
// before returning.
func (p *phasePool) start(workers int) {
	p.tasks = make(chan phaseTask)
	p.wg.Add(workers)
	for w := 0; w < workers; w++ {
		go p.serve()
	}
}

func (p *phasePool) serve() {
	defer p.wg.Done()
	for t := range p.tasks {
		t.run()
	}
}

// stop releases the workers and waits for them to exit. No phase may be
// in flight.
func (p *phasePool) stop() {
	close(p.tasks)
	p.wg.Wait()
}

// phaseTasks is an engine's task switch: do runs task idx of a kind.
// Every task must touch only its own index's state, so any schedule of
// tasks onto workers produces identical bits.
type phaseTasks interface {
	do(kind, idx int) error
}

// phaseRunner is one orchestrator's view of a pool. Task kinds index
// names, which label panic provenance. Engines embed it by value and
// fill it with a composite literal at set-up.
type phaseRunner struct {
	pool   *phasePool
	engine string
	names  []string
	tasks  phaseTasks
	// rep is the provenance repetition (round, tick) of the phases that
	// follow; the orchestrator sets it between barriers.
	rep int

	wg     sync.WaitGroup
	mu     sync.Mutex
	err    error // the running phase's lowest-index task error
	errIdx int
}

func (t phaseTask) run() {
	r := t.r
	defer r.wg.Done()
	defer func() {
		if v := recover(); v != nil {
			r.fail(int(t.idx), newPanicError(r.engine, r.names[t.kind], r.rep, int(t.idx), v))
		}
	}()
	if err := r.tasks.do(int(t.kind), int(t.idx)); err != nil {
		r.fail(int(t.idx), err)
	}
}

// fail keeps the lowest-index error of the phase, whatever order the
// tasks finish in.
func (r *phaseRunner) fail(idx int, err error) {
	r.mu.Lock()
	if r.err == nil || idx < r.errIdx {
		r.err, r.errIdx = err, idx
	}
	r.mu.Unlock()
}

// dispatch runs tasks 0..count-1 of one kind, waits for the barrier and
// returns the lowest-index task error with its index (nil when every
// task succeeded).
func (r *phaseRunner) dispatch(kind, count int) (int, error) {
	r.wg.Add(count)
	for i := 0; i < count; i++ {
		r.pool.tasks <- phaseTask{r, int32(kind), int32(i)}
	}
	r.wg.Wait()
	err := r.err
	r.err = nil
	return r.errIdx, err
}

// runPhase is dispatch with the failing task's error wrapped as
// "sim: <engine> <label> <index>: <err>".
func (r *phaseRunner) runPhase(kind, count int, label string) error {
	if i, err := r.dispatch(kind, count); err != nil {
		return fmt.Errorf("sim: %s %s %d: %w", r.engine, label, i, err)
	}
	return nil
}
