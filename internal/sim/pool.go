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
// RunLarge and RunLargeMonte run on one per-repetition core
// (monte.go): a repetition's state carries its runner. RunLarge runs
// repetition 0 on one state; RunLargeMonte gives every repetition
// orchestrator its own state, and so its own runner, over one shared
// set of workers, so total CPU concurrency never exceeds the pool
// size. Every engine sizes its pool to what its phases can keep busy,
// never above Workers.
//
// Every task runs behind its own recover: a panic becomes a
// *PanicError{engine, task name, rep, index}, the worker keeps
// draining, and the barrier is always reached. Orchestrator-side steps
// between barriers (deletion routing, churn, re-shard, admission) run
// through serial, behind the same recover with index -1.
//
// The runner also owns the post-barrier cancellation check: a phase
// that starts, or reaches its barrier, after the run's context fired
// returns errAbandoned, so engines never poll between phases — only inside
// tasks, once per routing block or placement stride. runRounds is the
// round loop built on that: the streaming and cluster engines supply
// one round step and their partial and final exits, and share
// roundCuts, the round-indexed checkpoint observer.
package sim

import (
	"errors"
	"fmt"
	"slices"
	"sync"

	"repro/internal/bins"
	"repro/internal/obs"
)

// errAbandoned reports a phase that started, or reached its barrier,
// after the run's context fired: the round (repetition, run) it belongs to is
// abandoned and nothing of it is committed. It is returned bare, never
// wrapped, and a failing task's error takes precedence over it.
var errAbandoned = errors.New("sim: phase abandoned: run cancelled")

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
	cc     *canceller // nil when the run has no context
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
// returns the lowest-index task error with its index. When the context
// fired before the phase started (no task runs) or before its barrier
// with every task successful, it returns errAbandoned with index -1.
func (r *phaseRunner) dispatch(kind, count int) (int, error) {
	if r.cc.cancelled() {
		return -1, errAbandoned
	}
	r.wg.Add(count)
	for i := 0; i < count; i++ {
		r.pool.tasks <- phaseTask{r, int32(kind), int32(i)}
	}
	r.wg.Wait()
	err := r.err
	r.err = nil
	if err == nil && r.cc.cancelled() {
		return -1, errAbandoned
	}
	return r.errIdx, err
}

// runPhase is dispatch with the failing task's error wrapped as
// "sim: <engine> <label> <index>: <err>"; errAbandoned stays bare.
func (r *phaseRunner) runPhase(kind, count int, label string) error {
	i, err := r.dispatch(kind, count)
	if err != nil && err != errAbandoned {
		return fmt.Errorf("sim: %s %s %d: %w", r.engine, label, i, err)
	}
	return err
}

// serial runs one orchestrator-side step behind the pool's recover: a
// panic surfaces as "sim: <engine> <label>: <*PanicError>" with the
// given task name, the runner's rep and index -1. A returned error
// passes through unchanged.
func (r *phaseRunner) serial(task, label string, step func() error) (err error) {
	defer func() {
		if v := recover(); v != nil {
			err = fmt.Errorf("sim: %s %s: %w", r.engine, label, newPanicError(r.engine, task, r.rep, -1, v))
		}
	}()
	return step()
}

// roundEngine is what runRounds drives: one round (tick) step that
// commits the round on success, and the two exits.
type roundEngine[R any] interface {
	step(r int) error
	partial(cause error) (R, error)
	final() (R, error)
}

// runRounds is the round loop the streaming and cluster engines share:
// the setup phase, then rounds 0..rounds-1, each run only if the
// context has not fired. An abandoned phase ends the run with the
// committed prefix and the context's error as cause; cancelAfter > 0
// ends it after exactly that many committed rounds with a nil cause.
func runRounds[R any](r *phaseRunner, e roundEngine[R], setup, shards, rounds, cancelAfter int) (R, error) {
	err := r.runPhase(setup, shards, "setup shard")
	for i := 0; err == nil && i < rounds; i++ {
		if r.cc.cancelled() {
			err = errAbandoned
			break
		}
		r.rep = i
		if err = e.step(i); err == nil && i+1 == cancelAfter && i+1 < rounds {
			return e.partial(nil)
		}
	}
	if err == errAbandoned {
		return e.partial(r.cc.err())
	}
	if err != nil {
		var zero R
		return zero, err
	}
	return e.final()
}

// roundCuts is the round-indexed trajectory the streaming and cluster
// engines share: cut k observes the system at the end of round
// cuts[k] (1-based) through one observe phase recording every shard's
// max load, folded in shard order.
type roundCuts struct {
	cuts  []int64 // normalized round-index cuts
	reach int     // cuts reachable within the run's rounds
	next  int     // cuts observed so far
	cp    *obs.Checkpoints
	row   []float64 // per-shard max load at the current cut
}

// newRoundCuts normalizes already-validated checkpoints for a run of
// the given rounds over shards shards.
func newRoundCuts(checkpoints []int64, rounds, shards int) roundCuts {
	cuts, _ := obs.NormalizeCuts(checkpoints)
	c := roundCuts{cuts: cuts, reach: obs.CountReached(cuts, int64(rounds))}
	if len(cuts) > 0 {
		c.cp = obs.NewCheckpoints(cuts)
		c.row = make([]float64, shards)
	}
	return c
}

// observeShard is shard s's observe task: its view's max load (0 for a
// shard without a view).
func (c *roundCuts) observeShard(views []*bins.Array, s int) {
	c.row[s] = 0
	if v := views[s]; v != nil {
		c.row[s] = v.MaxLoad()
	}
}

// observe runs the observe phase (task kind) when a cut falls at the
// end of round r and records the cut with the given occupancy. It runs
// before the round's commit, so a cancellation inside the phase
// abandons the whole round and the trajectory stays the committed
// prefix's.
func (c *roundCuts) observe(run *phaseRunner, kind, r int, balls, totalCap int64) error {
	if c.next >= c.reach || c.cuts[c.next] != int64(r)+1 {
		return nil
	}
	if err := run.runPhase(kind, len(c.row), "observe shard"); err != nil {
		return err
	}
	c.cp.Observe(c.next, balls, totalCap, slices.Max(c.row))
	c.next++
	return nil
}

// rows is the observed trajectory (nil when no cut was requested).
func (c *roundCuts) rows() []obs.CheckpointRow {
	if c.cp == nil {
		return nil
	}
	return c.cp.Rows()
}
