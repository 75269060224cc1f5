// Sharded Monte-Carlo engine, and the per-repetition core both sharded
// engines run on.
//
// # The per-repetition core
//
// One repetition of the sharded game (see large.go for the model) is
// a repState driven through the run's phase pool (pool.go):
//
//	route blocks → reset shards → place shards in parallel → summarise
//
// The reset phase runs only when the state's array holds an earlier
// repetition, and a shard builds its placer on its first place task,
// so set-up is parallel too. RunLarge is repetition 0 on one state
// over its own array, run from the calling goroutine. RunLargeMonte
// runs R repetitions on min(Workers, Reps) states.
//
// # Scheduling model
//
// All CPU work (routing blocks, shard resets, per-shard placement,
// per-repetition summaries) executes on ONE phase pool, sized to what
// the in-flight repetitions can keep busy and never above
// cfg.Workers. On top of it, min(Workers, Reps) repetition
// orchestrators each own a repState over a private array clone and
// pump their repetitions through the pool phase by phase.
// Orchestrators only coordinate — they never burn a core — so shard
// tasks of one repetition overlap the routing blocks of the next.
// Peak memory is min(Workers, Reps) bin arrays plus one O(Reps)-free
// running summary, never O(Reps · n), so n = 10^7 with hundreds of
// repetitions fits in RAM.
//
// # Determinism contract
//
// Repetition rep offsets the single-run stream layout by
// rep·(Shards+1): its routing blocks draw from the substreams of
// stream rep·(Shards+1) (block b from (Seed, rep·(Shards+1), b) — see
// route.go) and shard s places from stream rep·(Shards+1)+1+s of the
// base seed. Repetition 0 is RunLarge, and every repetition is a pure
// function of (capacities, distribution, protocol, balls, Seed,
// Shards, rep). Aggregation folds repetition summaries strictly in
// repetition order (a turn-based in-order fold), so every accumulator
// and the mean load vector are bit-identical for any Workers value.
// Shards and the routing-block structure remain part of the model,
// exactly as in RunLarge.
package sim

import (
	"fmt"
	"slices"
	"sync"
	"unsafe"

	"repro/internal/bins"
	"repro/internal/fault"
	"repro/internal/obs"
	"repro/internal/protocol"
	"repro/internal/stats"
	"repro/internal/xrand"
)

// LargeMonteConfig describes a Monte-Carlo aggregate over sharded
// single runs: Reps independent repetitions of the game LargeConfig
// describes.
type LargeMonteConfig struct {
	LargeConfig
	// Reps is the number of independent repetitions (>= 1). Repetition
	// rep derives its RNG streams by offsetting the single-run layout:
	// routing on stream rep·(Shards+1), shard s on stream
	// rep·(Shards+1)+1+s — so repetition 0 is bit-identical to
	// RunLarge with the same LargeConfig.
	Reps int
	// CollectLoadVector requests the element-wise mean of the sorted
	// (non-increasing) load vector across repetitions. Costs one O(n)
	// sort per repetition plus a single O(n) running-sum vector; the
	// per-repetition vectors are never retained.
	CollectLoadVector bool
	// ShardStats requests per-shard aggregates across repetitions
	// (balls routed, final shard-local max load) — the imbalance view
	// of the two-level protocol. Costs one O(shard) scan per shard per
	// repetition.
	ShardStats bool
	// Resume continues a previously cancelled run from its checkpoint
	// (see MonteCheckpoint): repetitions [0, CompletedReps) are taken
	// from the checkpoint and the run proceeds to Reps. The final
	// aggregates are byte-identical to an uninterrupted run — per-rep
	// RNG streams depend only on (Seed, rep), the fold order is fixed,
	// and JSON round-trips the fold state exactly. The checkpoint's
	// fingerprint must match this configuration.
	Resume *MonteCheckpoint
	// CancelAfterReps, when positive, deterministically cancels the run
	// after exactly that many folded repetitions — as if the context
	// had fired at precisely that point. Unlike a real context it is
	// timing-free, which is what lets tests and scripts byte-compare an
	// interrupted-then-resumed run against an uninterrupted one.
	CancelAfterReps int
}

// LargeMonteResult aggregates a sharded Monte-Carlo run. Per-repetition
// bin arrays are not retained — only streaming summaries.
type LargeMonteResult struct {
	// N is the number of bins; Shards the realised shard count; Reps
	// the number of repetitions aggregated.
	N      int
	Shards int
	Reps   int
	// Balls is the number of balls placed per repetition (identical
	// across repetitions: the array is fixed).
	Balls int64
	// MaxLoad, AvgLoad and Deviation aggregate the final whole-array
	// load statistics across repetitions (deviation = max − average,
	// the paper's gap).
	MaxLoad   stats.Accumulator
	AvgLoad   stats.Accumulator
	Deviation stats.Accumulator
	// MeanSortedLoads is the element-wise mean of the non-increasing
	// sorted load vector (only when CollectLoadVector).
	MeanSortedLoads []float64
	// Checkpoints holds per-checkpoint aggregates across repetitions,
	// in ascending cut order (only when LargeConfig.Checkpoints were
	// requested). Each repetition realises a cut through its own
	// routing stream, so RealBalls varies across repetitions; rows
	// fold strictly in repetition order.
	Checkpoints []obs.CheckpointRow
	// HeightCounts holds per-level bins-at-load>=k aggregates across
	// repetitions (only when LargeConfig.HeightLevels was requested).
	HeightCounts []obs.HeightRow
	// ShardStats holds per-shard aggregates (only when
	// LargeMonteConfig.ShardStats was requested).
	ShardStats *obs.ShardStats
}

// monteAgg folds per-repetition summaries strictly in repetition order:
// an orchestrator that finished repetition rep waits until every
// repetition below rep has folded. Welford updates and the load-vector
// float sums therefore happen in one fixed order, which is what makes
// the aggregate bit-identical across worker topologies.
type monteAgg struct {
	mu   sync.Mutex
	cond *sync.Cond
	next int // next repetition index allowed to fold
	// stopAt caps the folded prefix: a repetition folds its summary
	// only while rep < stopAt. It starts at the run's planned last
	// repetition (Reps, or CancelAfterReps) and only ever decreases —
	// the earliest cancelled repetition wins — so the folded prefix
	// [0, stopAt) is always contiguous, whatever the timing.
	stopAt int
	// aborted releases every fold waiter unconditionally: set when an
	// orchestrator dies without taking its remaining turns (recovered
	// panic), so the ladder can never strand the other orchestrators
	// on cond.Wait.
	aborted bool
	err     error
	// The result-level collectors. fold runs strictly in repetition
	// order, so every Observe below happens in one fixed order — the
	// unified observation contract's requirement for bit-identical
	// aggregates across worker topologies.
	loads *obs.SortedLoads
	cp    *obs.Checkpoints
	hl    *obs.Heights
	ss    *obs.ShardStats
}

// fold blocks until it is rep's turn and passes the turn on. With a
// non-nil fn it folds the repetition under the aggregation lock
// (skipped once an earlier repetition has failed or the prefix was
// capped below rep); with a nil fn the repetition was cancelled, and
// the folded prefix is capped at rep — the partial result then covers
// exactly the repetitions below the earliest cancelled one. Every
// repetition must take its turn exactly once — fold or abort — or the
// turn chain stalls.
func (ag *monteAgg) fold(rep int, fn func(ag *monteAgg)) {
	ag.mu.Lock()
	for ag.next != rep && !ag.aborted {
		ag.cond.Wait()
	}
	if ag.aborted {
		ag.mu.Unlock()
		return
	}
	switch {
	case fn == nil:
		ag.stopAt = min(ag.stopAt, rep)
	case ag.err == nil && rep < ag.stopAt:
		fn(ag)
	}
	ag.next++
	ag.cond.Broadcast()
	ag.mu.Unlock()
}

// abort records err (first error wins) and releases every waiter on
// the fold ladder — the recovery path for an orchestrator that dies
// and can never take its remaining turns.
func (ag *monteAgg) abort(err error) {
	ag.mu.Lock()
	if ag.err == nil {
		ag.err = err
	}
	ag.aborted = true
	ag.cond.Broadcast()
	ag.mu.Unlock()
}

// failed reports whether an earlier repetition has recorded an error —
// later orchestrators use it to skip useless work.
func (ag *monteAgg) failed() bool {
	ag.mu.Lock()
	defer ag.mu.Unlock()
	return ag.err != nil
}

// repCore is the run-wide half of the per-repetition core, shared by
// every state of a run: the shard plan, the ball count, the reached
// checkpoint cuts with their routing plan, and the phase pool every
// repetition dispatches to. RunLarge and RunLargeMonte both plan
// through newRepCore, so their repetitions cannot diverge.
type repCore struct {
	shardedBase
	engine    string
	cc        *canceller // nil when the run has no context
	pool      phasePool
	seed      uint64
	m         int64
	allCuts   []int64 // the normalized requested cuts
	cuts      []int64 // the prefix of allCuts reached within m
	cutBlocks []int64 // cutPlan(cuts)
	cutRems   []int64
	rg        int // routing groups per repetition
	levels    int // HeightLevels
	// proto is the class skeleton every shard and whole-array
	// histogram clones (nil when neither the load vector nor height
	// counts are requested): one skeleton is what makes shard merges
	// exact, and it keeps CapacityClasses out of the per-repetition
	// path.
	proto      *bins.LoadHistogram
	shardStats bool
}

// newRepCore plans the sharded run cfg describes over shards shards
// (cfg already validated).
func newRepCore(eng string, cfg *LargeMonteConfig, shards int) (*repCore, error) {
	base, err := newDistBase(eng, cfg.Array, cfg.AdoptArray, cfg.Dist, cfg.Placer, shards, cfg.Workers)
	if err != nil {
		return nil, err
	}
	c := &repCore{shardedBase: base, engine: eng, cc: newCanceller(cfg.Context), seed: cfg.Seed, levels: cfg.HeightLevels, shardStats: cfg.ShardStats}
	c.m = (&Config{Balls: cfg.Balls, BallsFactor: cfg.BallsFactor}).ballCount(base.arr.TotalCapacity())
	c.allCuts, _ = obs.NormalizeCuts(cfg.Checkpoints) // validated by the caller
	c.cuts = c.allCuts[:obs.CountReached(c.allCuts, c.m)]
	c.cutBlocks, c.cutRems = cutPlan(c.cuts)
	c.rg = base.routeWidth(c.m)
	if cfg.CollectLoadVector || cfg.HeightLevels > 0 {
		c.proto = base.arr.NewLoadHistogram()
	}
	return c, nil
}

// poolWidth sizes the phase pool for inflight concurrent repetitions:
// no more workers than their widest phases can keep busy.
func (c *repCore) poolWidth(inflight int) int {
	return min(c.workers, inflight*max(len(c.shardW), c.rg))
}

// repState is one repetition's reusable working set: an array (the
// engine's own in RunLarge, an orchestrator's private clone in
// RunLargeMonte), its shard views, per-shard placers and generators,
// routing groups, routing counts and summary scratch. Tasks of at most
// one repetition touch it at a time.
type repState struct {
	c       *repCore
	arr     *bins.Array
	views   []*bins.Array     // nil for zero-weight shards (never routed to)
	placers []protocol.Placer // built by the shard's first place task
	rands   []shardRand       // per-shard placement generators, re-seeded each rep
	counts  []int64
	max     float64
	avg     float64
	// used is set once a repetition has run on arr, so the next one
	// resets the views first; routed once the running repetition's
	// routing counts are merged.
	used, routed bool

	// Per-shard load histograms (non-nil iff c.proto is). The place
	// phase rebuilds each routed shard's histogram over its own view
	// in parallel; the summary phase merges them in shard order into
	// histAll — exact integer addition, so the merged histogram is
	// identical to a whole-array pass for any worker count.
	hists   []bins.LoadHistogram
	histAll bins.LoadHistogram

	// Per-repetition stream parameters, set by runRep before any task
	// of the repetition.
	base  uint64 // stream base rep·(shards+1)
	rbase uint64 // Mix64(seed, base): the routing substream base

	// run is the state's phase runner over the run's pool; it carries
	// the run's canceller and the repetition being run (run.rep).
	run         phaseRunner
	routeGroups []routeGroup

	// Observation scratch, reused across repetitions (nil when not
	// requested).
	prefix   [][]int64   // [cut][shard] routing prefixes → aligned cuts
	cutBalls []int64     // realised balls per cut
	track    [][]float64 // [cut][shard] shard-local running max at cut
	cutsDone []int       // [shard] cuts fully placed and tracked (cancellable runs)
	hlCounts []int64     // bins at load >= k (HeightLevels)
	shardMax []float64   // final shard-local max (ShardStats)
}

// shardRand is one shard's placement generator, padded to two cache
// lines: the state is rewritten on every draw, and the generators of
// neighbouring shards would otherwise share a line across placement
// workers (false sharing).
type shardRand struct {
	xrand.Rand
	_ [128 - unsafe.Sizeof(xrand.Rand{})]byte
}

// newRepState builds a state over arr (reset, with the run's
// capacities): shard views, routing groups and observation scratch.
// Zero-weight shards get no view — the router can never send a ball
// there, and a placer over an all-zero weight slice would fail to
// build.
func newRepState(c *repCore, arr *bins.Array) (*repState, error) {
	shards, nc := len(c.shardW), len(c.cuts)
	st := &repState{
		c:           c,
		arr:         arr,
		views:       make([]*bins.Array, shards),
		placers:     make([]protocol.Placer, shards),
		rands:       make([]shardRand, shards),
		counts:      make([]int64, shards),
		routeGroups: newRouteGroups(c.rg, shards, nc),
	}
	st.run = phaseRunner{pool: &c.pool, cc: c.cc, engine: c.engine, names: repTaskNames, tasks: st}
	if nc > 0 {
		st.prefix = make([][]int64, nc)
		st.track = make([][]float64, nc)
		pflat := make([]int64, nc*shards)
		tflat := make([]float64, nc*shards)
		for k := range st.prefix {
			st.prefix[k] = pflat[k*shards : (k+1)*shards]
			st.track[k] = tflat[k*shards : (k+1)*shards]
		}
		st.cutBalls = make([]int64, nc)
		if c.cc != nil {
			st.cutsDone = make([]int, shards)
		}
	}
	if c.levels > 0 {
		st.hlCounts = make([]int64, c.levels)
	}
	if c.shardStats {
		st.shardMax = make([]float64, shards)
	}
	if c.proto != nil {
		st.histAll = *c.proto.CloneEmpty()
		st.hists = c.proto.CloneEmpties(shards)
	}
	for s := 0; s < shards; s++ {
		v, err := arr.Shard(c.bounds[s], c.bounds[s+1])
		if err != nil {
			return nil, fmt.Errorf("sim: %s shard %d: %w", c.engine, s, err)
		}
		if c.shardW[s] > 0 {
			st.views[s] = v
		}
		if st.hists == nil {
			continue
		}
		// A zero-weight shard is never routed to, reset or placed: its
		// bins stay empty for the whole run, so one build at height
		// zero stands for every repetition.
		if st.views[s] == nil {
			if err := v.HistogramInto(&st.hists[s]); err != nil {
				return nil, fmt.Errorf("sim: %s shard %d histogram: %w", c.engine, s, err)
			}
		}
	}
	return st, nil
}

// Task kinds, one per phase of a repetition.
const (
	repRoute   = iota // route block group idx
	repReset          // reset shard idx's view
	repPlace          // place shard idx
	repSummary        // whole-array summary
)

var repTaskNames = []string{"route", "reset", "place", "summary"}

// do is the state's task switch for its phase runner.
func (st *repState) do(kind, idx int) error {
	switch kind {
	case repRoute:
		rg := &st.routeGroups[idx]
		rg.reset()
		rg.route(&st.run, st.rbase, st.c.router, st.c.m, idx, len(st.routeGroups), st.c.cutBlocks, st.c.cutRems)
	case repReset:
		if st.views[idx] == nil {
			return nil
		}
		if fault.Enabled {
			fault.Hit(fault.Site{Engine: st.run.engine, Op: fault.OpReset, Rep: st.run.rep, Shard: idx, Block: -1})
		}
		st.views[idx].Reset()
	case repPlace:
		return st.place(idx)
	case repSummary:
		return st.summary()
	}
	return nil
}

// place runs shard s's game for the running repetition: its own view,
// placer and stream base+1+s, placing exactly the balls routed to it.
// Placement is segmented at the shard's block-aligned cuts
// (prefix[k][s]), recording the shard-local running max into
// track[k][s]. Segmenting PlaceBatch never moves a draw —
// PlaceBatch(a)+PlaceBatch(b) consumes exactly the draws of
// PlaceBatch(a+b) — so the final state is bit-identical with and
// without checkpoints (pinned by tests).
func (st *repState) place(s int) error {
	v, count := st.views[s], st.counts[s]
	done := len(st.prefix) // a shard without balls completes every cut
	if v != nil && count > 0 {
		p := st.placers[s]
		if p == nil {
			// First use: the placer build (alias tables, O(shard))
			// runs here, in parallel with the other shards'.
			var err error
			if p, err = st.c.factory(v, st.c.weights[st.c.bounds[s]:st.c.bounds[s+1]]); err != nil {
				return err
			}
			st.placers[s] = p
		} else if rp, ok := p.(interface{ Reset() }); ok {
			// Stateful placers (e.g. the batched protocol's round
			// snapshot) must forget the previous repetition.
			rp.Reset()
		}
		// Re-seeding the reusable generator is NewStream without the
		// allocation (pinned by the stream-contract tests).
		rs := &st.rands[s].Rand
		rs.Seed(xrand.Mix64(st.c.seed, st.base+1+uint64(s)))
		placed := int64(0)
		for done = 0; done < len(st.prefix); done++ {
			cut := st.prefix[done][s]
			if !placeSegment(&st.run, s, p, v, rs, cut-placed) {
				break
			}
			placed = cut
			if cut > 0 {
				st.track[done][s] = v.MaxLoad()
			}
		}
		if done == len(st.prefix) {
			placeSegment(&st.run, s, p, v, rs, count-placed)
		}
	}
	if st.cutsDone != nil {
		st.cutsDone[s] = done
	}
	if v == nil {
		return nil
	}
	if st.hists != nil {
		// The shard's one-pass histogram, rebuilt over its own view
		// while other shards are still placing; a shard without balls
		// rebuilds from its freshly reset view.
		if err := v.HistogramInto(&st.hists[s]); err != nil {
			return fmt.Errorf("histogram: %w", err)
		}
	}
	if st.shardMax != nil {
		if st.hists != nil {
			st.shardMax[s] = st.hists[s].MaxLoad()
		} else {
			st.shardMax[s] = v.MaxLoad()
		}
	}
	return nil
}

// summary is the repetition's whole-array summary — the only task
// that may run parent-array methods, which the bins.Shard contract
// forbids while views mutate.
func (st *repState) summary() error {
	if fault.Enabled {
		fault.Hit(fault.Site{Engine: st.run.engine, Op: fault.OpSummary, Rep: st.run.rep, Shard: -1, Block: -1})
	}
	if st.hists == nil {
		st.arr.Recount()
		st.max = st.arr.MaxLoad()
		st.avg = st.arr.AverageLoad()
		return nil
	}
	// Shard-order merge: exact integer addition, so the result is
	// identical to one whole-array pass — and every final observable
	// (max, average, heights, sorted loads) derives from the merged
	// histogram without touching the bins again.
	ha := &st.histAll
	ha.Reset()
	for s := range st.hists {
		if err := ha.Merge(&st.hists[s]); err != nil {
			return fmt.Errorf("merge shard %d: %w", s, err)
		}
	}
	st.max = ha.MaxLoad()
	st.avg = float64(ha.Balls()) / float64(st.arr.TotalCapacity())
	if st.hlCounts != nil {
		ha.CountAtOrAbove(st.hlCounts)
	}
	return nil
}

// runRep runs repetition rep: route the blocks (substreams of stream
// base = rep·(shards+1), fanned out across the state's routing groups
// and merged afterwards — exact integer sums, order-free); reset the
// shard views if an earlier repetition filled them; place every shard
// in parallel on stream base+1+s; summarise the whole array.
//
// It returns errAbandoned when the run's context fired — the state
// then holds a partial repetition: counts and cuts are valid once
// routed is set, cutsDone says how far each shard got — and a wrapped
// task error when a task failed.
func (st *repState) runRep(rep int) error {
	shards := len(st.views)
	st.run.rep = rep
	st.base = uint64(rep) * uint64(shards+1)
	st.rbase = xrand.Mix64(st.c.seed, st.base)
	st.routed = false
	if err := st.run.runPhase(repRoute, len(st.routeGroups), "routing group"); err != nil {
		return err
	}
	// Merging the groups is O(groups·shards·cuts) — orchestrator-side
	// bookkeeping, not pool work.
	mergeRouteGroups(st.routeGroups, st.counts, st.prefix)
	if len(st.prefix) > 0 {
		obs.AlignShardCuts(st.prefix, protocol.BlockSize, st.cutBalls)
	}
	st.routed = true
	if st.used {
		if err := st.run.runPhase(repReset, shards, "reset shard"); err != nil {
			return err
		}
	}
	st.used = true
	for k := range st.track {
		clear(st.track[k])
	}
	clear(st.cutsDone)
	clear(st.shardMax)
	if err := st.run.runPhase(repPlace, shards, "shard"); err != nil {
		return err
	}
	return st.run.runPhase(repSummary, 1, "summary")
}

// observeCuts records the repetition's first done cuts into cp, the
// whole-array max at a cut being the max over the shard-local maxima.
// A cut whose block-aligned realisation is empty saw no state at all;
// it is skipped like a cut beyond m (visible through Reps), so zeros
// never contaminate the maxima aggregates.
func (st *repState) observeCuts(cp *obs.Checkpoints, done int) {
	for k := 0; k < done; k++ {
		if st.cutBalls[k] != 0 {
			cp.Observe(k, st.cutBalls[k], st.arr.TotalCapacity(), slices.Max(st.track[k]))
		}
	}
}

// RunLargeMonte executes cfg.Reps repetitions of the sharded single-run
// engine and aggregates them. See the package comment of this file for
// the scheduling model and the determinism contract.
//
// When cfg.Context fires (or CancelAfterReps triggers), RunLargeMonte
// returns a partial *LargeMonteResult covering a contiguous repetition
// prefix — bit-identical to a run configured with that many Reps —
// plus a *CancelledError whose Checkpoint resumes the run. A panic in
// any pool task or orchestrator surfaces as a *PanicError, never as a
// crash or a stuck fold ladder.
func RunLargeMonte(cfg LargeMonteConfig) (*LargeMonteResult, error) {
	shards, err := cfg.LargeConfig.validate()
	if err != nil {
		return nil, err
	}
	if cfg.Reps < 1 {
		return nil, fmt.Errorf("sim: RunLargeMonte Reps = %d, need >= 1", cfg.Reps)
	}
	if cfg.CancelAfterReps < 0 {
		return nil, fmt.Errorf("sim: RunLargeMonte CancelAfterReps = %d, need >= 0", cfg.CancelAfterReps)
	}
	// The run's plan (shard boundaries and weights, routing table, cut
	// plan) is shared read-only across repetitions: AliasTable.Sample
	// only reads the packed columns, so concurrent routing passes of
	// different repetitions can use one router.
	c, err := newRepCore(engRunLargeMC, &cfg, shards)
	if err != nil {
		return nil, err
	}
	master, m := c.arr, c.m
	n := master.N()
	totalCap := master.TotalCapacity()

	res := &LargeMonteResult{N: n, Shards: shards, Reps: cfg.Reps, Balls: m}
	agg := &monteAgg{}
	agg.cond = sync.NewCond(&agg.mu)
	if cfg.CollectLoadVector {
		agg.loads = obs.NewSortedLoads()
	}
	if len(c.allCuts) > 0 {
		agg.cp = obs.NewCheckpoints(c.allCuts)
	}
	if cfg.HeightLevels > 0 {
		agg.hl = obs.NewHeights(cfg.HeightLevels)
	}
	if cfg.ShardStats {
		agg.ss = obs.NewShardStats(shards)
	}

	// The fingerprint pins the experiment a checkpoint belongs to. It
	// costs an O(n) capacity hash, so it is computed only when a
	// checkpoint can actually be read (Resume) or written (a cancel
	// source exists) — the plain path pays nothing.
	var fp MonteFingerprint
	if cfg.Resume != nil || c.cc != nil || cfg.CancelAfterReps > 0 {
		fp = MonteFingerprint{
			N: n, Shards: shards, Balls: m, Seed: cfg.Seed,
			TotalCapacity: totalCap, CapHash: capHash(master),
			Checkpoints: c.allCuts, HeightLevels: cfg.HeightLevels,
			CollectLoadVector: cfg.CollectLoadVector, ShardStats: cfg.ShardStats,
		}
	}
	resumed := 0
	if cfg.Resume != nil {
		if err := cfg.Resume.restore(fp, res, agg); err != nil {
			return nil, err
		}
		resumed = agg.next
		if resumed > cfg.Reps {
			return nil, fmt.Errorf("sim: resume checkpoint covers %d repetitions, run has only %d", resumed, cfg.Reps)
		}
	}
	// planned is the last repetition the run intends to fold: Reps, or
	// the deterministic self-cancel point. A real context cancellation
	// lowers the realised prefix further through a cancelled fold.
	planned := cfg.Reps
	if cfg.CancelAfterReps > 0 && cfg.CancelAfterReps < planned {
		planned = cfg.CancelAfterReps
	}
	if planned < resumed {
		planned = resumed
	}
	agg.stopAt = planned
	// Single-assignment copies for the orchestrator closures: captured
	// by value, so the mutable planning variables above never escape
	// to the heap.
	start, stop := resumed, planned
	inflight := min(c.workers, cfg.Reps-start)

	// The shared phase pool: every CPU-heavy task of every phase of
	// every repetition runs here, so concurrency never exceeds Workers.
	c.pool.start(c.poolWidth(inflight))

	var orchWG sync.WaitGroup
	for w := 0; w < inflight; w++ {
		orchWG.Add(1)
		go func(w int) {
			defer orchWG.Done()
			// A panic in orchestrator bookkeeping (pool tasks carry
			// their own recover) would leave the fold ladder waiting
			// for turns that never come; abort releases every waiter
			// and surfaces the provenance error instead.
			defer func() {
				if r := recover(); r != nil {
					agg.abort(newPanicError(engRunLargeMC, "orchestrator", -1, w, r))
				}
			}()
			st, serr := newRepState(c, master.Clone())
			// One fold body per orchestrator, not per repetition: it
			// snapshots whatever st holds when its repetition's turn
			// comes, so hoisting it out of the loop only removes the
			// per-rep closure allocation, never a bit of the result.
			foldRep := func(ag *monteAgg) {
				res.MaxLoad.Add(st.max)
				res.AvgLoad.Add(st.avg)
				res.Deviation.Add(st.max - st.avg)
				if ag.loads != nil {
					if err := ag.loads.SnapshotHist(obs.Final, &st.histAll, m); err != nil {
						ag.err = err
						return
					}
				}
				if ag.cp != nil {
					st.observeCuts(ag.cp, len(c.cuts))
				}
				if ag.hl != nil {
					ag.hl.Observe(st.hlCounts)
				}
				if ag.ss != nil {
					if err := ag.ss.Observe(st.counts, st.shardMax); err != nil {
						ag.err = err
						return
					}
				}
			}
			// Static strided assignment: orchestrator w owns reps
			// start+w, start+w+inflight, … — processed in increasing
			// order, which the in-order fold relies on for progress.
			for rep := start + w; rep < cfg.Reps; rep += inflight {
				if fault.Enabled {
					fault.Hit(fault.Site{Engine: engRunLargeMC, Op: fault.OpOrchestrator, Rep: rep, Shard: -1, Block: -1})
				}
				var rerr error
				switch {
				case serr != nil:
					rerr = serr
				case rep >= stop:
					rerr = errAbandoned
				case !agg.failed():
					rerr = st.runRep(rep)
				}
				switch rerr {
				case nil:
					// A no-op fold once an earlier repetition failed.
					agg.fold(rep, foldRep)
				case errAbandoned:
					agg.fold(rep, nil)
				default:
					agg.fold(rep, func(ag *monteAgg) { ag.err = rerr })
				}
			}
		}(w)
	}
	orchWG.Wait()
	c.pool.stop()

	if agg.err != nil {
		return nil, agg.err
	}
	if agg.loads != nil {
		res.MeanSortedLoads = agg.loads.Mean()
	}
	if agg.cp != nil {
		res.Checkpoints = agg.cp.Rows()
	}
	if agg.hl != nil {
		res.HeightCounts = agg.hl.Rows()
	}
	res.ShardStats = agg.ss
	if completed := agg.stopAt; completed < cfg.Reps {
		// Cancelled (context or CancelAfterReps): the aggregates cover
		// exactly repetitions [0, completed) — bit-identical to a run
		// configured with Reps = completed — and the checkpoint resumes
		// from there.
		res.Reps = completed
		return res, &CancelledError{
			Engine:          engRunLargeMC,
			CompletedReps:   completed,
			CompletedCuts:   -1,
			CompletedRounds: -1,
			CompletedTicks:  -1,
			Checkpoint:      captureMonteCheckpoint(fp, completed, res, agg),
			Cause:           c.cc.err(),
		}
	}
	return res, nil
}
