// Sharded single-run engine: one huge repetition (n up to 10^7 bins)
// partitioned across workers, so a single game scales across cores the
// way Run scales repetitions.
//
// # Model and determinism contract
//
// The bin array is split into Shards contiguous shards of (nearly)
// equal size. Placement is a two-level protocol:
//
//  1. Routing: the m balls are routed to shards in fixed-size routing
//     blocks (RoutingBlock balls each; see route.go). Each block's
//     per-shard count vector is an exact Multinomial(blockBalls,
//     shardWeights) sample — shard weight = the shard's total
//     selection weight — generated by conditional binomial splitting
//     on the block's own substream (Seed, stream 0, block index).
//     Only per-shard counts (and, for checkpoints, per-cut prefixes)
//     exist; there is no per-ball routing pass.
//  2. Placement: each shard runs the configured protocol over its own
//     bins, with selection weights restricted (and renormalised by the
//     alias build) to the shard, its own pre-built alias tables, and
//     its own RNG stream (stream 1+s for shard s), placing exactly the
//     balls routed to it.
//
// Because a candidate's marginal probability factorises as
// P(shard)·P(bin | shard), each individual candidate draw has exactly
// the configured distribution; the relaxation is that all d choices of
// one ball land in the same shard, so load comparisons never cross a
// shard boundary. This is the standard partitioned-d-choice relaxation
// (cf. the batched-arrival relaxation in protocol.Batched): for shards
// of roughly equal total weight the per-shard games are independent
// copies of the original game at n/Shards scale. The multinomial
// block counts are exactly the counts an (unordered) per-ball routing
// pass would produce in distribution — only the draw sequence is
// redefined, not the model's law.
//
// # Determinism contract
//
// The result is a deterministic function of (capacities, distribution,
// protocol, balls, Seed, Shards) and — bit for bit — independent of
// Workers. Routing blocks are part of the model, like Shards: block b
// draws from substream (Seed, stream 0, b), so blocks merge by exact
// integer addition no matter which worker generates which block, and
// shard s's placement depends only on its own stream and its routed
// count. Workers only schedules which core runs which block or shard.
// Changing Shards (or RoutingBlock) changes the game, like changing
// Seed. The model orders balls block by block and, within a routing
// block, by shard index — the ordering behind the checkpoint cut rule
// in route.go.
package sim

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"slices"

	"repro/internal/bins"
	"repro/internal/dist"
	"repro/internal/fault"
	"repro/internal/obs"
	"repro/internal/protocol"
	"repro/internal/sampling"
	"repro/internal/xrand"
)

// DefaultShards is the shard count used when LargeConfig.Shards is 0.
// It is a fixed constant (not derived from the machine) so results are
// reproducible across environments; 64 shards keep 4-16 workers busy
// with low imbalance while leaving per-shard arrays large enough that
// the within-shard game is statistically meaningful.
const DefaultShards = 64

// LargeConfig describes one sharded single-run experiment.
type LargeConfig struct {
	// Array supplies the capacities (required). It is cloned and reset;
	// the caller's array is never mutated.
	Array *bins.Array
	// Dist chooses bin selection weights. Nil defaults to
	// dist.Proportional{}.
	Dist dist.Distribution
	// Placer builds the per-shard allocation protocol. Nil defaults to
	// the paper's Algorithm 1 with d = 2.
	Placer protocol.Factory
	// Balls is the number of balls to place. When 0, the count is
	// BallsFactor·C (rounded), and when BallsFactor is also 0 it
	// defaults to exactly C — the same rules as Config.
	Balls int64
	// BallsFactor scales the total capacity into a ball count.
	BallsFactor float64
	// Seed is the base RNG seed. Routing block b draws from substream
	// (Seed, stream 0, b); stream 1+s places shard s.
	Seed uint64
	// Shards is the number of contiguous shards (0 = DefaultShards,
	// clamped to the number of bins). Part of the model: changing it
	// changes the result, like changing Seed.
	Shards int
	// Workers caps parallelism (0 = GOMAXPROCS). Never affects the
	// result, only the wall clock.
	Workers int
	// Context, when non-nil, arms cooperative cancellation: the run
	// polls it at routing-block and placement-stride boundaries (never
	// per ball) and, once it fires, returns a *CancelledError together
	// with a deterministic partial result — the longest complete
	// checkpoint-cut prefix, bit-identical to the corresponding rows of
	// an uninterrupted run. Nil behaves like context.Background() and
	// keeps the hot path bit-for-bit unchanged.
	Context context.Context

	// ObsOptions is the shared observation-option block (see
	// obsoptions.go). In the sharded engines Checkpoints are global
	// ball counts realised as block-aligned per-shard cuts: the
	// routing model orders balls block by block and, within a routing
	// block, by shard index; a checkpoint at B is realised as the
	// number of balls among the first B so ordered that belong to
	// each shard (full blocks below B plus a shard-ordered partial
	// fill of the boundary block; see route.go) — aligned down to the
	// placement kernel's block size (protocol.BlockSize) so snapshots
	// land between SampleBatch blocks. The realised ball count
	// (CheckpointRow.RealBalls, a multiple of the block size, <= B)
	// reflects that; a cut whose realisation is empty (B below
	// ~BlockSize) is skipped like a cut beyond m, visible through
	// Reps. Like Shards, the cut rule is part of the model: it
	// depends only on (Seed, Shards, Checkpoints), never on Workers —
	// and requesting checkpoints never moves a single draw: the final
	// state is bit-identical with and without them. HeightLevels
	// observes the final state; the per-ball height histogram
	// (HeightBins) is classic-engine-only and rejected here.
	ObsOptions
	// AdoptArray lets the engine take ownership of Array: it is reset
	// and mutated in place instead of cloned first. The public
	// wrappers, which build a private array from a capacity slice,
	// use it to avoid a transient second O(n) array at n = 10^7.
	AdoptArray bool
}

// LargeResult aggregates one sharded run.
type LargeResult struct {
	// N is the number of bins; Shards the realised shard count.
	N      int
	Shards int
	// Balls is the total number of balls placed (= cfg.Balls or C).
	Balls int64
	// MaxLoad, AvgLoad and Deviation are the final whole-array load
	// statistics (deviation = max − average).
	MaxLoad   float64
	AvgLoad   float64
	Deviation float64
	// ShardBalls[s] is the number of balls routed to shard s.
	ShardBalls []int64
	// Checkpoints holds the single run's checkpoint observations in
	// ascending cut order (each row has one observation; only when
	// Checkpoints were requested).
	Checkpoints []obs.CheckpointRow
	// HeightCounts holds the bins-at-load>=k counts of the final state
	// (only when HeightLevels was requested).
	HeightCounts []obs.HeightRow
	// Array is the final bin state (owned by the caller).
	Array *bins.Array
}

func (c *LargeConfig) validate() (shards int, err error) {
	if c.Array == nil {
		return 0, fmt.Errorf("sim: RunLarge needs an Array")
	}
	if c.Balls < 0 {
		return 0, fmt.Errorf("sim: Balls = %d, need >= 0", c.Balls)
	}
	if c.BallsFactor < 0 {
		return 0, fmt.Errorf("sim: BallsFactor = %v, need >= 0", c.BallsFactor)
	}
	if c.Workers < 0 {
		return 0, fmt.Errorf("sim: Workers = %d, need >= 0", c.Workers)
	}
	if err := c.ObsOptions.validate(); err != nil {
		return 0, err
	}
	if err := c.ObsOptions.rejectHeightBins("the sharded engine"); err != nil {
		return 0, err
	}
	return resolveShards(c.Shards, c.Array.N())
}

// resolveShards applies the sharded engines' Shards rule: 0 means
// DefaultShards clamped to the n bins, anything else must lie in
// [1, n].
func resolveShards(shards, n int) (int, error) {
	if shards == 0 {
		return min(DefaultShards, n), nil
	}
	if shards < 1 || shards > n {
		return 0, fmt.Errorf("sim: Shards = %d outside [1,%d]", shards, n)
	}
	return shards, nil
}

// resolveWorkers maps Workers = 0 to GOMAXPROCS.
func resolveWorkers(workers int) int {
	if workers <= 0 {
		return runtime.GOMAXPROCS(0)
	}
	return workers
}

// shardedBase is the set-up every sharded engine shares: the private
// bin array, its selection weights, the placer factory, the shard plan
// and the resolved worker count.
type shardedBase struct {
	arr     *bins.Array
	weights []float64
	factory protocol.Factory
	bounds  []int
	shardW  []float64
	router  *sampling.Multinomial
	workers int
}

// newShardedBase clones src (unless adopt) and resets it, defaults a
// nil placer to Greedy(2) and resolves workers; plan then derives the
// shard plan from the selection weights.
func newShardedBase(src *bins.Array, adopt bool, placer protocol.Factory, workers int) shardedBase {
	b := shardedBase{arr: src, factory: placer, workers: resolveWorkers(workers)}
	if !adopt {
		b.arr = src.Clone()
	}
	b.arr.Reset()
	if b.factory == nil {
		b.factory = protocol.GreedyFactory(2)
	}
	return b
}

// plan adopts the per-bin selection weights and plans the shards over
// them.
func (b *shardedBase) plan(eng string, weights []float64, shards int) (err error) {
	b.weights = weights
	if b.bounds, b.shardW, b.router, err = shardPlan(weights, b.arr.N(), shards); err != nil {
		return fmt.Errorf("sim: %s router: %w", eng, err)
	}
	return nil
}

// newDistBase is the preamble of the distribution-driven engines:
// newShardedBase, then plan over d's weights (nil =
// dist.Proportional{}).
func newDistBase(eng string, src *bins.Array, adopt bool, d dist.Distribution, placer protocol.Factory, shards, workers int) (shardedBase, error) {
	b := newShardedBase(src, adopt, placer, workers)
	if d == nil {
		d = dist.Proportional{}
	}
	weights, err := d.Weights(b.arr)
	if err != nil {
		return b, fmt.Errorf("sim: %s weights: %w", eng, err)
	}
	return b, b.plan(eng, weights, shards)
}

// routeWidth is the routing fan-out for an m-ball pass: one group per
// worker, capped at the number of routing blocks. The grouping never
// affects the merged counts — integer sums are exact.
func (b *shardedBase) routeWidth(m int64) int {
	return max(1, min(b.workers, numRouteBlocks(m)))
}

// finalState recounts arr and returns its exact final max load plus,
// when levels > 0, the bins-at-load>=k rows at the given ball count —
// both from one histogram pass instead of a scan per observable.
func finalState(eng string, arr *bins.Array, levels int, balls int64) (float64, []obs.HeightRow, error) {
	arr.Recount()
	if levels == 0 {
		return arr.MaxLoad(), nil, nil
	}
	h := arr.NewLoadHistogram()
	if err := arr.HistogramInto(h); err != nil {
		return 0, nil, fmt.Errorf("sim: %s histogram: %w", eng, err)
	}
	hl := obs.NewHeights(levels)
	if err := hl.SnapshotHist(obs.Final, h, balls); err != nil {
		return 0, nil, fmt.Errorf("sim: %s heights: %w", eng, err)
	}
	return h.MaxLoad(), hl.Rows(), nil
}

// Task kinds of RunLarge's two phases.
const (
	largeRoute = iota
	largePlace
)

var largeTaskNames = []string{"route", "place"}

// largeRun is RunLarge's working set: everything the phase tasks read
// or write, filled by the orchestrator strictly between the phases.
type largeRun struct {
	shardedBase
	pool               phasePool
	run                phaseRunner
	seed, rbase        uint64
	m                  int64
	rg                 int
	groups             []routeGroup
	cutBlocks, cutRems []int64
	counts             []int64
	views              []*bins.Array
	// prefix[k][s] is shard s's block-aligned ball count at cut k;
	// track[k][s] shard s's local running max there. Each shard writes
	// only its own column, so any worker schedule produces the same
	// matrices.
	prefix [][]int64
	track  [][]float64
	// cutsDone[s] is how many checkpoint cuts shard s fully placed and
	// tracked — the bookkeeping behind the cancelled partial's cut
	// prefix. Non-nil only when cancellation is armed and a cut is
	// reachable.
	cutsDone []int
}

// do is RunLarge's task switch for its phase runner.
func (l *largeRun) do(kind, idx int) error {
	if kind == largeRoute {
		l.groups[idx].route(&l.run, l.rbase, l.router, l.m, idx, l.rg, l.cutBlocks, l.cutRems)
		return nil
	}
	return l.placeShard(idx)
}

// RunLarge executes one sharded single run. See the package comment of
// this file for the model and the determinism contract.
//
// When cfg.Context is cancelled mid-run, RunLarge returns a partial
// *LargeResult together with a *CancelledError: the partial carries
// the longest checkpoint-cut prefix every shard completed (rows
// bit-identical to the corresponding rows of an uninterrupted run) but
// no final array state. A panic in any routing or placement task
// surfaces as a *PanicError, never as a crash or a hang.
func RunLarge(cfg LargeConfig) (*LargeResult, error) {
	shards, err := cfg.validate()
	if err != nil {
		return nil, err
	}
	cc := newCanceller(cfg.Context)
	base, err := newDistBase(engRunLarge, cfg.Array, cfg.AdoptArray, cfg.Dist, cfg.Placer, shards, cfg.Workers)
	if err != nil {
		return nil, err
	}
	arr := base.arr
	n := arr.N()
	m := (&Config{Balls: cfg.Balls, BallsFactor: cfg.BallsFactor}).ballCount(arr.TotalCapacity())
	cuts, _ := obs.NormalizeCuts(cfg.Checkpoints) // validated above
	nCuts := obs.CountReached(cuts, m)
	l := &largeRun{
		shardedBase: base,
		seed:        cfg.Seed,
		rbase:       xrand.Mix64(cfg.Seed, 0),
		m:           m,
		rg:          base.routeWidth(m),
		counts:      make([]int64, shards),
		views:       make([]*bins.Array, shards),
	}
	l.groups = newRouteGroups(l.rg, shards, nCuts)
	l.cutBlocks, l.cutRems = cutPlan(cuts[:nCuts])
	var realized []int64
	if nCuts > 0 {
		l.prefix = make([][]int64, nCuts)
		l.track = make([][]float64, nCuts)
		flat := make([]int64, nCuts*shards)
		for k := range l.prefix {
			l.prefix[k] = flat[k*shards : (k+1)*shards]
		}
		realized = make([]int64, nCuts)
		if cc != nil {
			l.cutsDone = make([]int, shards)
		}
	}

	// ONE phase pool (pool.go) serves both phases — routing groups
	// first, then per-shard placement.
	l.pool.start(min(base.workers, max(shards, l.rg)))
	defer l.pool.stop()
	l.run = phaseRunner{pool: &l.pool, cc: cc, engine: engRunLarge, names: largeTaskNames, tasks: l}

	// Phase 1 — block-wise multinomial routing on stream 0 (see
	// route.go): only the per-shard counts exist (plus, when
	// checkpoints are requested, the per-cut routing prefixes),
	// because within a shard the placement order is the shard's own
	// affair.
	err = l.run.runPhase(largeRoute, l.rg, "routing group")
	if errors.Is(err, errAbandoned) {
		// Routing did not complete: no counts, no cuts — the partial
		// carries only the run's identity.
		return l.partial(cuts, realized, 0, nil)
	}
	if err != nil {
		return nil, err
	}
	mergeRouteGroups(l.groups, l.counts, l.prefix)
	if nCuts > 0 {
		obs.AlignShardCuts(l.prefix, protocol.BlockSize, realized)
		tflat := make([]float64, nCuts*shards)
		for k := range l.track {
			l.track[k] = tflat[k*shards : (k+1)*shards]
		}
	}

	// Shard views are built sequentially, between the phases (no task
	// is in flight here — phase 1 is fully drained): Array.Shard is a
	// parent method, and the bins.Shard contract forbids running
	// parent methods while views mutate concurrently. A shard with no
	// routed balls gets no view and no placer — which also keeps
	// zero-weight shards (e.g. under a top-only distribution) from
	// failing the placer build.
	for s := 0; s < shards; s++ {
		if l.counts[s] == 0 {
			continue
		}
		if l.views[s], err = arr.Shard(l.bounds[s], l.bounds[s+1]); err != nil {
			return nil, fmt.Errorf("sim: RunLarge shard %d: %w", s, err)
		}
	}

	// Phase 2 — parallel per-shard placement. Shard s touches only its
	// own view, placer and stream, so any scheduling of shards onto
	// workers produces identical bits. Placer construction (alias
	// table builds, O(shard size)) runs inside the workers too: it
	// reads only the shard's own weights slice and view.
	err = l.run.runPhase(largePlace, shards, "shard")
	if errors.Is(err, errAbandoned) {
		// The array holds partially placed shards — inconsistent as a
		// final state, but the checkpoint cuts every shard completed
		// are exactly the rows an uninterrupted run would report: the
		// partial is the longest complete cut prefix.
		done := 0
		if l.cutsDone != nil {
			done = slices.Min(l.cutsDone)
		}
		return l.partial(cuts, realized, done, l.counts)
	}
	if err != nil {
		return nil, err
	}

	res := &LargeResult{N: n, Shards: shards, Balls: m, ShardBalls: l.counts, Array: arr}
	if len(cuts) > 0 {
		res.Checkpoints = l.checkpointRows(cuts, realized, nCuts)
	}
	max, heights, err := finalState(engRunLarge, arr, cfg.HeightLevels, m)
	if err != nil {
		return nil, err
	}
	avg := arr.AverageLoad()
	res.MaxLoad = max
	res.AvgLoad = avg
	res.Deviation = max - avg
	res.HeightCounts = heights
	return res, nil
}

// checkpointRows observes the first done cuts from the per-shard tracks.
// A cut so small that every shard's block-aligned prefix is empty
// realises no state at all; it is skipped like a cut beyond m (visible
// through Reps) instead of recording a fictitious max load of 0.
func (l *largeRun) checkpointRows(cuts, realized []int64, done int) []obs.CheckpointRow {
	cp := obs.NewCheckpoints(cuts)
	c := l.arr.TotalCapacity()
	maxs := make([]float64, done)
	combineShardMaxima(l.track[:done], maxs)
	for k := 0; k < done; k++ {
		if realized[k] == 0 {
			continue
		}
		cp.Observe(k, realized[k], c, maxs[k])
	}
	return cp.Rows()
}

// partial is the cancelled exit: the run's identity, the routed
// counts (nil before routing completed) and, when checkpoints were
// requested, exactly the done leading rows — a non-nil slice even when
// done is 0.
func (l *largeRun) partial(cuts, realized []int64, done int, shardBalls []int64) (*LargeResult, error) {
	res := &LargeResult{N: l.arr.N(), Shards: len(l.counts), Balls: l.m, ShardBalls: shardBalls}
	if len(cuts) > 0 {
		res.Checkpoints = l.checkpointRows(cuts[:done], realized, done)
	}
	return res, &CancelledError{Engine: engRunLarge, CompletedReps: -1, CompletedCuts: done, CompletedRounds: -1, CompletedTicks: -1, Cause: l.run.cc.err()}
}

// shardPlan computes the contiguous shard boundaries, each shard's
// total selection weight and the multinomial routing generator over
// those weights. Every sharded engine plans through it (via
// newShardedBase) so the shard geometry and routing distribution can
// never diverge: the Monte engine's "repetition 0 reproduces RunLarge
// bit for bit" contract depends on both engines using the identical
// plan.
func shardPlan(weights []float64, n, shards int) (bounds []int, shardW []float64, router *sampling.Multinomial, err error) {
	bounds = make([]int, shards+1)
	for s := 0; s <= shards; s++ {
		bounds[s] = s * n / shards
	}
	shardW = make([]float64, shards)
	for s := 0; s < shards; s++ {
		for i := bounds[s]; i < bounds[s+1]; i++ {
			shardW[s] += weights[i]
		}
	}
	router, err = sampling.NewMultinomial(shardW)
	if err != nil {
		return nil, nil, nil, err
	}
	return bounds, shardW, router, nil
}

// placeShard runs shard s's game: its own pre-built view, its own
// alias tables and its own RNG stream. A nil view means no balls were
// routed here — every cut is trivially complete. When checkpoint cuts
// are requested (prefix[k][s] is the block-aligned count of this
// shard's balls at cut k), placement is segmented at the cuts and the
// shard-local running max is recorded into track[k][s]. Segmenting
// PlaceBatch never moves a draw — PlaceBatch(a)+PlaceBatch(b) consumes
// exactly the draws of PlaceBatch(a+b) — so the final state is
// bit-identical with and without checkpoints (pinned by tests).
func (l *largeRun) placeShard(s int) error {
	done := len(l.prefix)
	if view := l.views[s]; view != nil {
		placer, err := l.factory(view, l.weights[l.bounds[s]:l.bounds[s+1]])
		if err != nil {
			return err
		}
		rs := xrand.NewStream(l.seed, uint64(s)+1)
		done, _ = placeShardSegments(&l.run, placer, view, rs, l.counts[s], s, l.prefix, l.track)
	}
	if l.cutsDone != nil {
		l.cutsDone[s] = done
	}
	return nil
}

// placeShardSegments runs one shard's placement, segmented at the
// block-aligned cuts (cuts[k][s]), recording the shard-local running
// max into track[k][s]. It is shared by RunLarge's placeShard and
// RunLargeMonte's placement tasks so the cut schedule can never
// diverge between the engines — the "Reps = 1 reproduces a
// checkpointed RunLarge bit for bit" contract depends on both using
// this exact schedule. With no cuts it is a single PlaceBatch per
// cancellation stride. It returns the number of fully completed cuts
// and whether the whole count was placed (false only under
// cancellation).
func placeShardSegments(r *phaseRunner, placer protocol.Placer, view *bins.Array, rs *xrand.Rand, count int64, s int, cuts [][]int64, track [][]float64) (cutsDone int, ok bool) {
	placed := int64(0)
	for k := range cuts {
		cut := cuts[k][s]
		if !placeSegment(r, s, placer, view, rs, cut-placed) {
			return k, false
		}
		placed = cut
		if cut > 0 {
			track[k][s] = view.MaxLoad()
		}
	}
	if !placeSegment(r, s, placer, view, rs, count-placed) {
		return len(cuts), false
	}
	return len(cuts), true
}

// placeSegment places one segment of shard s's balls. Without
// cancellation (and in normal, non-faultinject builds) it is exactly
// one PlaceBatch — the pre-existing hot path, untouched. With
// cancellation armed it strides the segment in RoutingBlock-sized
// sub-batches, polling the runner's canceller between strides:
// sub-segmenting never moves a draw (the PlaceBatch additivity
// contract), so the placement granularity of cancellation costs one
// poll per 65536 balls and zero allocations. Fault sites carry the
// runner's engine and rep. Returns false when cancelled before
// finishing.
func placeSegment(r *phaseRunner, s int, placer protocol.Placer, view *bins.Array, rs *xrand.Rand, count int64) bool {
	if r.cc == nil && !fault.Enabled {
		placer.PlaceBatch(view, rs, count)
		return true
	}
	block := 0
	for placed := int64(0); placed < count; block++ {
		if r.cc.cancelled() {
			return false
		}
		if fault.Enabled {
			fault.Hit(fault.Site{Engine: r.engine, Op: fault.OpPlace, Rep: r.rep, Shard: s, Block: block})
		}
		n := count - placed
		if n > RoutingBlock {
			n = RoutingBlock
		}
		placer.PlaceBatch(view, rs, n)
		placed += n
	}
	return true
}

// combineShardMaxima reduces the per-shard cut maxima spatially:
// out[k] = max over shards of track[k][s] — a pure max in shard
// order, order-independent for finite floats, so any worker schedule
// that filled track produces the same combination.
func combineShardMaxima(track [][]float64, out []float64) {
	for k := range track {
		max := 0.0
		for _, v := range track[k] {
			if v > max {
				max = v
			}
		}
		out[k] = max
	}
}
