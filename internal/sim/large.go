// Sharded single-run engine: one huge repetition (n up to 10^7 bins)
// partitioned across workers, so a single game scales across cores the
// way Run scales repetitions. A single run is repetition 0 of the
// per-repetition core in monte.go, which RunLargeMonte repeats; this
// file holds the model, the configuration, the shard plan every
// sharded engine shares, and RunLarge's mapping of the core's state
// onto LargeResult.
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

// RunLarge executes one sharded single run: repetition 0 of the
// per-repetition core (monte.go) on one state over the engine's own
// array, driven from the calling goroutine. See the package comment
// of this file for the model and the determinism contract.
//
// When cfg.Context is cancelled mid-run, RunLarge returns a partial
// *LargeResult together with a *CancelledError: the partial carries
// the routed counts (nil before routing completed) and the longest
// checkpoint-cut prefix every shard completed (rows bit-identical to
// the corresponding rows of an uninterrupted run) but no final array
// state. A panic in any routing or placement task surfaces as a
// *PanicError, never as a crash or a hang.
func RunLarge(cfg LargeConfig) (*LargeResult, error) {
	shards, err := cfg.validate()
	if err != nil {
		return nil, err
	}
	c, err := newRepCore(engRunLarge, &LargeMonteConfig{LargeConfig: cfg}, shards)
	if err != nil {
		return nil, err
	}
	st, err := newRepState(c, c.arr)
	if err != nil {
		return nil, err
	}
	c.pool.start(c.poolWidth(1))
	defer c.pool.stop()
	err = st.runRep(0)
	res := &LargeResult{N: c.arr.N(), Shards: shards, Balls: c.m}
	cuts, done := c.allCuts, len(c.cuts)
	if err == errAbandoned {
		// The array holds partially placed shards — inconsistent as a
		// final state, but the cuts every shard completed are exactly
		// the rows an uninterrupted run would report: the partial has
		// the routed counts (nil before routing completed) and the
		// longest complete cut prefix, as a non-nil slice even when
		// empty.
		done = 0
		if st.routed {
			res.ShardBalls = st.counts
			if len(st.cutsDone) > 0 {
				done = slices.Min(st.cutsDone)
			}
		}
		cuts = cuts[:done]
	} else if err != nil {
		return nil, err
	}
	if len(c.allCuts) > 0 {
		cp := obs.NewCheckpoints(cuts)
		st.observeCuts(cp, done)
		res.Checkpoints = cp.Rows()
	}
	if err != nil {
		return res, &CancelledError{Engine: engRunLarge, CompletedReps: -1, CompletedCuts: done, CompletedRounds: -1, CompletedTicks: -1, Cause: c.cc.err()}
	}
	if st.hists != nil {
		// The histogram summary never reads the bins: recount the
		// array's cached ball total for the caller.
		c.arr.Recount()
	}
	res.MaxLoad, res.AvgLoad, res.Deviation = st.max, st.avg, st.max-st.avg
	res.ShardBalls = st.counts
	if st.hlCounts != nil {
		hl := obs.NewHeights(c.levels)
		hl.Observe(st.hlCounts)
		res.HeightCounts = hl.Rows()
	}
	res.Array = c.arr
	return res, nil
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
