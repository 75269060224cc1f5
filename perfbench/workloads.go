package main

import (
	"fmt"
	"hash"
	"hash/fnv"
	"math"

	"repro"
)

// result is what the benchmark keeps of one engine call or replay.
type result struct {
	// fp fingerprints the deterministic result: equal across worker
	// counts for the same seed, and equal between an exact replay and
	// the engine call it replays.
	fp uint64
	// work is the call's work in the workload's unit (see workload.unit).
	work float64
	// counts are the work counts a replay must reproduce exactly.
	counts map[string]int64
	// model holds model outputs reported as per-layer metrics.
	model map[string]float64
}

// workload is one benchmark input: an engine configuration reached
// through the public balls API, its set-up probe, its output checks and
// its layer-by-layer replay.
type workload struct {
	name string
	why  string
	// unit names one unit of work, the "ball" that balls_per_s counts.
	unit string
	// dominant is the layer predicted to dominate steady state.
	dominant string
	// params are the generator parameters, printed with every run.
	params string
	// call runs the engine once with the given seed and worker count.
	// The returned summary checks the outputs and fingerprints them; it
	// is called after the timed region.
	call func(seed uint64, workers int) (summary func() (result, error), err error)
	// probe runs the same configuration with just enough work that
	// every shard still builds its tables: its wall time is set-up.
	probe func(seed uint64, workers int) error
	// replay drives the layers the engine composes through their
	// public functions, serially, recording spans on tr.
	replay func(seed uint64, tr *tracer) (result, error)
	// exactReplay reports whether the replay reproduces the engine's
	// result fingerprint bit for bit (otherwise only counts must match).
	exactReplay bool
}

// Workload parameters. The two-class arrays put the small bins first,
// exactly as balls.CapacitiesTwoClass lays them out.
const (
	largeHalf    = 500_000 // bins per class: n = 10^6
	largeFactor  = 10      // m = 10·C, the heavily loaded regime
	benchShards  = 64
	probeBalls   = benchShards * 256 // a few placement blocks per shard
	streamSteady = 6                 // steady rounds after the fill round
	streamChurn  = 500_000           // arrivals = deletions per steady round
	streamTol    = 0.002
	clusterHalf  = 50_000 // servers per class: n = 10^5
	clusterTicks = 8
	clusterLoad  = 400_000 // requests offered per tick
	paperHalf    = 5_000   // bins per class: n = 10^4
	paperReps    = 300
	paperHeights = 8
)

var (
	largeCaps   = balls.CapacitiesTwoClass(largeHalf, 1, largeHalf, 10)
	clusterCaps = balls.CapacitiesTwoClass(clusterHalf, 1, clusterHalf, 10)
	paperCaps   = balls.CapacitiesTwoClass(paperHalf, 1, paperHalf, 10)

	clusterChurn = balls.ChurnPlan{CrashProb: 0.0002, RecoverProb: 0.05}
	clusterRetry = balls.RetryPolicy{TimeoutTicks: 2, MaxRetries: 2, BackoffBase: 1}
)

const clusterShed = 3.0

func totalCap(caps []int64) int64 {
	var c int64
	for _, x := range caps {
		c += x
	}
	return c
}

// streamSchedule fills the array to m = C in round 0, then runs the
// steady rounds in which arrivals equal deletions.
func streamSchedule() []int64 {
	s := []int64{totalCap(largeCaps)}
	for i := 0; i < streamSteady; i++ {
		s = append(s, streamChurn)
	}
	return s
}

// paperCuts are the four checkpoints of the classic workload: C/10,
// C/4, C/2 and C balls.
func paperCuts() []int64 {
	c := totalCap(paperCaps)
	return []int64{c / 10, c / 4, c / 2, c}
}

var workloads = []*workload{
	{
		name:        "large-place",
		why:         "SimulateLarge, n=1e6 two-class, m=10C, Greedy(2), 64 shards: heavy-load placement dominates; no deletions, no ring",
		unit:        "balls placed",
		dominant:    "protocol.place",
		params:      fmt.Sprintf("n=%d caps=1x%d+10x%d BallsFactor=%d Greedy(2) Shards=%d probe: Balls=%d", 2*largeHalf, largeHalf, largeHalf, largeFactor, benchShards, probeBalls),
		call:        callLarge,
		probe:       probeLarge,
		replay:      replayLarge,
		exactReplay: true,
	},
	{
		name:        "stream-churn",
		why:         "SimulateStream over the same array: fill to m=C, then rounds of 500k arrivals and 500k deletions with rebalancing; deletion path dominates",
		unit:        "ball operations (arrivals + deletions + moves)",
		dominant:    "sampling.delete + bins.remove",
		params:      fmt.Sprintf("n=%d caps=1x%d+10x%d Schedule=[C, %dx%d] Deletions=%d RebalanceTol=%g Shards=%d probe: Schedule=[%d] Deletions=0", 2*largeHalf, largeHalf, largeHalf, streamSteady, streamChurn, streamChurn, streamTol, benchShards, probeBalls),
		call:        callStream,
		probe:       probeStream,
		replay:      replayStream,
		exactReplay: true,
	},
	{
		name:        "cluster-serve",
		why:         "SimulateCluster, 1e5 servers of capacity 1 and 10, 400k requests/tick, churn+retry+shedding: ring build and queue work dominate",
		unit:        "requests offered",
		dominant:    "chash.build (set-up), sim queues (steady)",
		params:      fmt.Sprintf("n=%d caps=1x%d+10x%d Ticks=%d Arrivals=%d CrashProb=%g RecoverProb=%g Retry=%+v Shed=%g Shards=%d probe: Ticks=1 Arrivals=0", 2*clusterHalf, clusterHalf, clusterHalf, clusterTicks, clusterLoad, clusterChurn.CrashProb, clusterChurn.RecoverProb, clusterRetry, clusterShed, benchShards),
		call:        callCluster,
		probe:       probeCluster,
		replay:      replayCluster,
		exactReplay: true,
	},
	{
		name:        "paper-reps",
		why:         "Simulate (classic engine) at figure scale, n=1e4, m=C, 300 reps, sorted loads + heights + 4 checkpoints: chunk pool and obs collectors carry weight",
		unit:        "balls placed (reps x m)",
		dominant:    "protocol.place, then obs.snapshot",
		params:      fmt.Sprintf("n=%d caps=1x%d+10x%d m=C Reps=%d SortedLoads Heights=%d Checkpoints=%v probe: Reps=Workers", 2*paperHalf, paperHalf, paperHalf, paperReps, paperHeights, paperCuts()),
		call:        callPaper,
		probe:       probePaper,
		replay:      replayPaper,
		exactReplay: false,
	},
}

func findWorkload(name string) *workload {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}

// hasher accumulates a result fingerprint.
type hasher struct {
	h   hash.Hash64
	buf [8]byte
}

func newHasher() *hasher { return &hasher{h: fnv.New64a()} }

func (h *hasher) u(v uint64) {
	for i := range h.buf {
		h.buf[i] = byte(v >> (8 * i))
	}
	_, _ = h.h.Write(h.buf[:]) // hash.Hash writes never fail
}

func (h *hasher) i(v int64)   { h.u(uint64(v)) }
func (h *hasher) f(v float64) { h.u(math.Float64bits(v)) }
func (h *hasher) ints(vs []int64) {
	h.i(int64(len(vs)))
	for _, v := range vs {
		h.i(v)
	}
}

func (h *hasher) sum() uint64 { return h.h.Sum64() }

// binsFP fingerprints a final state: shard counts, max load and every
// bin's ball count.
func binsFP(h *hasher, shardBalls []int64, maxLoad float64, n int, ballsOf func(int) int64) uint64 {
	h.ints(shardBalls)
	h.f(maxLoad)
	h.i(int64(n))
	for i := 0; i < n; i++ {
		h.i(ballsOf(i))
	}
	return h.sum()
}

func sum(xs []int64) int64 {
	var s int64
	for _, x := range xs {
		s += x
	}
	return s
}

// ---- large-place

func largeConfig(seed uint64, workers int) balls.LargeConfig {
	return balls.LargeConfig{Capacities: largeCaps, BallsFactor: largeFactor, Seed: seed, Shards: benchShards, Workers: workers}
}

func callLarge(seed uint64, workers int) (func() (result, error), error) {
	r, err := balls.SimulateLarge(largeConfig(seed, workers))
	if err != nil {
		return nil, err
	}
	return func() (result, error) {
		n := len(largeCaps)
		m := int64(largeFactor) * totalCap(largeCaps)
		if r.N != n || r.Balls != m || sum(r.ShardBalls) != m || len(r.ShardBalls) != benchShards {
			return result{}, fmt.Errorf("large-place: N=%d Balls=%d ΣShardBalls=%d shards=%d, want N=%d Balls=%d", r.N, r.Balls, sum(r.ShardBalls), len(r.ShardBalls), n, m)
		}
		// The band theorems_test.go pins for Greedy(2): ln ln n / ln 2 + 2.
		if band := math.Log(math.Log(float64(n)))/math.Ln2 + 2; r.Deviation > band {
			return result{}, fmt.Errorf("large-place: deviation %.3f above the ln ln n / ln 2 + 2 = %.3f band", r.Deviation, band)
		}
		return result{
			fp:     largeFP(r.Balls, r.ShardBalls, r.MaxLoad, r.Loads.N(), r.Loads.Balls),
			work:   float64(r.Balls),
			counts: map[string]int64{"balls": r.Balls},
		}, nil
	}, nil
}

func largeFP(m int64, shardBalls []int64, maxLoad float64, n int, ballsOf func(int) int64) uint64 {
	h := newHasher()
	h.i(m)
	return binsFP(h, shardBalls, maxLoad, n, ballsOf)
}

func probeLarge(seed uint64, workers int) error {
	cfg := largeConfig(seed, workers)
	cfg.BallsFactor, cfg.Balls = 0, probeBalls
	_, err := balls.SimulateLarge(cfg)
	return err
}

// ---- stream-churn

func streamConfig(seed uint64, workers int) balls.StreamConfig {
	return balls.StreamConfig{Capacities: largeCaps, Schedule: streamSchedule(), Deletions: streamChurn, RebalanceTol: streamTol, Seed: seed, Shards: benchShards, Workers: workers}
}

func callStream(seed uint64, workers int) (func() (result, error), error) {
	r, err := balls.SimulateStream(streamConfig(seed, workers))
	if err != nil {
		return nil, err
	}
	return func() (result, error) {
		arrived := sum(streamSchedule())
		deleted := int64(len(streamSchedule())) * streamChurn
		if r.Balls != r.Arrived-r.Deleted || r.Balls != sum(r.ShardBalls) {
			return result{}, fmt.Errorf("stream-churn: Balls=%d Arrived-Deleted=%d ΣShardBalls=%d disagree", r.Balls, r.Arrived-r.Deleted, sum(r.ShardBalls))
		}
		if r.Arrived != arrived || r.Deleted != deleted || r.Rounds != len(streamSchedule()) {
			return result{}, fmt.Errorf("stream-churn: Arrived=%d Deleted=%d Rounds=%d, want %d %d %d", r.Arrived, r.Deleted, r.Rounds, arrived, deleted, len(streamSchedule()))
		}
		if r.Moved == 0 {
			return result{}, fmt.Errorf("stream-churn: rebalance moved no ball; the workload no longer exercises it")
		}
		return streamResult(r.Arrived, r.Deleted, r.Moved, r.Balls, r.ShardBalls, r.MaxLoad, r.Loads.N(), r.Loads.Balls), nil
	}, nil
}

func streamResult(arrived, deleted, moved, total int64, shardBalls []int64, maxLoad float64, n int, ballsOf func(int) int64) result {
	h := newHasher()
	h.i(arrived)
	h.i(deleted)
	h.i(moved)
	h.i(total)
	return result{
		fp:     binsFP(h, shardBalls, maxLoad, n, ballsOf),
		work:   float64(arrived + deleted + moved),
		counts: map[string]int64{"arrived": arrived, "deleted": deleted, "moved": moved, "balls": total},
	}
}

func probeStream(seed uint64, workers int) error {
	cfg := streamConfig(seed, workers)
	cfg.Schedule, cfg.Deletions = []int64{probeBalls}, 0
	_, err := balls.SimulateStream(cfg)
	return err
}

// ---- cluster-serve

func clusterConfig(seed uint64, workers int) balls.ClusterConfig {
	return balls.ClusterConfig{Capacities: clusterCaps, Ticks: clusterTicks, Arrivals: clusterLoad, Churn: clusterChurn, Retry: clusterRetry, ShedThreshold: clusterShed, Seed: seed, Shards: benchShards, Workers: workers}
}

func callCluster(seed uint64, workers int) (func() (result, error), error) {
	r, err := balls.SimulateCluster(clusterConfig(seed, workers))
	if err != nil {
		return nil, err
	}
	return func() (result, error) {
		if r.Ticks != clusterTicks || r.Arrived != clusterTicks*clusterLoad {
			return result{}, fmt.Errorf("cluster-serve: Ticks=%d Arrived=%d, want %d %d", r.Ticks, r.Arrived, clusterTicks, clusterTicks*clusterLoad)
		}
		if r.Arrived != r.Shed+r.Admitted {
			return result{}, fmt.Errorf("cluster-serve: Arrived=%d != Shed+Admitted=%d", r.Arrived, r.Shed+r.Admitted)
		}
		if r.Admitted != r.Completed+r.Failed+r.PendingRetry+r.Queued {
			return result{}, fmt.Errorf("cluster-serve: Admitted=%d != Completed+Failed+PendingRetry+Queued=%d", r.Admitted, r.Completed+r.Failed+r.PendingRetry+r.Queued)
		}
		if s := sum(r.LatencyBuckets); s != r.Completed {
			return result{}, fmt.Errorf("cluster-serve: latency buckets sum to %d, Completed=%d", s, r.Completed)
		}
		return clusterResult(clusterCounts{
			arrived: r.Arrived, shed: r.Shed, admitted: r.Admitted, completed: r.Completed,
			timedOut: r.TimedOut, retried: r.Retried, failed: r.Failed, redistributed: r.Redistributed,
			queued: r.Queued, pendingRetry: r.PendingRetry, crashes: int64(r.Crashes), recoveries: int64(r.Recoveries),
		}, r.LivePerTick, r.LatencyBuckets, r.MaxQueueLoad, r.Loads.N(), r.Loads.Balls), nil
	}, nil
}

// clusterCounts is the cluster engine's request and churn accounting.
type clusterCounts struct {
	arrived, shed, admitted, completed, timedOut, retried, failed int64
	redistributed, queued, pendingRetry, crashes, recoveries      int64
}

func clusterResult(c clusterCounts, livePerTick []int, latency []int64, maxLoad float64, n int, ballsOf func(int) int64) result {
	h := newHasher()
	for _, v := range []int64{c.arrived, c.shed, c.admitted, c.completed, c.timedOut, c.retried, c.failed, c.redistributed, c.queued, c.pendingRetry, c.crashes, c.recoveries} {
		h.i(v)
	}
	for _, l := range livePerTick {
		h.i(int64(l))
	}
	h.ints(latency)
	// Dispatched work is every placement the engine made: admitted
	// arrivals, retries and redistributed requests.
	dispatched := c.admitted + c.retried + c.redistributed
	return result{
		fp:   binsFP(h, nil, maxLoad, n, ballsOf),
		work: float64(c.arrived),
		counts: map[string]int64{
			"arrived": c.arrived, "completed": c.completed, "crashes": c.crashes, "recoveries": c.recoveries,
			"redistributed": c.redistributed, "retried": c.retried, "shed": c.shed, "failed": c.failed,
		},
		model: map[string]float64{
			"cluster.crashes":       float64(c.crashes),
			"cluster.recoveries":    float64(c.recoveries),
			"cluster.redistributed": float64(c.redistributed),
			"cluster.retried":       float64(c.retried),
			"cluster.shed":          float64(c.shed),
			"cluster.goodput_frac":  float64(c.completed) / float64(c.arrived),
			"cluster.retry_frac":    float64(c.retried) / float64(dispatched),
		},
	}
}

func probeCluster(seed uint64, workers int) error {
	cfg := clusterConfig(seed, workers)
	cfg.Ticks, cfg.Arrivals = 1, 0
	_, err := balls.SimulateCluster(cfg)
	return err
}

// ---- paper-reps

func paperConfig(seed uint64, workers, reps int) balls.SimConfig {
	return balls.SimConfig{Capacities: paperCaps, Reps: reps, Seed: seed, Workers: workers, SortedLoads: true, Heights: paperHeights, Checkpoints: paperCuts()}
}

func callPaper(seed uint64, workers int) (func() (result, error), error) {
	r, err := balls.Simulate(paperConfig(seed, workers, paperReps))
	if err != nil {
		return nil, err
	}
	return func() (result, error) {
		n := len(paperCaps)
		m := totalCap(paperCaps)
		if r.Reps != paperReps || r.Balls != m {
			return result{}, fmt.Errorf("paper-reps: Reps=%d Balls=%d, want %d %d", r.Reps, r.Balls, paperReps, m)
		}
		if len(r.MeanSortedLoads) != n {
			return result{}, fmt.Errorf("paper-reps: %d sorted loads, want n=%d", len(r.MeanSortedLoads), n)
		}
		for i := 1; i < n; i++ {
			if r.MeanSortedLoads[i] > r.MeanSortedLoads[i-1] {
				return result{}, fmt.Errorf("paper-reps: sorted loads increase at %d", i)
			}
		}
		if len(r.Checkpoints) != len(paperCuts()) || len(r.Heights) != paperHeights {
			return result{}, fmt.Errorf("paper-reps: %d checkpoints and %d heights, want %d and %d", len(r.Checkpoints), len(r.Heights), len(paperCuts()), paperHeights)
		}
		h := newHasher()
		h.i(int64(r.Reps))
		h.f(r.MeanMaxLoad)
		h.f(r.WorstMaxLoad)
		h.f(r.MeanDeviation)
		for _, v := range r.MeanSortedLoads {
			h.f(v)
		}
		cpReps := int64(0)
		for _, c := range r.Checkpoints {
			h.i(c.Reps)
			h.f(c.MeanMaxLoad)
			cpReps += c.Reps
		}
		for _, x := range r.Heights {
			h.f(x.MeanBins)
		}
		return result{
			fp:     h.sum(),
			work:   float64(int64(r.Reps) * r.Balls),
			counts: paperCounts(int64(r.Reps), r.Balls, cpReps, r.WorstMaxLoad),
		}, nil
	}, nil
}

// paperCounts are the counts a classic replay must reproduce. The
// worst max load is a maximum over repetitions, exact in any merge
// order, so it is compared bit for bit (as its float bits).
func paperCounts(reps, m, checkpointObs int64, worst float64) map[string]int64 {
	return map[string]int64{"reps": reps, "balls": m, "checkpoint_obs": checkpointObs, "worst_max_bits": int64(math.Float64bits(worst))}
}

func probePaper(seed uint64, workers int) error {
	_, err := balls.Simulate(paperConfig(seed, workers, workers))
	return err
}
