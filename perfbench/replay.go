package main

// Serial replays of the four workloads, built from the public functions
// of the layers the engines compose (bins, dist, sampling, protocol,
// chash, obs) and recording a span around every call into a layer.
// Each replay follows its engine's documented model and stream layout
// step by step, so it reproduces the engine's result: bit for bit where
// exactReplay is set, and in every work count otherwise. Spans named
// sim.* cover the replay's own copy of engine scaffolding (churn,
// rebalance planning, cohort queues), which the engines keep unexported.

import (
	"fmt"
	"math"
	"sort"

	"repro/internal/bins"
	"repro/internal/chash"
	"repro/internal/dist"
	"repro/internal/obs"
	"repro/internal/protocol"
	"repro/internal/sampling"
	"repro/internal/xrand"
)

// routingBlock is the sharded engines' routing block: 256 placement
// blocks per multinomial draw.
const routingBlock = 256 * protocol.BlockSize

// vnodesPerUnit and latencyMax are the cluster engine's defaults.
const (
	vnodesPerUnit = 2
	latencyMax    = 32
	chunkReps     = 8 // the classic engine's repetitions per chunk
)

var greedy2 = protocol.GreedyFactory(2)

// shardPlan splits n bins into contiguous shards and sums each shard's
// selection weight in bin order.
func shardPlan(weights []float64, n, shards int) (bounds []int, shardW []float64) {
	bounds = make([]int, shards+1)
	for s := range bounds {
		bounds[s] = s * n / shards
	}
	shardW = make([]float64, shards)
	for s := range shardW {
		for i := bounds[s]; i < bounds[s+1]; i++ {
			shardW[s] += weights[i]
		}
	}
	return bounds, shardW
}

func newRouter(tr *tracer, shardW []float64) (*sampling.Multinomial, error) {
	sp := tr.begin("sampling.route", -1)
	defer tr.end(sp)
	return sampling.NewMultinomial(shardW)
}

// routeCounts draws the per-shard counts of an m-ball routing pass,
// block b from substream Mix64(base, b); blocks are independent tasks
// in the engines.
func routeCounts(tr *tracer, router *sampling.Multinomial, base uint64, m int64, counts, scratch []int64) {
	clear(counts)
	var rng xrand.Rand
	var blocks int64
	for b := int64(0); b*routingBlock < m; b++ {
		sp := tr.begin("sampling.route", int(b))
		rng.Seed(xrand.Mix64(base, uint64(b)))
		router.Draw(&rng, min(routingBlock, m-b*routingBlock), scratch)
		tr.end(sp)
		for s, c := range scratch {
			counts[s] += c
		}
		blocks++
	}
	tr.count("sampling.route_blocks", blocks)
}

func buildPlacer(tr *tracer, s int, view *bins.Array, weights []float64) (protocol.Placer, error) {
	sp := tr.begin("protocol.build", s)
	defer tr.end(sp)
	tr.count("protocol.builds", 1)
	return greedy2(view, weights)
}

func place(tr *tracer, s int, p protocol.Placer, view *bins.Array, r *xrand.Rand, k int64) {
	sp := tr.begin("protocol.place", s)
	p.PlaceBatch(view, r, k)
	tr.end(sp)
	tr.count("protocol.place_balls", k)
}

func newArray(tr *tracer, caps []int64) (*bins.Array, []float64, error) {
	sp := tr.begin("bins.setup", -1)
	arr, err := bins.New(caps)
	tr.end(sp)
	if err != nil {
		return nil, nil, err
	}
	sp = tr.begin("dist.weights", -1)
	defer tr.end(sp)
	w, err := dist.Proportional{}.Weights(arr)
	return arr, w, err
}

// finalMax is every sharded engine's final observation: recount the
// parent after the shard views quiesce, then one max-load scan.
func finalMax(tr *tracer, arr *bins.Array) float64 {
	sp := tr.begin("bins.hist", -1)
	defer tr.end(sp)
	tr.count("bins.hist_calls", 1)
	arr.Recount()
	return arr.MaxLoad()
}

func views(tr *tracer, arr *bins.Array, bounds []int, use func(s int) bool) ([]*bins.Array, error) {
	sp := tr.begin("bins.setup", -1)
	defer tr.end(sp)
	vs := make([]*bins.Array, len(bounds)-1)
	for s := range vs {
		if !use(s) {
			continue
		}
		v, err := arr.Shard(bounds[s], bounds[s+1])
		if err != nil {
			return nil, err
		}
		vs[s] = v
	}
	return vs, nil
}

// ---- large-place: SimulateLarge

func replayLarge(seed uint64, tr *tracer) (result, error) {
	root := tr.begin("sim.replay", -1)
	arr, weights, err := newArray(tr, largeCaps)
	if err != nil {
		return result{}, err
	}
	n := arr.N()
	bounds, shardW := shardPlan(weights, n, benchShards)
	router, err := newRouter(tr, shardW)
	if err != nil {
		return result{}, err
	}
	m := int64(largeFactor*float64(arr.TotalCapacity()) + 0.5)
	counts := make([]int64, benchShards)
	routeCounts(tr, router, xrand.Mix64(seed, 0), m, counts, make([]int64, benchShards))
	vs, err := views(tr, arr, bounds, func(s int) bool { return counts[s] > 0 })
	if err != nil {
		return result{}, err
	}
	for s, v := range vs {
		if v == nil {
			continue
		}
		p, err := buildPlacer(tr, s, v, weights[bounds[s]:bounds[s+1]])
		if err != nil {
			return result{}, err
		}
		place(tr, s, p, v, xrand.NewStream(seed, uint64(s)+1), counts[s])
	}
	maxLoad := finalMax(tr, arr)
	tr.end(root)
	return result{fp: largeFP(m, counts, maxLoad, n, arr.Balls), work: float64(m), counts: map[string]int64{"balls": m}}, nil
}

// ---- stream-churn: SimulateStream

// apportion orders deficit shards by descending largest-remainder
// residue, ties by ascending shard index: a total order, so any sort
// gives the same permutation.
type apportion struct {
	rem []float64
	idx []int
}

func (a *apportion) Len() int      { return len(a.idx) }
func (a *apportion) Swap(i, j int) { a.idx[i], a.idx[j] = a.idx[j], a.idx[i] }
func (a *apportion) Less(i, j int) bool {
	ri, rj := a.rem[a.idx[i]], a.rem[a.idx[j]]
	if ri != rj {
		return ri > rj
	}
	return a.idx[i] < a.idx[j]
}

// settle hands out the leftover of a floor apportionment of m (assigned
// so far) one ball per candidate in residue order, or takes back an
// over-assignment from the smallest residues.
func (a *apportion) settle(m, assigned int64, out []int64) {
	sort.Sort(a)
	k := len(a.idx)
	for r := m - assigned; r > 0; {
		for j := 0; j < k && r > 0; j++ {
			out[a.idx[j]]++
			r--
		}
	}
	for r := assigned - m; r > 0; {
		for j := k - 1; j >= 0 && r > 0; j-- {
			if out[a.idx[j]] > 0 {
				out[a.idx[j]]--
				r--
			}
		}
	}
}

// removeDraws is the without-replacement deletion kernel of the stream
// engine for one shard: rebuild the shard's count tree from its live
// loads, draw q bins on the given stream, then remove one ball from
// each. Drawing all q before removing any gives the same bins, since
// the tree already tracks every draw; it keeps the two layers' spans
// apart.
func removeDraws(tr *tracer, s int, view *bins.Array, tree *sampling.CountTree, q int64, stream uint64, buf []int) []int {
	if q == 0 {
		return buf
	}
	sp := tr.begin("sampling.delete", s)
	tree.Build(view.Balls)
	var rng xrand.Rand
	rng.Seed(stream)
	buf = buf[:0]
	for k := int64(0); k < q; k++ {
		i := tree.Sample(&rng)
		tree.Dec(i)
		buf = append(buf, i)
	}
	tr.end(sp)
	tr.count("sampling.delete_draws", q)
	sp = tr.begin("bins.remove", s)
	for _, i := range buf {
		view.Remove(i)
	}
	tr.end(sp)
	tr.count("bins.remove_calls", q)
	return buf
}

func replayStream(seed uint64, tr *tracer) (result, error) {
	root := tr.begin("sim.replay", -1)
	arr, weights, err := newArray(tr, largeCaps)
	if err != nil {
		return result{}, err
	}
	n, shards := arr.N(), benchShards
	bounds, shardW := shardPlan(weights, n, shards)
	router, err := newRouter(tr, shardW)
	if err != nil {
		return result{}, err
	}
	var sumW float64
	for _, w := range shardW {
		sumW += w
	}
	vs, err := views(tr, arr, bounds, func(s int) bool { return shardW[s] > 0 })
	if err != nil {
		return result{}, err
	}
	sp := tr.begin("bins.setup", -1)
	trees := make([]*sampling.CountTree, shards)
	for s, v := range vs {
		if v != nil {
			if trees[s], err = sampling.NewCountTree(v.N()); err != nil {
				return result{}, err
			}
		}
	}
	shardT, err := sampling.NewCountTree(shards)
	tr.end(sp)
	if err != nil {
		return result{}, err
	}
	placers := make([]protocol.Placer, shards)
	for s, v := range vs {
		if v != nil {
			if placers[s], err = buildPlacer(tr, s, v, weights[bounds[s]:bounds[s+1]]); err != nil {
				return result{}, err
			}
		}
	}

	kk := uint64(3*shards + 2) // streams per round
	rands := make([]xrand.Rand, shards)
	counts, scratch := make([]int64, shards), make([]int64, shards)
	sballs, delQuota := make([]int64, shards), make([]int64, shards)
	moveOut, moveIn := make([]int64, shards), make([]int64, shards)
	targets, defW := make([]float64, shards), make([]float64, shards)
	ap := apportion{rem: make([]float64, shards)}
	var buf []int
	var srand xrand.Rand
	var total, arrived, deleted, moved int64
	for r, m := range streamSchedule() {
		rbase := uint64(r) * kk
		for s := range rands {
			rands[s].Seed(xrand.Mix64(seed, rbase+1+uint64(s)))
		}
		if m > 0 {
			routeCounts(tr, router, xrand.Mix64(seed, rbase), m, counts, scratch)
			for s, c := range counts {
				if c > 0 {
					place(tr, s, placers[s], vs[s], &rands[s], c)
				}
				sballs[s] += c
			}
			total += m
		}
		d := min(int64(streamChurn), total)
		if d > 0 {
			sp := tr.begin("sampling.delete", -1)
			shardT.Build(func(s int) int64 { return sballs[s] })
			srand.Seed(xrand.Mix64(seed, rbase+1+uint64(shards)))
			clear(delQuota)
			for k := int64(0); k < d; k++ {
				s := shardT.Sample(&srand)
				shardT.Dec(s)
				delQuota[s]++
			}
			tr.end(sp)
			tr.count("sampling.delete_draws", d)
			for s, q := range delQuota {
				buf = removeDraws(tr, s, vs[s], trees[s], q, xrand.Mix64(seed, rbase+2+uint64(shards)+uint64(s)), buf)
				sballs[s] -= q
			}
			total -= d
		}
		sp := tr.begin("sim.rebalance", -1)
		mv := planRebalance(streamTol, total, sumW, shardW, sballs, vs, targets, defW, moveOut, moveIn, &ap)
		tr.end(sp)
		if mv > 0 {
			for s, q := range moveOut {
				buf = removeDraws(tr, s, vs[s], trees[s], q, xrand.Mix64(seed, rbase+2+2*uint64(shards)+uint64(s)), buf)
			}
			for s, q := range moveIn {
				if q > 0 {
					place(tr, s, placers[s], vs[s], &rands[s], q)
				}
			}
			for s := range sballs {
				sballs[s] += moveIn[s] - moveOut[s]
			}
		}
		arrived += m
		deleted += d
		moved += mv
	}
	maxLoad := finalMax(tr, arr)
	tr.end(root)
	return streamResult(arrived, deleted, moved, total, sballs, maxLoad, n, arr.Balls), nil
}

// planRebalance is the stream engine's rebalance plan: shards above
// (1+tol) times their weight-proportional target shed the excess, which
// the deficit shards absorb by largest remainder. It returns the number
// of balls moved.
func planRebalance(tol float64, total int64, sumW float64, shardW []float64, sballs []int64, vs []*bins.Array, targets, defW []float64, moveOut, moveIn []int64, ap *apportion) int64 {
	if total == 0 || sumW <= 0 {
		return 0
	}
	b := float64(total)
	var m int64
	for s := range shardW {
		targets[s] = shardW[s] / sumW * b
		lim := int64(math.Ceil((1 + tol) * targets[s]))
		moveOut[s] = max(sballs[s]-lim, 0)
		m += moveOut[s]
	}
	if m == 0 {
		return 0
	}
	var wd float64
	ap.idx = ap.idx[:0]
	for s := range shardW {
		moveIn[s], defW[s] = 0, 0
		if vs[s] == nil {
			continue
		}
		if def := targets[s] - float64(sballs[s]); def > 0 {
			defW[s] = def
			wd += def
			ap.idx = append(ap.idx, s)
		}
	}
	if wd <= 0 || len(ap.idx) == 0 {
		clear(moveOut)
		return 0
	}
	var assigned int64
	for _, s := range ap.idx {
		ideal := float64(m) * defW[s] / wd
		q := math.Floor(ideal)
		moveIn[s] = int64(q)
		ap.rem[s] = ideal - q
		assigned += int64(q)
	}
	ap.settle(m, assigned, moveIn)
	return m
}

// ---- cluster-serve: SimulateCluster

// cohort is a batch of requests sharing (dispatch tick, origin tick,
// attempt), one FIFO entry per server per batch.
type cohort struct {
	disp, orig int32
	att        int16
	count      int64
}

type retryEntry struct {
	orig  int32
	att   int16
	count int64
}

// clusterReplay is the working set of one serial cluster replay.
type clusterReplay struct {
	tr        *tracer
	seed      uint64
	n, shards int
	caps      []int64
	ring      *chash.Ring
	weights   []float64
	prevW     []float64
	live      []bool
	nLive     int
	liveCap   int64
	bounds    []int
	shardW    []float64
	sumW      float64
	router    *sampling.Multinomial
	peerShard []int
	vs        []*bins.Array
	placers   []protocol.Placer
	dirty     []bool
	rands     []xrand.Rand
	before    [][]int64
	queues    [][]cohort
	work      [][]cohort
	aport     []int64
	ap        apportion
	svcLat    []*obs.Latency
	lat       *obs.Latency
	obsBuf    [][2]int64 // (latency, count) pairs of one shard's service pass
	rmBuf     [][2]int64 // (bin, balls) removals of one shard's pass
	tick      int
}

func replayCluster(seed uint64, tr *tracer) (result, error) {
	root := tr.begin("sim.replay", -1)
	c := &clusterReplay{tr: tr, seed: seed, shards: benchShards}
	sp := tr.begin("bins.setup", -1)
	arr, err := bins.New(clusterCaps)
	tr.end(sp)
	if err != nil {
		return result{}, err
	}
	c.n, c.caps, c.liveCap = arr.N(), arr.Capacities(), arr.TotalCapacity()
	sp = tr.begin("chash.build", -1)
	c.ring, err = chash.NewWeightedRing(c.caps, vnodesPerUnit, xrand.NewStream(seed, 0))
	tr.end(sp)
	if err != nil {
		return result{}, err
	}
	tr.count("chash.ring_points", sum(c.caps)*vnodesPerUnit)
	sp = tr.begin("chash.arcs", -1)
	c.weights = c.ring.ArcLengths()
	tr.end(sp)
	c.prevW = append([]float64(nil), c.weights...)
	c.live = make([]bool, c.n)
	for i := range c.live {
		c.live[i] = true
	}
	c.nLive = c.n
	c.bounds, c.shardW = shardPlan(c.weights, c.n, c.shards)
	if c.router, err = newRouter(tr, c.shardW); err != nil {
		return result{}, err
	}
	for _, w := range c.shardW {
		c.sumW += w
	}
	c.peerShard = make([]int, c.n)
	for s := 0; s < c.shards; s++ {
		for i := c.bounds[s]; i < c.bounds[s+1]; i++ {
			c.peerShard[i] = s
		}
	}
	if c.lat, err = obs.NewLatency(latencyMax); err != nil {
		return result{}, err
	}
	if c.vs, err = views(tr, arr, c.bounds, func(int) bool { return true }); err != nil {
		return result{}, err
	}
	sp = tr.begin("bins.setup", -1)
	c.before = make([][]int64, c.shards)
	c.svcLat = make([]*obs.Latency, c.shards)
	c.dirty = make([]bool, c.shards)
	for s, v := range c.vs {
		c.before[s] = make([]int64, v.N())
		c.svcLat[s], _ = obs.NewLatency(latencyMax) // latencyMax is valid
		c.dirty[s] = true
	}
	tr.end(sp)
	c.placers = make([]protocol.Placer, c.shards)
	c.rands = make([]xrand.Rand, c.shards)
	c.queues = make([][]cohort, c.n)
	c.work = make([][]cohort, c.shards)
	c.aport = make([]int64, c.shards)
	c.ap = apportion{rem: make([]float64, c.shards)}
	if err := c.setup(); err != nil {
		return result{}, err
	}

	kk := uint64(c.shards + 2) // streams per tick
	retryQ := map[int][]retryEntry{}
	counts, scratch := make([]int64, c.shards), make([]int64, c.shards)
	expired := make([][]cohort, c.shards)
	var cnt clusterCounts
	var liveQ, pendingRetry int64
	livePerTick := make([]int, 0, clusterTicks)
	var crand xrand.Rand
	for t := 0; t < clusterTicks; t++ {
		c.tick = t
		tbase := 1 + uint64(t)*kk
		for s := range c.rands {
			c.rands[s].Seed(xrand.Mix64(seed, tbase+2+uint64(s)))
		}

		// Churn: one Bernoulli draw per server from the tick's churn stream.
		sp := tr.begin("sim.churn", -1)
		var crashed []int
		recovered := 0
		crand.Seed(xrand.Mix64(seed, tbase))
		for p := 0; p < c.n; p++ {
			u := crand.Float64()
			if c.live[p] {
				if u < clusterChurn.CrashProb && c.nLive > 1 {
					if err := c.member(p, false); err != nil {
						return result{}, err
					}
					crashed = append(crashed, p)
				}
			} else if u < clusterChurn.RecoverProb {
				if err := c.member(p, true); err != nil {
					return result{}, err
				}
				recovered++
			}
		}
		tr.end(sp)
		tickLive := c.nLive
		var movedT int64
		if len(crashed) > 0 || recovered > 0 {
			if err := c.reshard(); err != nil {
				return result{}, err
			}
			if err := c.setup(); err != nil {
				return result{}, err
			}
			movedT = c.redistribute(crashed)
		}

		// Admission control.
		arrivedT, admitT, shedT := int64(clusterLoad), int64(clusterLoad), int64(0)
		if room := max(int64(math.Floor(clusterShed*float64(c.liveCap)))-liveQ, 0); admitT > room {
			admitT, shedT = room, arrivedT-room
		}

		// Arrival dispatch.
		if admitT > 0 {
			routeCounts(tr, c.router, xrand.Mix64(seed, tbase+1), admitT, counts, scratch)
			for s, k := range counts {
				if k > 0 {
					c.placeCohort(s, int32(t), int32(t), 0, k)
				}
			}
			liveQ += admitT
		}

		// Retry dispatch of batches whose backoff elapses now.
		var retriedT int64
		if due := retryQ[t]; len(due) > 0 {
			delete(retryQ, t)
			sp := tr.begin("sim.queue", -1)
			for _, e := range due {
				c.apportionLive(e.count)
				for s, k := range c.aport {
					if k > 0 {
						c.work[s] = append(c.work[s], cohort{disp: int32(t), orig: e.orig, att: e.att, count: k})
					}
				}
				retriedT += e.count
			}
			tr.end(sp)
			pendingRetry -= retriedT
			c.drainWork()
			liveQ += retriedT
		}

		// Service.
		var doneT int64
		for s := 0; s < c.shards; s++ {
			doneT += c.serve(s)
		}
		liveQ -= doneT

		// Timeouts.
		var timedOutT, failedT int64
		for s := 0; s < c.shards; s++ {
			expired[s] = c.expire(s, expired[s])
		}
		for s := 0; s < c.shards; s++ {
			for _, e := range expired[s] {
				timedOutT += e.count
				if int(e.att) < clusterRetry.MaxRetries {
					att := e.att + 1
					due := t + clusterRetry.Backoff(int(att))
					retryQ[due] = append(retryQ[due], retryEntry{orig: e.orig, att: att, count: e.count})
					pendingRetry += e.count
				} else {
					failedT += e.count
				}
			}
		}
		liveQ -= timedOutT

		cnt.arrived += arrivedT
		cnt.shed += shedT
		cnt.admitted += admitT
		cnt.retried += retriedT
		cnt.redistributed += movedT
		cnt.completed += doneT
		cnt.timedOut += timedOutT
		cnt.failed += failedT
		cnt.crashes += int64(len(crashed))
		cnt.recoveries += int64(recovered)
		livePerTick = append(livePerTick, tickLive)
		sp = tr.begin("obs.latency", -1)
		for s := 0; s < c.shards; s++ {
			if err := c.lat.Merge(c.svcLat[s]); err != nil {
				return result{}, err
			}
		}
		tr.end(sp)
	}
	cnt.queued, cnt.pendingRetry = liveQ, pendingRetry
	maxLoad := finalMax(tr, arr)
	tr.end(root)
	return clusterResult(cnt, livePerTick, c.lat.Buckets(), maxLoad, c.n, arr.Balls), nil
}

// member takes server p off the ring (up=false) or re-mounts it.
func (c *clusterReplay) member(p int, up bool) error {
	sp := c.tr.begin("chash.reshard", -1)
	defer c.tr.end(sp)
	c.tr.count("chash.reshard_ops", 1)
	if up {
		if err := c.ring.AddPeer(p); err != nil {
			return err
		}
		c.live[p] = true
		c.nLive++
		c.liveCap += c.caps[p]
		return nil
	}
	if err := c.ring.RemovePeer(p); err != nil {
		return err
	}
	c.live[p] = false
	c.nLive--
	c.liveCap -= c.caps[p]
	return nil
}

// reshard recomputes arc weights after churn, marks the shards whose
// weights changed and rebuilds the router.
func (c *clusterReplay) reshard() error {
	sp := c.tr.begin("chash.arcs", -1)
	c.weights = c.ring.ArcLengthsInto(c.weights)
	c.tr.end(sp)
	for i := 0; i < c.n; i++ {
		if c.weights[i] != c.prevW[i] {
			c.dirty[c.peerShard[i]] = true
			c.prevW[i] = c.weights[i]
		}
	}
	c.sumW = 0
	for s := 0; s < c.shards; s++ {
		var w float64
		for i := c.bounds[s]; i < c.bounds[s+1]; i++ {
			w += c.weights[i]
		}
		c.shardW[s] = w
		c.sumW += w
	}
	r, err := newRouter(c.tr, c.shardW)
	if err != nil {
		return err
	}
	c.router = r
	return nil
}

// setup rebuilds the placers of the shards whose weights changed.
func (c *clusterReplay) setup() error {
	for s := 0; s < c.shards; s++ {
		if !c.dirty[s] {
			continue
		}
		c.dirty[s] = false
		w := c.weights[c.bounds[s]:c.bounds[s+1]]
		var sumW float64
		for _, v := range w {
			sumW += v
		}
		if sumW <= 0 {
			c.placers[s] = nil
			continue
		}
		p, err := buildPlacer(c.tr, s, c.vs[s], w)
		if err != nil {
			return err
		}
		c.placers[s] = p
	}
	return nil
}

// placeCohort places one batch on shard s and appends a cohort to every
// server whose queue grew.
func (c *clusterReplay) placeCohort(s int, disp, orig int32, att int16, count int64) {
	if count == 0 {
		return
	}
	sp := c.tr.begin("sim.queue", s)
	v, lo, b := c.vs[s], c.bounds[s], c.before[s]
	for i := range b {
		b[i] = v.Balls(i)
	}
	place(c.tr, s, c.placers[s], v, &c.rands[s], count)
	for i := range b {
		if d := v.Balls(i) - b[i]; d > 0 {
			c.queues[lo+i] = append(c.queues[lo+i], cohort{disp: disp, orig: orig, att: att, count: d})
		}
	}
	c.tr.end(sp)
}

// drainWork places every shard's pending work list.
func (c *clusterReplay) drainWork() {
	for s := range c.work {
		for _, it := range c.work[s] {
			c.placeCohort(s, it.disp, it.orig, it.att, it.count)
		}
		c.work[s] = c.work[s][:0]
	}
}

// apportionLive splits m requests over the live shard weights by
// largest remainder into c.aport.
func (c *clusterReplay) apportionLive(m int64) {
	clear(c.aport)
	if m == 0 || c.sumW <= 0 {
		return
	}
	c.ap.idx = c.ap.idx[:0]
	var assigned int64
	for s := 0; s < c.shards; s++ {
		if c.shardW[s] <= 0 {
			continue
		}
		ideal := float64(m) * c.shardW[s] / c.sumW
		q := math.Floor(ideal)
		c.aport[s] = int64(q)
		c.ap.rem[s] = ideal - q
		assigned += int64(q)
		c.ap.idx = append(c.ap.idx, s)
	}
	if len(c.ap.idx) > 0 {
		c.ap.settle(m, assigned, c.aport)
	}
}

// redistribute drains the crashed servers' queues over the live shards,
// keeping each cohort's dispatch and origin ticks.
func (c *clusterReplay) redistribute(crashed []int) int64 {
	var moved int64
	sp := c.tr.begin("sim.queue", -1)
	for _, p := range crashed {
		q := c.queues[p]
		c.queues[p] = nil
		s := c.peerShard[p]
		for _, co := range q {
			rm := c.tr.begin("bins.remove", -1)
			c.vs[s].RemoveBalls(p-c.bounds[s], co.count)
			c.tr.end(rm)
			c.tr.count("bins.remove_calls", 1)
			c.apportionLive(co.count)
			for s2, k := range c.aport {
				if k > 0 {
					c.work[s2] = append(c.work[s2], cohort{disp: co.disp, orig: co.orig, att: co.att, count: k})
				}
			}
			moved += co.count
		}
	}
	c.tr.end(sp)
	if moved > 0 {
		c.drainWork()
	}
	return moved
}

// serve is shard s's service pass: every live server completes up to
// its capacity FIFO. Latency observations and ball removals are
// collected during the queue walk and applied afterwards, in the same
// order, so each layer gets its own span.
func (c *clusterReplay) serve(s int) int64 {
	sp := c.tr.begin("sim.queue", s)
	c.obsBuf, c.rmBuf = c.obsBuf[:0], c.rmBuf[:0]
	now := int64(c.tick)
	var done int64
	for p := c.bounds[s]; p < c.bounds[s+1]; p++ {
		if !c.live[p] {
			continue
		}
		q := c.queues[p]
		budget := c.caps[p]
		var served int64
		for budget > 0 && len(q) > 0 {
			co := &q[0]
			take := min(co.count, budget)
			c.obsBuf = append(c.obsBuf, [2]int64{now - int64(co.orig) + 1, take})
			co.count -= take
			budget -= take
			served += take
			if co.count == 0 {
				q = q[1:]
			}
		}
		c.queues[p] = q
		if served > 0 {
			c.rmBuf = append(c.rmBuf, [2]int64{int64(p - c.bounds[s]), served})
			done += served
		}
	}
	c.tr.end(sp)
	sp = c.tr.begin("obs.latency", s)
	lat := c.svcLat[s]
	lat.Reset()
	for _, o := range c.obsBuf {
		lat.ObserveN(o[0], o[1])
	}
	c.tr.end(sp)
	c.removeAll(s)
	return done
}

// expire is shard s's timeout scan: cohorts dispatched at or before
// tick − TimeoutTicks leave their queues.
func (c *clusterReplay) expire(s int, exp []cohort) []cohort {
	sp := c.tr.begin("sim.queue", s)
	cutoff := int32(c.tick - clusterRetry.TimeoutTicks)
	exp = exp[:0]
	c.rmBuf = c.rmBuf[:0]
	for p := c.bounds[s]; p < c.bounds[s+1]; p++ {
		q := c.queues[p]
		kept := q[:0]
		var gone int64
		for _, co := range q {
			if co.disp <= cutoff {
				exp = append(exp, co)
				gone += co.count
			} else {
				kept = append(kept, co)
			}
		}
		c.queues[p] = kept
		if gone > 0 {
			c.rmBuf = append(c.rmBuf, [2]int64{int64(p - c.bounds[s]), gone})
		}
	}
	c.tr.end(sp)
	c.removeAll(s)
	return exp
}

func (c *clusterReplay) removeAll(s int) {
	if len(c.rmBuf) == 0 {
		return
	}
	sp := c.tr.begin("bins.remove", s)
	for _, r := range c.rmBuf {
		c.vs[s].RemoveBalls(int(r[0]), r[1])
	}
	c.tr.end(sp)
	c.tr.count("bins.remove_calls", int64(len(c.rmBuf)))
}

// ---- paper-reps: Simulate (classic engine)

// paperChunk holds one chunk's collectors, as the classic engine keeps
// them per chunk and merges them in chunk order.
type paperChunk struct {
	cp    *obs.Checkpoints
	hl    *obs.Heights
	loads *obs.SortedLoads
}

func replayPaper(seed uint64, tr *tracer) (result, error) {
	root := tr.begin("sim.replay", -1)
	base, weights, err := newArray(tr, paperCaps)
	if err != nil {
		return result{}, err
	}
	sp := tr.begin("bins.setup", -1)
	arr := base.Clone()
	arr.Reset()
	tr.end(sp)
	placer, err := buildPlacer(tr, 0, arr, weights)
	if err != nil {
		return result{}, err
	}
	cuts := paperCuts()
	m := arr.TotalCapacity()
	hist := arr.NewLoadHistogram()
	histInto := func(chunk int) error {
		sp := tr.begin("bins.hist", chunk)
		defer tr.end(sp)
		tr.count("bins.hist_calls", 1)
		return arr.HistogramInto(hist)
	}
	snap := func(chunk int, f func() error) error {
		sp := tr.begin("obs.snapshot", chunk)
		defer tr.end(sp)
		tr.count("obs.snapshots", 1)
		return f()
	}
	chunks := make([]paperChunk, (paperReps+chunkReps-1)/chunkReps)
	var worst float64
	for rep := 0; rep < paperReps; rep++ {
		ci := rep / chunkReps
		ch := &chunks[ci]
		if ch.cp == nil {
			*ch = paperChunk{cp: obs.NewCheckpoints(cuts), hl: obs.NewHeights(paperHeights), loads: obs.NewSortedLoads()}
		}
		r := xrand.NewStream(seed, uint64(rep))
		sp := tr.begin("bins.setup", ci)
		arr.Reset()
		tr.end(sp)
		placed := int64(0)
		for k, cut := range cuts {
			if cut > m {
				break
			}
			place(tr, ci, placer, arr, r, cut-placed)
			placed = cut
			if err := histInto(ci); err != nil {
				return result{}, err
			}
			if err := snap(ci, func() error { return ch.cp.SnapshotHist(k, hist, cut) }); err != nil {
				return result{}, err
			}
		}
		place(tr, ci, placer, arr, r, m-placed)
		if err := histInto(ci); err != nil {
			return result{}, err
		}
		worst = max(worst, hist.MaxLoad())
		err := snap(ci, func() error {
			if err := ch.hl.SnapshotHist(obs.Final, hist, m); err != nil {
				return err
			}
			return ch.loads.SnapshotHist(obs.Final, hist, m)
		})
		if err != nil {
			return result{}, err
		}
	}
	err = snap(-1, func() error {
		for _, ch := range chunks[1:] {
			for _, pair := range [][2]obs.Collector{{chunks[0].cp, ch.cp}, {chunks[0].hl, ch.hl}, {chunks[0].loads, ch.loads}} {
				if err := pair[0].Merge(pair[1]); err != nil {
					return err
				}
			}
		}
		return nil
	})
	if err != nil {
		return result{}, err
	}
	var cpObs int64
	for _, row := range chunks[0].cp.Rows() {
		cpObs += row.Reps()
	}
	if got := chunks[0].loads.Reps(); got != paperReps {
		return result{}, fmt.Errorf("paper-reps replay: sorted loads over %d reps, want %d", got, paperReps)
	}
	tr.end(root)
	return result{work: float64(paperReps * m), counts: paperCounts(paperReps, m, cpObs, worst)}, nil
}
