// Package chash implements the consistent-hashing ring that motivates the
// paper's non-uniform selection probabilities (§1 and §1.1) — and the
// membership substrate of the churn-tolerant cluster engine.
//
// Peers are mapped to random points on the unit ring; a key at position x
// is owned by the first peer point at or after x (wrapping). Each peer's
// total arc length is therefore random, and — as the paper recalls from
// Karger et al. — the maximum arc is a Θ(log n) factor above the average
// arc. Treating arcs as bin selection probabilities turns the d-point
// game of Byers et al. into exactly the kind of non-uniform
// balls-into-bins game the paper generalises, which this package
// demonstrates by exporting the arc vector as selection weights.
//
// # Membership churn
//
// A ring is built once and never changes: every peer's virtual points
// are drawn at construction and kept sorted by (position, peer index).
// Membership is a liveness mask over that ring. RemovePeer/AddPeer flip
// one peer's bit in O(1) — no pass over the ring, no re-sort and no RNG
// draw — so the ring is a pure function of (seed, capacities, live set),
// whatever churn history reached that live set, and a peer that crashes
// and recovers returns to exactly its old points (its keys come home).
// Lookups step forward past points whose owner is dead, so they never
// land on a dead peer and its former arcs accrue to its ring successors
// — the consistent-hashing property that only neighbouring shares move
// under churn.
package chash

import (
	"cmp"
	"fmt"
	"math/bits"
	"slices"

	"repro/internal/xrand"
)

// Ring is a consistent-hashing ring over n peers, each owning a fixed
// set of virtual points drawn at construction. Every point stays on the
// ring; live masks out the points of removed peers.
type Ring struct {
	n      int
	points []float64 // every peer's positions in [0,1), sorted by (position, peer)
	owner  []int32   // peer owning each point
	live   []bool
	nLive  int
}

// NewRing places n peers with the given number of virtual nodes each at
// positions drawn from r. All peers start live.
func NewRing(n, vnodes int, r *xrand.Rand) (*Ring, error) {
	if n <= 0 {
		return nil, fmt.Errorf("chash: n = %d", n)
	}
	if vnodes <= 0 {
		return nil, fmt.Errorf("chash: vnodes = %d", vnodes)
	}
	counts := make([]int, n)
	for p := range counts {
		counts[p] = vnodes
	}
	return build(counts, r), nil
}

// NewWeightedRing places peer p with vnodesPerUnit·capacity[p] virtual
// nodes, the standard way to give heterogeneous peers arc shares
// proportional to capacity. Combined with the d-point game this is the
// ring-level equivalent of the paper's capacity-proportional selection:
// the expected arc share of peer p is capacity[p]/ΣC.
func NewWeightedRing(capacities []int64, vnodesPerUnit int, r *xrand.Rand) (*Ring, error) {
	if len(capacities) == 0 {
		return nil, fmt.Errorf("chash: no capacities")
	}
	if vnodesPerUnit <= 0 {
		return nil, fmt.Errorf("chash: vnodesPerUnit = %d", vnodesPerUnit)
	}
	counts := make([]int, len(capacities))
	for i, c := range capacities {
		if c < 1 {
			return nil, fmt.Errorf("chash: capacity %d of peer %d", c, i)
		}
		counts[i] = int(c) * vnodesPerUnit
	}
	return build(counts, r), nil
}

// build draws counts[p] points for every peer IN PEER ORDER (the draw
// sequence is part of the model) and sorts them by (position, peer).
func build(counts []int, r *xrand.Rand) *Ring {
	total := 0
	for _, c := range counts {
		total += c
	}
	drawn := make([]float64, total)
	for i := range drawn {
		drawn[i] = r.Float64()
	}
	ring := &Ring{
		n:      len(counts),
		points: make([]float64, total),
		owner:  make([]int32, total),
		live:   make([]bool, len(counts)),
		nLive:  len(counts),
	}
	for p := range ring.live {
		ring.live[p] = true
	}
	sortPoints(drawn, counts, ring.points, ring.owner)
	return ring
}

// sortPoints writes the positions drawn in peer order (counts[p] per
// peer) to points/owner sorted by (position, peer): a counting sort on
// the top bits of the position, then a stable insertion sort inside
// each bucket. Both passes are stable and the input is in peer order,
// so peer order breaks position ties. The result is right for any
// positions; their uniformity on [0,1) is what keeps the buckets O(1)
// and the sort linear in expectation.
func sortPoints(drawn []float64, counts []int, points []float64, owner []int32) {
	nb := 1 << (bits.Len(uint(len(drawn))) - 1) // largest power of two <= len
	scale := float64(nb)                        // exact: x·scale only shifts the exponent
	end := make([]int32, nb+1)
	for _, x := range drawn {
		end[int(x*scale)+1]++
	}
	for b := 1; b <= nb; b++ {
		end[b] += end[b-1]
	}
	// Scatter: end[b] walks from bucket b's start to its end.
	i := 0
	for p, c := range counts {
		for _, x := range drawn[i : i+c] {
			b := int(x * scale)
			points[end[b]], owner[end[b]] = x, int32(p)
			end[b]++
		}
		i += c
	}
	lo := 0
	for _, e := range end[:nb] {
		hi := int(e)
		for j := lo + 1; j < hi; j++ {
			x, o := points[j], owner[j]
			k := j
			for ; k > lo && points[k-1] > x; k-- {
				points[k], owner[k] = points[k-1], owner[k-1]
			}
			points[k], owner[k] = x, o
		}
		lo = hi
	}
}

// N returns the number of peers (live or not).
func (r *Ring) N() int { return r.n }

// NumLive returns the number of live peers.
func (r *Ring) NumLive() int { return r.nLive }

// Live reports whether peer p is currently live.
func (r *Ring) Live(p int) bool { return r.live[p] }

// RemovePeer masks peer p's points out of the ring in O(1): its points
// stay in place and lookups step past them. The last live peer cannot be
// removed: an empty ring owns nothing and Lookup would be undefined.
func (r *Ring) RemovePeer(p int) error {
	if p < 0 || p >= r.n {
		return fmt.Errorf("chash: RemovePeer(%d) of %d peers", p, r.n)
	}
	if !r.live[p] {
		return fmt.Errorf("chash: RemovePeer(%d): peer is not live", p)
	}
	if r.nLive == 1 {
		return fmt.Errorf("chash: RemovePeer(%d) would empty the ring", p)
	}
	r.live[p] = false
	r.nLive--
	return nil
}

// AddPeer unmasks peer p's points in O(1). A peer that crashes and
// recovers therefore returns to exactly the points it held before, bit
// for bit.
func (r *Ring) AddPeer(p int) error {
	if p < 0 || p >= r.n {
		return fmt.Errorf("chash: AddPeer(%d) of %d peers", p, r.n)
	}
	if r.live[p] {
		return fmt.Errorf("chash: AddPeer(%d): peer is already live", p)
	}
	r.live[p] = true
	r.nLive++
	return nil
}

// nextLive returns the index of the first live point at or after i,
// wrapping around. A ring always has a live peer, so it terminates.
func (r *Ring) nextLive(i int) int {
	for ; i < len(r.points); i++ {
		if r.live[r.owner[i]] {
			return i
		}
	}
	for i = 0; !r.live[r.owner[i]]; i++ {
	}
	return i
}

// Lookup returns the peer owning position x in [0,1): the live peer of
// the first live point at or after x, wrapping around. It probes one
// point per dead point it steps past, so with most peers dead a lookup
// can cost up to the number of points on the ring.
func (r *Ring) Lookup(x float64) int {
	i, _ := slices.BinarySearch(r.points, x)
	return int(r.owner[r.nextLive(i)])
}

// LookupBatch resolves many positions at once: the queries are sorted
// once and resolved in a single merge pass against the sorted ring —
// O(P + Q·log Q) for Q queries over P points instead of Q binary
// searches — writing each query's owner to the matching out slot. Dead
// points are stepped past once per pass, not once per query. Results
// are exactly Lookup's, element for element. out is reused when it has
// the capacity; the filled slice is returned.
func (r *Ring) LookupBatch(xs []float64, out []int) []int {
	if cap(out) < len(xs) {
		out = make([]int, len(xs))
	}
	out = out[:len(xs)]
	if len(xs) == 0 {
		return out
	}
	order := make([]int32, len(xs))
	for i := range order {
		order[i] = int32(i)
	}
	slices.SortFunc(order, func(a, b int32) int { return cmp.Compare(xs[a], xs[b]) })
	i := 0
	for _, q := range order {
		x := xs[q]
		// A point skipped here is below x, hence below every later
		// query, or dead: never the answer to a later query either.
		for i < len(r.points) && (r.points[i] < x || !r.live[r.owner[i]]) {
			i++
		}
		out[q] = int(r.owner[r.nextLive(i)]) // wraps past the end, like Lookup
	}
	return out
}

// ArcLengths returns each peer's total owned arc length; the entries
// sum to 1 and removed peers hold 0. The arc ending at a live point
// starts at the previous live point.
func (r *Ring) ArcLengths() []float64 {
	return r.ArcLengthsInto(nil)
}

// ArcLengthsInto fills dst (grown if needed) with the per-peer arc
// lengths — the allocation-free variant the cluster engine calls after
// every churn tick. Arcs are summed over live points in ascending order.
func (r *Ring) ArcLengthsInto(dst []float64) []float64 {
	if cap(dst) < r.n {
		dst = make([]float64, r.n)
	}
	dst = dst[:r.n]
	clear(dst)
	last := len(r.points) - 1
	for !r.live[r.owner[last]] {
		last--
	}
	// wrap-around arc: from the last live point to 1, plus 0 to the first
	prev := r.points[last] - 1
	for i, x := range r.points {
		if o := r.owner[i]; r.live[o] {
			dst[o] += x - prev
			prev = x
		}
	}
	return dst
}

// ArcStats summarises the arc length distribution.
type ArcStats struct {
	Min, Max, Avg float64
	// MaxOverAvg is the imbalance factor the paper quotes as Θ(log n)
	// for vnodes = 1.
	MaxOverAvg float64
}

// Stats computes arc statistics for the ring (over all peers,
// including removed ones, whose arcs are 0).
func (r *Ring) Stats() ArcStats {
	arcs := r.ArcLengths()
	st := ArcStats{Min: arcs[0], Max: arcs[0]}
	sum := 0.0
	for _, a := range arcs {
		if a < st.Min {
			st.Min = a
		}
		if a > st.Max {
			st.Max = a
		}
		sum += a
	}
	st.Avg = sum / float64(r.n)
	st.MaxOverAvg = st.Max / st.Avg
	return st
}

// dchoiceChunk is the number of balls whose positions DChoiceLoads
// pre-draws and batch-resolves per chunk: big enough to amortise the
// batch sort against per-ball binary searches, small enough that the
// scratch stays cache-resident.
const dchoiceChunk = 4096

// DChoiceLoads plays the Byers et al. d-point game: m balls each draw d
// uniform ring positions, look up the owning peers, and commit to a peer
// currently holding the fewest balls (ties to the first drawn). It
// returns the final ball counts per peer.
//
// Positions are pre-drawn in ball order and resolved chunk-wise through
// LookupBatch — lookups consume no randomness and never read the loads,
// so the batched pass is bit-identical to the serial per-ball original
// (pinned by TestDChoiceBatchParity).
func (r *Ring) DChoiceLoads(m int64, d int, rng *xrand.Rand) ([]int64, error) {
	if d < 1 {
		return nil, fmt.Errorf("chash: d = %d", d)
	}
	loads := make([]int64, r.n)
	chunk := int64(dchoiceChunk)
	xs := make([]float64, 0, chunk*int64(d))
	var owners []int
	for b := int64(0); b < m; b += chunk {
		balls := chunk
		if left := m - b; balls > left {
			balls = left
		}
		xs = xs[:balls*int64(d)]
		for i := range xs {
			xs[i] = rng.Float64()
		}
		owners = r.LookupBatch(xs, owners)
		for i := int64(0); i < balls; i++ {
			cand := owners[i*int64(d) : (i+1)*int64(d)]
			best := cand[0]
			for _, p := range cand[1:] {
				if loads[p] < loads[best] {
					best = p
				}
			}
			loads[best]++
		}
	}
	return loads, nil
}

// MaxLoad returns the maximum entry of loads.
func MaxLoad(loads []int64) int64 {
	var max int64
	for _, l := range loads {
		if l > max {
			max = l
		}
	}
	return max
}
