package chash

import (
	"cmp"
	"math"
	"slices"
	"testing"
	"testing/quick"

	"repro/internal/xrand"
)

func TestNewRingValidation(t *testing.T) {
	r := xrand.New(1)
	if _, err := NewRing(0, 1, r); err == nil {
		t.Error("n = 0 accepted")
	}
	if _, err := NewRing(5, 0, r); err == nil {
		t.Error("vnodes = 0 accepted")
	}
}

func TestArcLengthsSumToOne(t *testing.T) {
	r := xrand.New(2)
	for _, cfg := range []struct{ n, v int }{{1, 1}, {10, 1}, {100, 4}, {3, 50}} {
		ring, err := NewRing(cfg.n, cfg.v, r)
		if err != nil {
			t.Fatal(err)
		}
		arcs := ring.ArcLengths()
		if len(arcs) != cfg.n {
			t.Fatalf("%d arcs for %d peers", len(arcs), cfg.n)
		}
		sum := 0.0
		for _, a := range arcs {
			if a < 0 {
				t.Fatalf("negative arc %v", a)
			}
			sum += a
		}
		if math.Abs(sum-1) > 1e-9 {
			t.Fatalf("arcs sum to %v", sum)
		}
	}
}

func TestLookupConsistentWithArcs(t *testing.T) {
	r := xrand.New(3)
	ring, err := NewRing(50, 1, r)
	if err != nil {
		t.Fatal(err)
	}
	// Monte-Carlo: lookup frequencies should approximate arc lengths.
	arcs := ring.ArcLengths()
	counts := make([]float64, ring.N())
	const samples = 200000
	for i := 0; i < samples; i++ {
		counts[ring.Lookup(r.Float64())]++
	}
	for p := 0; p < ring.N(); p++ {
		got := counts[p] / samples
		if math.Abs(got-arcs[p]) > 0.01 {
			t.Fatalf("peer %d: lookup freq %.4f vs arc %.4f", p, got, arcs[p])
		}
	}
}

func TestSinglePeerOwnsEverything(t *testing.T) {
	r := xrand.New(4)
	ring, err := NewRing(1, 3, r)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 100; i++ {
		if ring.Lookup(r.Float64()) != 0 {
			t.Fatal("single peer does not own everything")
		}
	}
	arcs := ring.ArcLengths()
	if math.Abs(arcs[0]-1) > 1e-9 {
		t.Fatalf("single peer arc = %v", arcs[0])
	}
}

// TestArcImbalanceShrinksWithVnodes: virtual nodes reduce the max/avg arc
// imbalance — the standard consistent-hashing smoothing.
func TestArcImbalanceShrinksWithVnodes(t *testing.T) {
	const n = 200
	avg1, avg32 := 0.0, 0.0
	const reps = 20
	for rep := 0; rep < reps; rep++ {
		r1 := xrand.NewStream(100, uint64(rep))
		r2 := xrand.NewStream(200, uint64(rep))
		ring1, _ := NewRing(n, 1, r1)
		ring32, _ := NewRing(n, 32, r2)
		avg1 += ring1.Stats().MaxOverAvg
		avg32 += ring32.Stats().MaxOverAvg
	}
	avg1 /= reps
	avg32 /= reps
	if avg32 >= avg1 {
		t.Fatalf("vnodes did not reduce imbalance: %v vs %v", avg1, avg32)
	}
	// vnodes = 1 imbalance should be on the order of ln(n) ≈ 5.3; allow a
	// broad band.
	if avg1 < 2 || avg1 > 12 {
		t.Fatalf("vnodes=1 imbalance %v outside sanity band", avg1)
	}
}

// TestDChoiceBeatsSingleChoice: the Byers et al. d-point game must beat
// single-point placement on max load.
func TestDChoiceBeatsSingleChoice(t *testing.T) {
	const n = 300
	var max1, max2 float64
	const reps = 20
	for rep := 0; rep < reps; rep++ {
		r := xrand.NewStream(300, uint64(rep))
		ring, err := NewRing(n, 1, r)
		if err != nil {
			t.Fatal(err)
		}
		l1, err := ring.DChoiceLoads(n, 1, r)
		if err != nil {
			t.Fatal(err)
		}
		l2, err := ring.DChoiceLoads(n, 2, r)
		if err != nil {
			t.Fatal(err)
		}
		max1 += float64(MaxLoad(l1))
		max2 += float64(MaxLoad(l2))
	}
	if max2 >= max1 {
		t.Fatalf("d=2 mean max %v not better than d=1 %v", max2/reps, max1/reps)
	}
}

func TestDChoiceValidation(t *testing.T) {
	r := xrand.New(5)
	ring, _ := NewRing(4, 1, r)
	if _, err := ring.DChoiceLoads(10, 0, r); err == nil {
		t.Error("d = 0 accepted")
	}
}

func TestDChoiceConservesBalls(t *testing.T) {
	r := xrand.New(6)
	ring, _ := NewRing(20, 2, r)
	loads, err := ring.DChoiceLoads(500, 2, r)
	if err != nil {
		t.Fatal(err)
	}
	var sum int64
	for _, l := range loads {
		sum += l
	}
	if sum != 500 {
		t.Fatalf("loads sum %d, want 500", sum)
	}
}

func TestMaxLoadHelper(t *testing.T) {
	if MaxLoad([]int64{1, 7, 3}) != 7 {
		t.Fatal("MaxLoad wrong")
	}
	if MaxLoad(nil) != 0 {
		t.Fatal("MaxLoad(nil) != 0")
	}
}

func TestWeightedRingValidation(t *testing.T) {
	r := xrand.New(7)
	if _, err := NewWeightedRing(nil, 1, r); err == nil {
		t.Error("empty capacities accepted")
	}
	if _, err := NewWeightedRing([]int64{1, 0}, 1, r); err == nil {
		t.Error("zero capacity accepted")
	}
	if _, err := NewWeightedRing([]int64{1}, 0, r); err == nil {
		t.Error("vnodesPerUnit = 0 accepted")
	}
}

// TestWeightedRingArcShares: with many vnodes per capacity unit, each
// peer's arc share approaches capacity/C.
func TestWeightedRingArcShares(t *testing.T) {
	caps := []int64{1, 1, 4, 4, 10}
	var total int64
	for _, c := range caps {
		total += c
	}
	// average arc shares over several rings to beat single-ring variance
	shares := make([]float64, len(caps))
	const reps = 30
	for rep := 0; rep < reps; rep++ {
		r := xrand.NewStream(500, uint64(rep))
		ring, err := NewWeightedRing(caps, 64, r)
		if err != nil {
			t.Fatal(err)
		}
		arcs := ring.ArcLengths()
		for i, a := range arcs {
			shares[i] += a / reps
		}
	}
	for i, c := range caps {
		want := float64(c) / float64(total)
		if math.Abs(shares[i]-want) > 0.25*want+0.01 {
			t.Fatalf("peer %d (cap %d): arc share %.4f, want ~%.4f", i, c, shares[i], want)
		}
	}
}

// TestWeightedRingGame: the d-point game on a capacity-weighted ring is
// playable and conserves balls.
func TestWeightedRingGame(t *testing.T) {
	r := xrand.New(11)
	ring, err := NewWeightedRing([]int64{1, 2, 3, 4}, 8, r)
	if err != nil {
		t.Fatal(err)
	}
	if ring.N() != 4 {
		t.Fatalf("N = %d", ring.N())
	}
	loads, err := ring.DChoiceLoads(100, 2, r)
	if err != nil {
		t.Fatal(err)
	}
	var sum int64
	for _, l := range loads {
		sum += l
	}
	if sum != 100 {
		t.Fatalf("loads sum %d", sum)
	}
}

// Property: lookups always return a valid peer and arcs are a probability
// vector for arbitrary ring shapes.
func TestQuickRingInvariants(t *testing.T) {
	f := func(seed uint64, nRaw, vRaw uint8) bool {
		n := int(nRaw%50) + 1
		v := int(vRaw%4) + 1
		r := xrand.New(seed)
		ring, err := NewRing(n, v, r)
		if err != nil {
			return false
		}
		for i := 0; i < 16; i++ {
			p := ring.Lookup(r.Float64())
			if p < 0 || p >= n {
				return false
			}
		}
		sum := 0.0
		for _, a := range ring.ArcLengths() {
			if a < -1e-12 {
				return false
			}
			sum += a
		}
		return math.Abs(sum-1) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// TestLookupBatchParity: LookupBatch resolves every query to exactly
// the peer the serial Lookup returns, whatever the query order.
func TestLookupBatchParity(t *testing.T) {
	ring, err := NewWeightedRing([]int64{3, 1, 4, 1, 5}, 3, xrand.New(7))
	if err != nil {
		t.Fatal(err)
	}
	r := xrand.New(42)
	xs := make([]float64, 1000)
	for i := range xs {
		xs[i] = r.Float64()
	}
	// Include wrap-around and boundary-adjacent queries.
	xs = append(xs, 0, 0.9999999, 1e-12)
	out := ring.LookupBatch(xs, nil)
	for i, x := range xs {
		if want := ring.Lookup(x); out[i] != want {
			t.Fatalf("query %d (%v): batch %d, serial %d", i, x, out[i], want)
		}
	}
}

// TestChurnLookupOracle: after RemovePeer(p), every point keeps its
// owner unless it was owned by p — those move to SOME other live peer —
// and AddPeer(p) restores the original ring bit-identically (ownership
// AND arc lengths), because a removed peer's vnode points stay on the
// ring, masked, not redrawn.
func TestChurnLookupOracle(t *testing.T) {
	ring, err := NewWeightedRing([]int64{2, 3, 4, 5}, 4, xrand.New(3))
	if err != nil {
		t.Fatal(err)
	}
	r := xrand.New(99)
	xs := make([]float64, 2000)
	for i := range xs {
		xs[i] = r.Float64()
	}
	origOwner := ring.LookupBatch(xs, nil)
	origOwner = append([]int(nil), origOwner...)
	origArcs := ring.ArcLengths()

	const p = 2
	if err := ring.RemovePeer(p); err != nil {
		t.Fatal(err)
	}
	if ring.NumLive() != 3 || ring.Live(p) {
		t.Fatalf("NumLive/Live after remove: %d/%v", ring.NumLive(), ring.Live(p))
	}
	if got := ring.ArcLengths()[p]; got != 0 {
		t.Fatalf("dead peer's arc length = %v, want 0", got)
	}
	after := ring.LookupBatch(xs, nil)
	for i := range xs {
		switch {
		case origOwner[i] != p && after[i] != origOwner[i]:
			t.Fatalf("query %d moved from live peer %d to %d", i, origOwner[i], after[i])
		case origOwner[i] == p && after[i] == p:
			t.Fatalf("query %d still resolves to the dead peer", i)
		}
	}

	if err := ring.AddPeer(p); err != nil {
		t.Fatal(err)
	}
	restored := ring.LookupBatch(xs, nil)
	for i := range xs {
		if restored[i] != origOwner[i] {
			t.Fatalf("query %d: owner %d after recover, originally %d", i, restored[i], origOwner[i])
		}
	}
	for i, a := range ring.ArcLengths() {
		if a != origArcs[i] {
			t.Fatalf("arc %d = %v after recover, originally %v", i, a, origArcs[i])
		}
	}
}

// TestChurnErrors: the membership operations reject out-of-range,
// double-down, double-up and last-live-peer transitions by name.
func TestChurnErrors(t *testing.T) {
	ring, err := NewRing(2, 3, xrand.New(1))
	if err != nil {
		t.Fatal(err)
	}
	if err := ring.RemovePeer(5); err == nil {
		t.Error("out-of-range RemovePeer accepted")
	}
	if err := ring.AddPeer(0); err == nil {
		t.Error("AddPeer of a live peer accepted")
	}
	if err := ring.RemovePeer(0); err != nil {
		t.Fatal(err)
	}
	if err := ring.RemovePeer(0); err == nil {
		t.Error("double RemovePeer accepted")
	}
	if err := ring.RemovePeer(1); err == nil {
		t.Error("last live peer removed")
	}
}

// dchoiceSerial is the pre-batching reference implementation: one
// Lookup per drawn position, in ball order.
func dchoiceSerial(r *Ring, m int64, d int, rng *xrand.Rand) []int64 {
	loads := make([]int64, r.N())
	cand := make([]int, d)
	for b := int64(0); b < m; b++ {
		for j := 0; j < d; j++ {
			cand[j] = r.Lookup(rng.Float64())
		}
		best := cand[0]
		for _, p := range cand[1:] {
			if loads[p] < loads[best] {
				best = p
			}
		}
		loads[best]++
	}
	return loads
}

// TestDChoiceBatchParity: the batched DChoiceLoads is bit-identical to
// the serial per-ball reference — same seed, same loads — including
// across a chunk boundary and after churn, where both step past the
// dead peer's masked points. This is the ring-parity oracle the cluster
// engine's dispatch path leans on.
func TestDChoiceBatchParity(t *testing.T) {
	ring, err := NewWeightedRing([]int64{1, 2, 3, 4, 5, 6}, 3, xrand.New(11))
	if err != nil {
		t.Fatal(err)
	}
	check := func(m int64, d int) {
		t.Helper()
		got, err := ring.DChoiceLoads(m, d, xrand.New(77))
		if err != nil {
			t.Fatal(err)
		}
		want := dchoiceSerial(ring, m, d, xrand.New(77))
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("m=%d d=%d: peer %d batched %d, serial %d", m, d, i, got[i], want[i])
			}
		}
	}
	check(100, 2)
	check(5000, 2) // spans a chunk boundary (chunk = 4096)
	check(300, 3)
	if err := ring.RemovePeer(3); err != nil {
		t.Fatal(err)
	}
	check(5000, 2) // churned ring: dead peer owns nothing
	loads, err := ring.DChoiceLoads(5000, 2, xrand.New(77))
	if err != nil {
		t.Fatal(err)
	}
	if loads[3] != 0 {
		t.Fatalf("dead peer received %d balls", loads[3])
	}
}

// oraclePoint is one (position, peer) pair of the brute-force ring.
type oraclePoint struct {
	pos  float64
	peer int
}

// ringOracle redraws a weighted ring's points from the same seed, in
// peer order, and sorts them by (position, peer) — independently of
// the ring's own counting sort.
func ringOracle(caps []int64, vpu int, seed uint64) []oraclePoint {
	r := xrand.New(seed)
	var pts []oraclePoint
	for p, c := range caps {
		for range int(c) * vpu {
			pts = append(pts, oraclePoint{r.Float64(), p})
		}
	}
	slices.SortFunc(pts, func(a, b oraclePoint) int {
		return cmp.Or(cmp.Compare(a.pos, b.pos), cmp.Compare(a.peer, b.peer))
	})
	return pts
}

// oracleArcs charges each live point the arc from the previous live
// point (wrapping), summed in ascending point order.
func oracleArcs(pts []oraclePoint, live []bool) []float64 {
	arcs := make([]float64, len(live))
	var liveIdx []int
	for i, e := range pts {
		if live[e.peer] {
			liveIdx = append(liveIdx, i)
		}
	}
	for k, i := range liveIdx {
		prev := pts[liveIdx[len(liveIdx)-1]].pos - 1
		if k > 0 {
			prev = pts[liveIdx[k-1]].pos
		}
		arcs[pts[i].peer] += pts[i].pos - prev
	}
	return arcs
}

// oracleLookup scans for the first live point at or after x, wrapping
// to the first live point.
func oracleLookup(pts []oraclePoint, live []bool, x float64) int {
	for _, e := range pts {
		if live[e.peer] && e.pos >= x {
			return e.peer
		}
	}
	for _, e := range pts {
		if live[e.peer] {
			return e.peer
		}
	}
	panic("no live peer")
}

// checkOracle compares the ring's arcs, Lookup and LookupBatch bitwise
// against the brute-force oracle over xs.
func checkOracle(t *testing.T, ring *Ring, pts []oraclePoint, xs []float64, step int) {
	t.Helper()
	live := make([]bool, ring.N())
	for p := range live {
		live[p] = ring.Live(p)
	}
	want := oracleArcs(pts, live)
	for p, a := range ring.ArcLengths() {
		if math.Float64bits(a) != math.Float64bits(want[p]) {
			t.Fatalf("step %d: arc of peer %d = %v, oracle %v", step, p, a, want[p])
		}
	}
	got := ring.LookupBatch(xs, nil)
	for i, x := range xs {
		w := oracleLookup(pts, live, x)
		if got[i] != w || ring.Lookup(x) != w {
			t.Fatalf("step %d: query %v: batch %d, serial %d, oracle %d", step, x, got[i], ring.Lookup(x), w)
		}
	}
}

// FuzzRingChurn drives random AddPeer/RemovePeer sequences (one op per
// byte: toggle peer b mod n) and checks the ring against the oracle
// after every op, with no tolerance.
func FuzzRingChurn(f *testing.F) {
	f.Add(uint64(1), []byte{1, 2, 3}, []byte{0, 1, 0, 2, 1})
	f.Add(uint64(7), []byte{0}, []byte{0, 0})
	f.Add(uint64(9), []byte{3, 0, 9, 1, 1, 4}, []byte{5, 4, 3, 2, 1, 0, 5, 0, 2})
	f.Fuzz(func(t *testing.T, seed uint64, capBytes, ops []byte) {
		if len(capBytes) == 0 || len(capBytes) > 32 || len(ops) > 64 {
			t.Skip()
		}
		caps := make([]int64, len(capBytes))
		for i, b := range capBytes {
			caps[i] = int64(b%4) + 1
		}
		vpu := int(seed%3) + 1
		ring, err := NewWeightedRing(caps, vpu, xrand.New(seed))
		if err != nil {
			t.Fatal(err)
		}
		pts := ringOracle(caps, vpu, seed)
		// Random queries plus every point position and its neighbours.
		q := xrand.New(seed ^ 0x9e3779b97f4a7c15)
		xs := []float64{0, math.Nextafter(1, 0)}
		for range 64 {
			xs = append(xs, q.Float64())
		}
		for _, e := range pts {
			xs = append(xs, e.pos, math.Nextafter(e.pos, 0), math.Nextafter(e.pos, 1))
		}
		checkOracle(t, ring, pts, xs, -1)
		for step, b := range ops {
			p := int(b) % len(caps)
			if nLive := ring.NumLive(); ring.Live(p) {
				err := ring.RemovePeer(p)
				if (err != nil) != (nLive == 1) {
					t.Fatalf("step %d: RemovePeer(%d) with %d live: %v", step, p, nLive, err)
				}
			} else if err := ring.AddPeer(p); err != nil {
				t.Fatalf("step %d: AddPeer(%d): %v", step, p, err)
			}
			checkOracle(t, ring, pts, xs, step)
		}
	})
}

// TestChurnHistoryIndependent: two churn histories that reach the same
// live set give bitwise-equal arcs and lookups.
func TestChurnHistoryIndependent(t *testing.T) {
	caps := []int64{2, 1, 3, 1, 4, 2}
	a, _ := NewWeightedRing(caps, 3, xrand.New(5))
	b, _ := NewWeightedRing(caps, 3, xrand.New(5))
	for _, op := range []struct {
		r  *Ring
		p  int
		up bool
	}{
		{a, 1, false}, {a, 2, false}, {a, 3, false}, {a, 2, true},
		{b, 3, false}, {b, 4, false}, {b, 1, false}, {b, 0, false}, {b, 4, true}, {b, 0, true},
	} {
		var err error
		if op.up {
			err = op.r.AddPeer(op.p)
		} else {
			err = op.r.RemovePeer(op.p)
		}
		if err != nil {
			t.Fatal(err)
		}
	}
	for p := range caps {
		if a.Live(p) != b.Live(p) {
			t.Fatalf("peer %d: live sets differ", p)
		}
	}
	arcsA, arcsB := a.ArcLengths(), b.ArcLengths()
	for p := range arcsA {
		if math.Float64bits(arcsA[p]) != math.Float64bits(arcsB[p]) {
			t.Fatalf("peer %d: arc %v vs %v", p, arcsA[p], arcsB[p])
		}
	}
	r := xrand.New(17)
	xs := make([]float64, 2000)
	for i := range xs {
		xs[i] = r.Float64()
	}
	la, lb := a.LookupBatch(xs, nil), b.LookupBatch(xs, nil)
	for i, x := range xs {
		if la[i] != lb[i] || a.Lookup(x) != b.Lookup(x) {
			t.Fatalf("query %v: %d vs %d", x, la[i], lb[i])
		}
	}
}

// TestLastLivePeerOwnsEverything: with every peer but one removed, all
// lookups — including the wrap past the last point — resolve to it.
func TestLastLivePeerOwnsEverything(t *testing.T) {
	const n, keep = 40, 17
	ring, err := NewRing(n, 3, xrand.New(8))
	if err != nil {
		t.Fatal(err)
	}
	for p := 0; p < n; p++ {
		if p != keep {
			if err := ring.RemovePeer(p); err != nil {
				t.Fatal(err)
			}
		}
	}
	r := xrand.New(21)
	xs := []float64{0, 1e-12, math.Nextafter(1, 0)}
	for range 1000 {
		xs = append(xs, r.Float64())
	}
	for i, got := range ring.LookupBatch(xs, nil) {
		if got != keep || ring.Lookup(xs[i]) != keep {
			t.Fatalf("query %v: batch %d, serial %d, want %d", xs[i], got, ring.Lookup(xs[i]), keep)
		}
	}
	for p, a := range ring.ArcLengths() {
		if p == keep && math.Abs(a-1) > 1e-12 || p != keep && a != 0 {
			t.Fatalf("peer %d: arc %v", p, a)
		}
	}
}

// TestSortPointsTiesAndSkew: the counting sort orders by (position,
// peer) even with position ties across peers and with positions far
// from uniform, crowded into one bucket.
func TestSortPointsTiesAndSkew(t *testing.T) {
	r := xrand.New(4)
	counts := []int{50, 3, 80, 1, 40}
	drawn := make([]float64, 0, 174)
	for p, c := range counts {
		for v := 0; v < c; v++ {
			switch {
			case v%10 == 0:
				drawn = append(drawn, 0.5) // ties across peers, small bucket
			case v%10 == 5:
				drawn = append(drawn, 0.25)
			case p%2 == 0 && v%7 == 1:
				drawn = append(drawn, 1.0/2048) // ties in the crowded bucket
			case p%2 == 0:
				drawn = append(drawn, r.Float64()/1024) // crowd bucket 0
			default:
				drawn = append(drawn, r.Float64())
			}
		}
	}
	want := make([]oraclePoint, 0, len(drawn))
	i := 0
	for p, c := range counts {
		for _, x := range drawn[i : i+c] {
			want = append(want, oraclePoint{x, p})
		}
		i += c
	}
	slices.SortStableFunc(want, func(a, b oraclePoint) int {
		return cmp.Or(cmp.Compare(a.pos, b.pos), cmp.Compare(a.peer, b.peer))
	})
	points := make([]float64, len(drawn))
	owner := make([]int32, len(drawn))
	sortPoints(drawn, counts, points, owner)
	for k, w := range want {
		if points[k] != w.pos || int(owner[k]) != w.peer {
			t.Fatalf("point %d = (%v, %d), want (%v, %d)", k, points[k], owner[k], w.pos, w.peer)
		}
	}
}
