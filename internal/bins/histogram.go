// One-pass load-histogram kernel: the observation substrate shared by
// every simulation engine.
//
// A LoadHistogram holds exact integer counts over the distinct
// (ball count, capacity class) pairs present in an Array — built in ONE
// O(n) (or O(shard)) pass by Array.HistogramInto. Every headline
// observable then derives from the pairs instead of re-scanning bins:
// the maximum load is an exact rational argmax over at most
// (classes) candidate pairs, bins-above-height-k is a weighted suffix
// sum, the sorted load vector is a counting sort by cross-multiplied
// rational order over the few hundred distinct pairs (never an
// O(n log n) float sort), and per-class observables read one column.
//
// Histograms merge by integer addition, so sharded engines build them
// per shard in parallel and fold in shard order — the merged histogram
// is identical for any worker topology by construction, and every
// float derived from it is computed once, from the same integers.
//
// Exactness: all pair comparisons cross-multiply int64 rationals (safe
// while max(balls)·max(capacity) < 2^63, the package contract). The
// float a derivation reports is float64(balls)/float64(capacity) of
// the winning pair; for operands exactly representable in float64
// (anything below 2^53, far beyond the paper's loads) equal rationals
// divide to identical floats, so the histogram path reports bit-equal
// values to the per-bin scan it replaces.
package bins

import "fmt"

// denseClassLimit is the largest capacity value for which the
// histogram keeps a dense capacity→class lookup table (one int32 per
// capacity value up to the largest class). Above it, lookups fall back
// to binary search over the (few) classes.
const denseClassLimit = 1 << 16

// LoadHistogram is an exact integer histogram over (ball count,
// capacity class) pairs: counts[h][ci] bins of capacity classes[ci]
// hold exactly h balls. The class skeleton (classes, lookup table) is
// immutable after construction and shared across CloneEmpty copies;
// the counts grow by whole rows as larger ball counts appear and are
// reused across Reset/HistogramInto cycles, so steady-state rebuilds
// allocate nothing.
type LoadHistogram struct {
	classes []int64 // ascending distinct capacities (immutable)
	capIdx  []int32 // dense capacity→class index, -1 gaps; nil when classes exceed denseClassLimit
	counts  []int64 // row-major: counts[h*len(classes)+ci]
	rows    int     // high-water row count; len(counts) == rows*len(classes)
	nbins   int64
	nballs  int64
}

// NewLoadHistogram builds an empty histogram over the given capacity
// classes, which must be positive and strictly increasing (the order
// CapacityClasses produces).
func NewLoadHistogram(classes []int64) (*LoadHistogram, error) {
	if len(classes) == 0 {
		return nil, fmt.Errorf("bins: histogram over no capacity classes")
	}
	for i, c := range classes {
		if c < 1 {
			return nil, fmt.Errorf("bins: histogram class %d is %d, capacities are >= 1", i, c)
		}
		if i > 0 && c <= classes[i-1] {
			return nil, fmt.Errorf("bins: histogram classes must be strictly increasing (class %d: %d after %d)", i, c, classes[i-1])
		}
	}
	h := &LoadHistogram{classes: append([]int64(nil), classes...)}
	if maxC := h.classes[len(h.classes)-1]; maxC <= denseClassLimit {
		h.capIdx = make([]int32, maxC+1)
		for i := range h.capIdx {
			h.capIdx[i] = -1
		}
		for ci, c := range h.classes {
			h.capIdx[c] = int32(ci)
		}
	}
	return h, nil
}

// NewLoadHistogram builds an empty histogram whose class skeleton
// covers exactly this array's capacity classes.
func (a *Array) NewLoadHistogram() *LoadHistogram {
	h, err := NewLoadHistogram(a.CapacityClasses())
	if err != nil {
		// CapacityClasses of a constructed Array is sorted, distinct
		// and positive by New's validation; failing here is a
		// programming error, not an input error.
		panic(err)
	}
	return h
}

// CloneEmpty returns an empty histogram sharing the receiver's
// immutable class skeleton — the per-shard histograms of a sharded
// engine all share one skeleton, so Merge can never face a class
// mismatch and the (possibly large) lookup table exists once.
func (h *LoadHistogram) CloneEmpty() *LoadHistogram {
	return &LoadHistogram{classes: h.classes, capIdx: h.capIdx}
}

// CloneEmpties returns n empty histograms sharing the receiver's class
// skeleton, their first counts matrices (minCounts cells each) carved
// out of one allocation: the per-shard histograms of a sharded engine.
// Each carve is capacity-limited, so a histogram that outgrows it
// reallocates instead of spilling into its neighbour's.
func (h *LoadHistogram) CloneEmpties(n int) []LoadHistogram {
	nc := len(h.classes)
	rows := (minCounts + nc - 1) / nc
	per := rows * nc
	flat := make([]int64, n*per)
	hs := make([]LoadHistogram, n)
	for i := range hs {
		hs[i] = LoadHistogram{classes: h.classes, capIdx: h.capIdx, counts: flat[i*per : (i+1)*per : (i+1)*per], rows: rows}
	}
	return hs
}

// classIndex returns the class index of capacity c, or -1 when c is
// not a class of this skeleton.
func (h *LoadHistogram) classIndex(c int64) int {
	if h.capIdx != nil {
		if c >= 0 && c < int64(len(h.capIdx)) {
			return int(h.capIdx[c])
		}
		return -1
	}
	lo, hi := 0, len(h.classes)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if h.classes[mid] < c {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo < len(h.classes) && h.classes[lo] == c {
		return lo
	}
	return -1
}

// Reset empties the histogram, keeping the row capacity for reuse.
func (h *LoadHistogram) Reset() {
	clear(h.counts)
	h.nbins, h.nballs = 0, 0
}

// minCounts is the smallest counts matrix a histogram allocates: a
// lightly loaded shard's histogram then allocates once, not once per
// doubling, whatever its class count.
const minCounts = 64

// growRows extends the counts matrix to cover ball count hrow in one
// allocation, doubling to amortise; the appended rows are zero.
func (h *LoadHistogram) growRows(hrow int64) {
	nc := len(h.classes)
	rows := max(h.rows*2, int(hrow)+1, (minCounts+nc-1)/nc)
	h.counts = append(h.counts, make([]int64, rows*nc-len(h.counts))...)
	h.rows = rows
}

// HistogramInto rebuilds h as the load histogram of a in one pass over
// the bins. h's class skeleton must cover every capacity in a (build
// it with a.NewLoadHistogram, or share a parent array's skeleton for
// shard views); a capacity outside the skeleton returns an error and
// leaves h empty. Buffers are reused across calls — after warm-up the
// rebuild allocates nothing.
func (a *Array) HistogramInto(h *LoadHistogram) error {
	h.Reset()
	nc := int64(len(h.classes))
	var balls int64
	for i := range a.bins {
		b := &a.bins[i]
		ci := h.classIndex(b.cap)
		if ci < 0 {
			h.Reset()
			return fmt.Errorf("bins: histogram: capacity %d of bin %d not in class skeleton", b.cap, i)
		}
		k := b.balls
		if k >= int64(h.rows) {
			h.growRows(k)
		}
		h.counts[k*nc+int64(ci)]++
		balls += k
	}
	h.nbins = int64(len(a.bins))
	h.nballs = balls
	return nil
}

// Merge adds o's counts into h. Both histograms must share an
// identical class skeleton; merging is pure integer addition, so the
// result is independent of merge order (engines still fold in shard
// order for uniformity with the float-bearing collectors).
func (h *LoadHistogram) Merge(o *LoadHistogram) error {
	if len(o.classes) != len(h.classes) {
		return fmt.Errorf("bins: merging histogram over %d classes into %d", len(o.classes), len(h.classes))
	}
	for i := range h.classes {
		if h.classes[i] != o.classes[i] {
			return fmt.Errorf("bins: merging histogram with class %d = %d into %d", i, o.classes[i], h.classes[i])
		}
	}
	if o.rows > h.rows {
		h.growRows(int64(o.rows) - 1)
	}
	nc := len(h.classes)
	for i, v := range o.counts[:o.rows*nc] {
		if v != 0 {
			h.counts[i] += v
		}
	}
	h.nbins += o.nbins
	h.nballs += o.nballs
	return nil
}

// Bins returns the number of bins observed into the histogram.
func (h *LoadHistogram) Bins() int64 { return h.nbins }

// Balls returns the total ball count observed into the histogram.
func (h *LoadHistogram) Balls() int64 { return h.nballs }

// Classes returns a copy of the class skeleton's capacity values.
func (h *LoadHistogram) Classes() []int64 {
	return append([]int64(nil), h.classes...)
}

// TotalCapacity returns Σ capacity over the observed bins, derived
// from the per-class bin counts.
func (h *LoadHistogram) TotalCapacity() int64 {
	nc := len(h.classes)
	var total int64
	for ci, c := range h.classes {
		var nb int64
		for r := 0; r < h.rows; r++ {
			nb += h.counts[r*nc+ci]
		}
		total += c * nb
	}
	return total
}

// ClassBins returns the number of observed bins of capacity c (0 when
// c is not a class of the skeleton).
func (h *LoadHistogram) ClassBins(c int64) int64 {
	ci := h.classIndex(c)
	if ci < 0 {
		return 0
	}
	nc := len(h.classes)
	var nb int64
	for r := 0; r < h.rows; r++ {
		nb += h.counts[r*nc+ci]
	}
	return nb
}

// MaxLoadPair returns the exact (balls, capacity) pair attaining the
// maximum load: each class contributes its top occupied row as a
// candidate, and the at-most-(classes) candidates compare by cross
// multiplication. Ties keep the smallest class — any tied pair divides
// to the identical float64 (see the package comment on exactness). An
// empty histogram returns (0, smallest class).
func (h *LoadHistogram) MaxLoadPair() (balls, capacity int64) {
	nc := len(h.classes)
	bb, bc := int64(0), h.classes[0]
	found := false
	for ci, c := range h.classes {
		for r := h.rows - 1; r >= 0; r-- {
			if h.counts[r*nc+ci] == 0 {
				continue
			}
			if k := int64(r); !found || k*bc > bb*c {
				bb, bc = k, c
				found = true
			}
			break
		}
	}
	return bb, bc
}

// MaxLoad returns the maximum observed load as a float64 — the same
// value (bit for bit) as Array.MaxLoad over the scanned bins.
func (h *LoadHistogram) MaxLoad() float64 {
	b, c := h.MaxLoadPair()
	return float64(b) / float64(c)
}

// CountAtOrAbove fills counts[k-1] with the number of observed bins at
// load >= k for k = 1..len(counts), by weighted suffix sums over the
// pairs — integer-exact and identical to the per-bin scan
// (obs.CountAtOrAbove) it replaces.
func (h *LoadHistogram) CountAtOrAbove(counts []int64) {
	levels := int64(len(counts))
	clear(counts)
	nc := len(h.classes)
	for ci, c := range h.classes {
		for r := 0; r < h.rows; r++ {
			cnt := h.counts[r*nc+ci]
			if cnt == 0 {
				continue
			}
			k := int64(r) / c
			if k > levels {
				k = levels
			}
			if k >= 1 {
				counts[k-1] += cnt
			}
		}
	}
	for k := levels - 1; k >= 1; k-- {
		counts[k-1] += counts[k]
	}
}

// LoadPair is one distinct (ball count, capacity) cell of a
// LoadHistogram together with its multiplicity.
type LoadPair struct {
	Balls, Cap, Count int64
}

// CompareLoadPairs compares the loads of two pairs exactly (cross
// multiplication), returning -1, 0 or +1.
func CompareLoadPairs(p, q LoadPair) int {
	return compareRatio(p.Balls, p.Cap, q.Balls, q.Cap)
}

// AppendPairs appends every occupied cell as a LoadPair, in ascending
// (ball count, class) order, and returns the extended slice. Callers
// reuse one scratch slice (dst[:0]) to keep snapshots allocation-free.
func (h *LoadHistogram) AppendPairs(dst []LoadPair) []LoadPair {
	nc := len(h.classes)
	for r := 0; r < h.rows; r++ {
		for ci := 0; ci < nc; ci++ {
			if cnt := h.counts[r*nc+ci]; cnt != 0 {
				dst = append(dst, LoadPair{Balls: int64(r), Cap: h.classes[ci], Count: cnt})
			}
		}
	}
	return dst
}

// MaxLoadOfClass returns the maximum load among the observed bins of
// capacity c (0 when no such bin was observed) — one column read
// instead of a whole-array scan.
func (h *LoadHistogram) MaxLoadOfClass(c int64) float64 {
	ci := h.classIndex(c)
	if ci < 0 {
		return 0
	}
	nc := len(h.classes)
	for r := h.rows - 1; r >= 0; r-- {
		if h.counts[r*nc+ci] != 0 {
			return float64(r) / float64(c)
		}
	}
	return 0
}

// ClassAttainsMax reports whether a bin of capacity c attains the
// global maximum load, with exact tie handling — the histogram form of
// Array.MaxLoadInClassC.
func (h *LoadHistogram) ClassAttainsMax(c int64) bool {
	ci := h.classIndex(c)
	if ci < 0 {
		return false
	}
	nc := len(h.classes)
	top := int64(-1)
	for r := h.rows - 1; r >= 0; r-- {
		if h.counts[r*nc+ci] != 0 {
			top = int64(r)
			break
		}
	}
	if top < 0 {
		return false
	}
	mb, mc := h.MaxLoadPair()
	return compareRatio(top, c, mb, mc) == 0
}

// AddClassLoadsDesc adds the class's non-increasing load vector
// element-wise into sum, which must have exactly ClassBins(c)
// elements. Within one class load order is ball-count order, so the
// descending emission needs no sort at all.
func (h *LoadHistogram) AddClassLoadsDesc(c int64, sum []float64) error {
	ci := h.classIndex(c)
	if ci < 0 {
		if len(sum) != 0 {
			return fmt.Errorf("bins: class %d not in histogram, sum vector has %d elements", c, len(sum))
		}
		return nil
	}
	nc := len(h.classes)
	pos := 0
	for r := h.rows - 1; r >= 0; r-- {
		cnt := h.counts[r*nc+ci]
		if cnt == 0 {
			continue
		}
		v := float64(r) / float64(c)
		for j := int64(0); j < cnt; j++ {
			if pos >= len(sum) {
				return fmt.Errorf("bins: class %d has more than %d bins", c, len(sum))
			}
			sum[pos] += v
			pos++
		}
	}
	if pos != len(sum) {
		return fmt.Errorf("bins: class %d has %d bins, sum vector has %d", c, pos, len(sum))
	}
	return nil
}
