package bins

import (
	"slices"
	"testing"

	"repro/internal/xrand"
)

// randomArray builds an array with capacities drawn from the given
// class set and a random ball placement, so histogram-vs-scan
// properties get exercised across skewed occupancies.
func randomArray(t *testing.T, r *xrand.Rand, n int, classes []int64, maxBalls int) *Array {
	t.Helper()
	caps := make([]int64, n)
	for i := range caps {
		caps[i] = classes[r.Intn(len(classes))]
	}
	a := MustNew(caps)
	for i := 0; i < n; i++ {
		a.AddBalls(i, int64(r.Intn(maxBalls+1)))
	}
	return a
}

func TestNewLoadHistogramValidation(t *testing.T) {
	cases := [][]int64{
		nil,
		{},
		{0},
		{-3, 1},
		{1, 1},
		{2, 1},
		{1, 3, 3},
	}
	for _, classes := range cases {
		if _, err := NewLoadHistogram(classes); err == nil {
			t.Errorf("NewLoadHistogram(%v) accepted", classes)
		}
	}
	if _, err := NewLoadHistogram([]int64{1, 2, 10}); err != nil {
		t.Fatalf("valid classes rejected: %v", err)
	}
}

func TestHistogramUnknownCapacityError(t *testing.T) {
	h, err := NewLoadHistogram([]int64{1, 2})
	if err != nil {
		t.Fatal(err)
	}
	a := MustNew([]int64{1, 2, 5})
	a.Add(0)
	if err := a.HistogramInto(h); err == nil {
		t.Fatal("capacity outside the skeleton accepted")
	}
	// The failed rebuild must leave the histogram empty, not half-filled.
	if h.Bins() != 0 || h.Balls() != 0 {
		t.Fatalf("failed HistogramInto left bins=%d balls=%d", h.Bins(), h.Balls())
	}
}

// TestHistogramMatchesScan pins every histogram derivation against the
// naive per-bin scan it replaces, across random capacity distributions
// including single-class and many-distinct-class adversarial shapes.
func TestHistogramMatchesScan(t *testing.T) {
	r := xrand.New(1517)
	classSets := [][]int64{
		{1},                     // single class (uniform bins)
		{1, 10},                 // the paper's two-class split
		{1, 2, 3, 5, 8, 13, 21}, // many distinct classes
		{7},                     // single non-unit class
		{1, 1 << 20},            // beyond denseClassLimit: binary-search lookup
	}
	for _, classes := range classSets {
		for trial := 0; trial < 20; trial++ {
			a := randomArray(t, r, 1+r.Intn(200), classes, 30)
			h := a.NewLoadHistogram()
			if err := a.HistogramInto(h); err != nil {
				t.Fatal(err)
			}
			checkHistogramAgainstScan(t, a, h)
		}
	}
}

func checkHistogramAgainstScan(t *testing.T, a *Array, h *LoadHistogram) {
	t.Helper()
	if h.Bins() != int64(a.N()) {
		t.Fatalf("Bins() = %d, want %d", h.Bins(), a.N())
	}
	if h.Balls() != a.TotalBalls() {
		t.Fatalf("Balls() = %d, want %d", h.Balls(), a.TotalBalls())
	}
	if h.TotalCapacity() != a.TotalCapacity() {
		t.Fatalf("TotalCapacity() = %d, want %d", h.TotalCapacity(), a.TotalCapacity())
	}

	// Max load: bit-identical float, and exact pair equivalence.
	if got, want := h.MaxLoad(), a.MaxLoad(); got != want {
		t.Fatalf("MaxLoad() = %v, want %v", got, want)
	}
	hb, hc := h.MaxLoadPair()
	ab, ac := a.MaxLoadPair()
	if hb*ac != ab*hc {
		t.Fatalf("MaxLoadPair() = %d/%d, scan argmax %d/%d", hb, hc, ab, ac)
	}

	// Sorted load vector: counting order over pairs vs float sort.
	var scan []float64
	for i := 0; i < a.N(); i++ {
		scan = append(scan, a.Load(i))
	}
	slices.Sort(scan)
	var fromPairs []float64
	for _, p := range h.AppendPairs(nil) {
		v := float64(p.Balls) / float64(p.Cap)
		for j := int64(0); j < p.Count; j++ {
			fromPairs = append(fromPairs, v)
		}
	}
	slices.SortFunc(fromPairs, func(x, y float64) int {
		switch {
		case x < y:
			return -1
		case x > y:
			return 1
		}
		return 0
	})
	if !slices.Equal(scan, fromPairs) {
		t.Fatalf("pair expansion mismatch:\n hist %v\n scan %v", fromPairs, scan)
	}

	// Suffix sums: bins at load >= k vs the naive count.
	levels := 8
	counts := make([]int64, levels)
	h.CountAtOrAbove(counts)
	for k := 1; k <= levels; k++ {
		var want int64
		for i := 0; i < a.N(); i++ {
			if a.Balls(i) >= int64(k)*a.Capacity(i) {
				want++
			}
		}
		if counts[k-1] != want {
			t.Fatalf("CountAtOrAbove level %d = %d, want %d", k, counts[k-1], want)
		}
	}

	// Per-class observables.
	for _, c := range h.Classes() {
		if got, want := h.ClassBins(c), int64(a.CountClass(c)); got != want {
			t.Fatalf("ClassBins(%d) = %d, want %d", c, got, want)
		}
		if got, want := h.ClassAttainsMax(c), a.MaxLoadInClassC(c); got != want {
			t.Fatalf("ClassAttainsMax(%d) = %v, want %v", c, got, want)
		}
		var classMax float64
		var classLoads []float64
		for i := 0; i < a.N(); i++ {
			if a.Capacity(i) != c {
				continue
			}
			l := a.Load(i)
			classLoads = append(classLoads, l)
			if l > classMax {
				classMax = l
			}
		}
		if got := h.MaxLoadOfClass(c); got != classMax {
			t.Fatalf("MaxLoadOfClass(%d) = %v, want %v", c, got, classMax)
		}
		slices.Sort(classLoads)
		slices.Reverse(classLoads)
		sum := make([]float64, len(classLoads))
		if err := h.AddClassLoadsDesc(c, sum); err != nil {
			t.Fatalf("AddClassLoadsDesc(%d): %v", c, err)
		}
		if !slices.Equal(sum, classLoads) {
			t.Fatalf("AddClassLoadsDesc(%d) = %v, want %v", c, sum, classLoads)
		}
	}
}

// FuzzLoadHistogramMerge pins the sharded contract: per-shard
// histograms (over views sharing the parent skeleton) merged in shard
// order are identical to one whole-array pass. Bin i has capacity
// classes[capIdx[i] mod 3] and balls[i] balls (0 past the end of
// balls). The seed corpus is the 25 random arrays and shard counts of
// the former table test, drawn from the same generator stream.
func FuzzLoadHistogramMerge(f *testing.F) {
	classes := []int64{1, 2, 10}
	r := xrand.New(99)
	for trial := 0; trial < 25; trial++ {
		n := 2 + r.Intn(300)
		capIdx, balls := make([]byte, n), make([]byte, n)
		for i := range capIdx {
			capIdx[i] = byte(r.Intn(len(classes)))
		}
		for i := range balls {
			balls[i] = byte(r.Intn(26))
		}
		f.Add(capIdx, balls, uint8(1+r.Intn(8)))
	}
	f.Fuzz(func(t *testing.T, capIdx, balls []byte, shards uint8) {
		n := len(capIdx)
		if n == 0 || n > 4096 || shards == 0 {
			t.Skip()
		}
		caps := make([]int64, n)
		for i, b := range capIdx {
			caps[i] = classes[int(b)%len(classes)]
		}
		a := MustNew(caps)
		for i := 0; i < n && i < len(balls); i++ {
			a.AddBalls(i, int64(balls[i]))
		}
		whole := a.NewLoadHistogram()
		if err := a.HistogramInto(whole); err != nil {
			t.Fatal(err)
		}

		// Every part is built before any merge, so a part that outgrew
		// its carve of the shared backing and spilled into its
		// neighbour's would show.
		parts := whole.CloneEmpties(int(shards))
		for s := range parts {
			lo, hi := s*n/int(shards), (s+1)*n/int(shards)
			if lo >= hi {
				continue
			}
			v, err := a.Shard(lo, hi)
			if err != nil {
				t.Fatal(err)
			}
			if err := v.HistogramInto(&parts[s]); err != nil {
				t.Fatal(err)
			}
		}
		merged := whole.CloneEmpty()
		for s := range parts {
			if err := merged.Merge(&parts[s]); err != nil {
				t.Fatal(err)
			}
		}
		if merged.Bins() != whole.Bins() || merged.Balls() != whole.Balls() {
			t.Fatalf("merge totals (%d bins, %d balls), want (%d, %d)",
				merged.Bins(), merged.Balls(), whole.Bins(), whole.Balls())
		}
		if !slices.Equal(merged.AppendPairs(nil), whole.AppendPairs(nil)) {
			t.Fatal("merged pair set differs from whole-array pass")
		}
		if merged.MaxLoad() != whole.MaxLoad() {
			t.Fatalf("merged MaxLoad %v, whole %v", merged.MaxLoad(), whole.MaxLoad())
		}
		// Levels up to the largest possible load (255 balls in a unit
		// bin), so every height row is exercised.
		got, want := make([]int64, 256), make([]int64, 256)
		merged.CountAtOrAbove(got)
		whole.CountAtOrAbove(want)
		if !slices.Equal(got, want) {
			t.Fatalf("merged CountAtOrAbove %v, whole %v", got, want)
		}
	})
}

func TestHistogramMergeSkeletonMismatch(t *testing.T) {
	h1, _ := NewLoadHistogram([]int64{1, 2})
	h2, _ := NewLoadHistogram([]int64{1, 3})
	h3, _ := NewLoadHistogram([]int64{1})
	if err := h1.Merge(h2); err == nil {
		t.Error("merge with different class values accepted")
	}
	if err := h1.Merge(h3); err == nil {
		t.Error("merge with different class counts accepted")
	}
}

// TestHistogramReuse pins the steady-state contract: Reset +
// HistogramInto over the same array reproduces identical state, and a
// reused histogram never leaks rows from a previous, taller build.
func TestHistogramReuse(t *testing.T) {
	a := MustNew([]int64{1, 1, 2})
	a.AddBalls(0, 40) // tall build grows rows
	h := a.NewLoadHistogram()
	if err := a.HistogramInto(h); err != nil {
		t.Fatal(err)
	}
	tall := h.AppendPairs(nil)

	b := MustNew([]int64{1, 1, 2})
	b.Add(1)
	if err := b.HistogramInto(h); err != nil {
		t.Fatal(err)
	}
	short := h.AppendPairs(nil)
	want := []LoadPair{{Balls: 0, Cap: 1, Count: 1}, {Balls: 0, Cap: 2, Count: 1}, {Balls: 1, Cap: 1, Count: 1}}
	if !slices.Equal(short, want) {
		t.Fatalf("reused histogram pairs %v, want %v", short, want)
	}

	if err := a.HistogramInto(h); err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(h.AppendPairs(nil), tall) {
		t.Fatal("rebuild over the original array is not idempotent")
	}
}

// TestMaxLoadPairFloatTie is the adversarial case exact comparison
// exists for: 999/(999·2^33+1) and 998/(998·2^33+1) are distinct
// rationals (the cross products differ by exactly 1, so the first is
// larger by 1/(c1·c2) ≈ 2^-86) whose float64 quotients collide — the
// relative gap ≈ 2^-63 is far below float64 resolution. The scan and
// the histogram must both pick the true maximum by cross
// multiplication, which float comparison cannot distinguish.
func TestMaxLoadPairFloatTie(t *testing.T) {
	// Search the family c1 = 999k+1, c2 = 998k+1 (whose cross products
	// differ by exactly 1 for every k) for a k where the two float64
	// quotients actually collide — about half the family does, the rest
	// straddle a rounding boundary.
	var c1, c2 int64
	for k := int64(1) << 36; k < 1<<36+4096; k++ {
		d1, d2 := 999*k+1, 998*k+1
		if float64(999)/float64(d1) == float64(998)/float64(d2) {
			c1, c2 = d1, d2
			break
		}
	}
	if c1 == 0 {
		t.Fatal("no float-colliding pair in the family; widen the search")
	}
	// 999·c2 − 998·c1 = 999 − 998 = 1: distinct rationals, 999/c1 larger.
	if 999*c2-998*c1 != 1 {
		t.Fatal("tie construction broken")
	}
	a := MustNew([]int64{c2, c1})
	a.AddBalls(0, 998)
	a.AddBalls(1, 999)
	ab, ac := a.MaxLoadPair()
	if ab != 999 || ac != c1 {
		t.Fatalf("scan argmax = %d/%d, want 999/%d", ab, ac, int64(c1))
	}
	h := a.NewLoadHistogram()
	if err := a.HistogramInto(h); err != nil {
		t.Fatal(err)
	}
	hb, hc := h.MaxLoadPair()
	if hb != 999 || hc != c1 {
		t.Fatalf("hist argmax = %d/%d, want 999/%d", hb, hc, int64(c1))
	}
	if h.MaxLoad() != a.MaxLoad() {
		t.Fatal("float reports differ")
	}
	if !h.ClassAttainsMax(c1) || h.ClassAttainsMax(c2) {
		t.Fatal("ClassAttainsMax resolved the float-colliding tie wrong")
	}
}

// TestHistogramIntoSteadyStateAllocs pins the zero-allocation rebuild
// contract after warm-up.
func TestHistogramIntoSteadyStateAllocs(t *testing.T) {
	r := xrand.New(7)
	a := randomArray(t, r, 512, []int64{1, 10}, 20)
	h := a.NewLoadHistogram()
	if err := a.HistogramInto(h); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(50, func() {
		if err := a.HistogramInto(h); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("steady-state HistogramInto allocates %v/op", allocs)
	}
}
