package chash

import (
	"testing"

	"repro/internal/xrand"
)

// benchCaps is the serving benchmark's cluster: 10⁵ peers, half of
// capacity 1 and half of capacity 10 (1.1·10⁶ points at 2 vnodes per
// unit).
func benchCaps() []int64 {
	caps := make([]int64, 100000)
	for i := range caps {
		caps[i] = 1
		if i >= len(caps)/2 {
			caps[i] = 10
		}
	}
	return caps
}

// BenchmarkRingBuild: drawing and sorting the serving cluster's ring.
func BenchmarkRingBuild(b *testing.B) {
	caps := benchCaps()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := NewWeightedRing(caps, 2, xrand.New(uint64(i))); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkRingChurn: one serving tick's membership work on that ring —
// 20 crashes, 5 recoveries, then the arc recomputation.
func BenchmarkRingChurn(b *testing.B) {
	ring, err := NewWeightedRing(benchCaps(), 2, xrand.New(1))
	if err != nil {
		b.Fatal(err)
	}
	var arcs []float64
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for k := 0; k < 20; k++ {
			if err := ring.RemovePeer(k * 4999); err != nil {
				b.Fatal(err)
			}
		}
		for k := 0; k < 5; k++ {
			if err := ring.AddPeer(k * 4999); err != nil {
				b.Fatal(err)
			}
		}
		arcs = ring.ArcLengthsInto(arcs)
		b.StopTimer()
		for k := 5; k < 20; k++ {
			if err := ring.AddPeer(k * 4999); err != nil {
				b.Fatal(err)
			}
		}
		b.StartTimer()
	}
}
