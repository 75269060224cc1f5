// P2P ring (§1 motivation): consistent hashing maps peers to random arcs
// whose lengths — and hence selection probabilities — are badly skewed
// (max/avg ≈ ln n). This example measures that skew, plays the Byers et
// al. d-point game on the ring, and then reuses the arc lengths as a
// custom selection distribution for the library's unit-capacity game,
// showing the two views coincide.
package main

import (
	"fmt"
	"log"
	"math"

	balls "repro"
	"repro/internal/chash"
	"repro/internal/xrand"
)

func main() {
	const (
		peers = 1000
		seed  = 99
	)
	rng := xrand.New(seed)
	ring, err := chash.NewRing(peers, 1, rng)
	if err != nil {
		log.Fatal(err)
	}
	st := ring.Stats()
	fmt.Printf("ring with %d peers: max arc / avg arc = %.2f (ln n = %.2f)\n",
		peers, st.MaxOverAvg, math.Log(peers))

	// Byers et al.: d random points, place on the least-loaded owner.
	for _, d := range []int{1, 2} {
		loads, err := ring.DChoiceLoads(peers, d, rng)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("ring game, d=%d: max load %d (m = n = %d)\n",
			d, chash.MaxLoad(loads), peers)
	}

	// The same game through the library: unit-capacity bins whose
	// selection weights are the arc lengths.
	sys, err := balls.NewSystem(
		balls.CapacitiesUniform(peers, 1),
		balls.WithDistribution(balls.CustomSelection(ring.ArcLengths())),
		balls.WithProtocol(balls.StandardDChoice(2)),
		balls.WithSeed(seed),
	)
	if err != nil {
		log.Fatal(err)
	}
	sys.PlaceN(int64(peers))
	fmt.Printf("library game with arc weights, d=2: max load %.0f\n", sys.MaxLoad())

	fmt.Println()
	fmt.Println("despite the ln(n)-skewed arcs, two choices keep the maximum load")
	fmt.Println("at lnln(n)/ln(2)+O(1) — the Byers et al. result the paper builds on.")
	fmt.Println()

	// The paper's step beyond Byers: peers with heterogeneous capacity.
	// Give each peer a capacity and select proportionally to it.
	caps := balls.CapacitiesTwoClass(peers/2, 1, peers/2, 10)
	het, err := balls.NewSystem(caps, balls.WithSeed(seed))
	if err != nil {
		log.Fatal(err)
	}
	het.PlaceN(het.TotalCapacity())
	fmt.Printf("heterogeneous peers (half capacity 10), m=C: max relative load %.3f\n",
		het.MaxLoad())

	// Churn on the ring itself: removing a peer hands its arcs to the
	// clockwise successors, re-adding it restores the original ring bit
	// for bit — no rehashing, no RNG draws. AddPeer/RemovePeer only flip
	// the peer's bit in a liveness mask over a ring that never changes;
	// that is what the serving engine leans on when servers crash and
	// recover mid-run (see examples/cluster-sim).
	fmt.Println()
	churnRing, err := chash.NewRing(peers, 1, xrand.New(seed))
	if err != nil {
		log.Fatal(err)
	}
	before := churnRing.ArcLengths()
	victims := []int{3, 250, 999}
	for _, p := range victims {
		if err := churnRing.RemovePeer(p); err != nil {
			log.Fatal(err)
		}
	}
	absorbed := 0.0
	for _, p := range victims {
		absorbed += before[p]
	}
	fmt.Printf("churn: removed peers %v — %.4f of the circle re-owned, %d peers live\n",
		victims, absorbed, churnRing.NumLive())
	loads, err := churnRing.DChoiceLoads(peers, 2, xrand.New(seed+1))
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("ring game on the degraded ring, d=2: max load %d, dead peers got %d\n",
		chash.MaxLoad(loads), loads[victims[0]]+loads[victims[1]]+loads[victims[2]])
	for _, p := range victims {
		if err := churnRing.AddPeer(p); err != nil {
			log.Fatal(err)
		}
	}
	after := churnRing.ArcLengths()
	for i := range before {
		if before[i] != after[i] {
			log.Fatalf("arc %d changed across churn: %v != %v", i, before[i], after[i])
		}
	}
	fmt.Println("re-added all three: every arc restored bit-identically")
}
