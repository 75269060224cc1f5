package sim

import (
	"math"
	"testing"
)

func TestChurnPlanValidate(t *testing.T) {
	good := ChurnPlan{
		Schedule:    []ChurnEvent{{Tick: 0, Peer: 1, Down: true}, {Tick: 2, Peer: 1}, {Tick: 2, Peer: 0, Down: true}},
		CrashProb:   0.25,
		RecoverProb: 1,
	}
	if err := good.Validate(3); err != nil {
		t.Fatalf("valid plan rejected: %v", err)
	}
	bad := []ChurnPlan{
		{CrashProb: -0.1},
		{CrashProb: 1.5},
		{RecoverProb: 2},
		{Schedule: []ChurnEvent{{Tick: -1, Peer: 0}}},
		{Schedule: []ChurnEvent{{Tick: 5, Peer: 0}, {Tick: 3, Peer: 1}}}, // out of order
		{Schedule: []ChurnEvent{{Tick: 0, Peer: -1}}},
		{Schedule: []ChurnEvent{{Tick: 0, Peer: 3}}}, // peer out of range for peers=3
	}
	for i, p := range bad {
		if err := p.Validate(3); err == nil {
			t.Fatalf("bad plan %d accepted: %+v", i, p)
		}
	}
}

func TestChurnPlanPredicates(t *testing.T) {
	var p ChurnPlan
	if !p.Empty() || p.Stochastic() {
		t.Fatal("zero plan should be empty and non-stochastic")
	}
	p.Schedule = []ChurnEvent{{Tick: 1, Peer: 0, Down: true}}
	if p.Empty() || p.Stochastic() {
		t.Fatal("scheduled-only plan: want non-empty, non-stochastic")
	}
	p = ChurnPlan{RecoverProb: 0.5}
	if p.Empty() || !p.Stochastic() {
		t.Fatal("recover-only plan: want non-empty, stochastic")
	}
}

func TestRetryPolicyValidate(t *testing.T) {
	good := []RetryPolicy{
		{},
		{TimeoutTicks: 3},
		{TimeoutTicks: 3, MaxRetries: 2, BackoffBase: 4},
	}
	for i, p := range good {
		if err := p.Validate(); err != nil {
			t.Fatalf("valid policy %d rejected: %v", i, err)
		}
	}
	bad := []RetryPolicy{
		{TimeoutTicks: -1},
		{TimeoutTicks: 1, MaxRetries: -1},
		{TimeoutTicks: 1, BackoffBase: -2},
		{MaxRetries: 1}, // retries without a timeout never trigger
	}
	for i, p := range bad {
		if err := p.Validate(); err == nil {
			t.Fatalf("bad policy %d accepted: %+v", i, p)
		}
	}
}

func TestRetryPolicyBackoff(t *testing.T) {
	p := RetryPolicy{TimeoutTicks: 1, MaxRetries: 5, BackoffBase: 3}
	for a, want := range map[int]int{1: 3, 2: 6, 3: 12, 4: 24} {
		if got := p.Backoff(a); got != want {
			t.Fatalf("Backoff(%d) = %d, want %d", a, got, want)
		}
	}
	// Zero base defaults to 1; attempt <= 0 clamps to the first delay.
	z := RetryPolicy{TimeoutTicks: 1, MaxRetries: 1}
	if got := z.Backoff(1); got != 1 {
		t.Fatalf("zero-base Backoff(1) = %d, want 1", got)
	}
	if got := z.Backoff(-7); got != 1 {
		t.Fatalf("Backoff(-7) = %d, want 1", got)
	}
	// The shift clamp keeps huge attempt numbers finite and positive.
	if got := z.Backoff(1000); got != 1<<30 {
		t.Fatalf("Backoff(1000) = %d, want %d", got, 1<<30)
	}
	// A large base saturates at MaxInt32 instead of overflowing.
	for _, c := range []struct{ base, attempt int }{{3, 40}, {math.MaxInt32, 1}, {math.MaxInt32, 2}, {1 << 40, 1}} {
		p := RetryPolicy{TimeoutTicks: 1, MaxRetries: 1, BackoffBase: c.base}
		if got := p.Backoff(c.attempt); got != math.MaxInt32 {
			t.Fatalf("base %d: Backoff(%d) = %d, want %d", c.base, c.attempt, got, math.MaxInt32)
		}
	}
}

// FuzzRetryChurnPolicy: validation never panics, and whatever it
// accepts is safe for the engine. An accepted RetryPolicy's Backoff
// stays in [1, MaxInt32] and never decreases over attempts 1..64; an
// accepted ChurnPlan has probabilities in [0,1], ascending ticks and
// every peer in range.
func FuzzRetryChurnPolicy(f *testing.F) {
	f.Add(3, 2, 1, 0.05, 0.3, uint8(6), []byte{2, 0, 1, 3, 5, 1, 6, 0, 0})
	f.Add(math.MaxInt32, math.MaxInt16, math.MaxInt32, 0.0, 1.0, uint8(1), []byte{})
	f.Add(math.MaxInt32+1, math.MaxInt16+1, 1<<40, 1.5, math.NaN(), uint8(0), []byte{255, 7, 1})
	f.Add(-1, -1, -1, -0.5, 0.5, uint8(3), []byte{5, 0, 1, 3, 1, 0})
	f.Fuzz(func(t *testing.T, timeout, retries, base int, crash, recov float64, peers uint8, sched []byte) {
		rp := RetryPolicy{TimeoutTicks: timeout, MaxRetries: retries, BackoffBase: base}
		if rp.Validate() == nil {
			prev := 1
			for a := 1; a <= 64; a++ {
				d := rp.Backoff(a)
				if d < prev || d > math.MaxInt32 {
					t.Fatalf("%+v: Backoff(%d) = %d after %d", rp, a, d, prev)
				}
				prev = d
			}
		}
		// Three bytes per event: tick and peer as signed bytes, so
		// negative and out-of-order values occur, then the Down bit.
		cp := ChurnPlan{CrashProb: crash, RecoverProb: recov}
		for i := 0; i+2 < len(sched); i += 3 {
			cp.Schedule = append(cp.Schedule, ChurnEvent{
				Tick: int(int8(sched[i])), Peer: int(int8(sched[i+1])), Down: sched[i+2]&1 == 1,
			})
		}
		if cp.Validate(int(peers)) != nil {
			return
		}
		if !(crash >= 0 && crash <= 1 && recov >= 0 && recov <= 1) {
			t.Fatalf("accepted probabilities %v, %v", crash, recov)
		}
		for i, e := range cp.Schedule {
			if e.Tick < 0 || (i > 0 && e.Tick < cp.Schedule[i-1].Tick) || e.Peer < 0 || e.Peer >= int(peers) {
				t.Fatalf("accepted event %d %+v of %+v with %d peers", i, e, cp.Schedule, peers)
			}
		}
	})
}
