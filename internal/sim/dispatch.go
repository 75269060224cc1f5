// Unified engine dispatch: one RunSpec, one entry point, five engines.
//
// The repo runs the balls-into-bins game six ways, each with its own
// sweet spot. Five sit behind Dispatch: the classic chunked engine
// (Run), the sharded Monte-Carlo engine (RunLargeMonte), the
// closed-form multinomial engine (RunClosed), the streaming engine and
// the cluster serving engine. The sixth, the sharded single run
// (RunLarge), is repetition 0 of the sharded Monte-Carlo engine and is
// called directly. Dispatch hides the choice behind a single spec so
// the figure/validate/tune harness can ask for "this game, these
// observables, at this n" and get the right engine:
//
//   - classic: the reference engine. Supports every observable
//     (random arrays, per-ball heights, per-class vectors) at any n a
//     per-ball pass can afford.
//   - sharded: RunLargeMonte. Fixed arrays only; scales a single
//     repetition across cores via multinomial block routing, so
//     n = 10^6..10^7 repetitions are practical. Shards and the routing
//     blocks are part of the model (see large.go): results are
//     deterministic in the spec but not bit-identical to classic.
//   - closed-form: RunClosed. Single-choice protocols only; one
//     Multinomial(m, p) draw per repetition, O(n + checkpoints·n) per
//     rep with no per-ball work at all.
//   - stream and cluster: selected by RunSpec.Stream and
//     RunSpec.Cluster (see EngineStream and EngineCluster); Dispatch is
//     their only entry point.
//
// # Determinism contract
//
// Engine auto-selection is a pure function of the spec — never of the
// machine (worker count, core count, load). The same spec selects the
// same engine everywhere, and each engine is itself deterministic in
// (spec, seed), so Dispatch inherits every engine's reproducibility
// guarantee. Engines draw different random-number sequences, though:
// switching engines changes individual numbers while preserving the
// distributional law (see parity_test.go), which is why the selection
// rule only switches engines at scale thresholds, where distributional
// agreement is what matters.
package sim

import (
	"fmt"

	"repro/internal/bins"
	"repro/internal/protocol"
)

// Engine names a simulation engine for RunSpec/Dispatch.
type Engine string

const (
	// EngineAuto lets Dispatch pick: closed-form when the protocol is
	// single-choice and n is at least AutoScaleMinBins, else sharded
	// when the spec supports it and n is at least AutoScaleMinBins,
	// else classic. The choice depends only on the spec.
	EngineAuto Engine = "auto"
	// EngineClassic forces the classic chunked engine (Run).
	EngineClassic Engine = "classic"
	// EngineSharded forces the sharded Monte-Carlo engine
	// (RunLargeMonte).
	EngineSharded Engine = "sharded"
	// EngineClosedForm forces the closed-form multinomial engine
	// (RunClosed).
	EngineClosedForm Engine = "closed-form"
	// EngineStream selects the streaming engine (stream.go): balls
	// arrive in rounds, a deterministic deletion stream expires them,
	// and an optional rebalance pass bounds cross-shard drift. The
	// engine function is unexported — Dispatch is its only public
	// entry point — and requires RunSpec.Stream.
	EngineStream Engine = "stream"
	// EngineCluster selects the churn-tolerant serving engine
	// (cluster.go): ticks of batched arrivals over a consistent-hashing
	// ring of live peers, with crashes, recoveries, timeouts, retries
	// and shedding. The engine function is unexported — Dispatch is its
	// only public entry point — and requires RunSpec.Cluster.
	EngineCluster Engine = "cluster"
)

// AutoScaleMinBins is the bin count at which EngineAuto switches from
// the classic engine to a scale engine (closed-form or sharded). It is
// a fixed constant — auto-selection must never depend on the machine —
// chosen so that paper-scale runs (n <= 3·10^4) keep their classic
// bit-exact behaviour while 100-1000× scale-ups move off the per-ball
// path.
const AutoScaleMinBins = 1 << 16

// ParseEngine parses a CLI engine name. The empty string means auto.
func ParseEngine(s string) (Engine, error) {
	switch Engine(s) {
	case "", EngineAuto:
		return EngineAuto, nil
	case EngineClassic:
		return EngineClassic, nil
	case EngineSharded:
		return EngineSharded, nil
	case EngineClosedForm:
		return EngineClosedForm, nil
	case EngineStream:
		return EngineStream, nil
	case EngineCluster:
		return EngineCluster, nil
	}
	return "", fmt.Errorf("sim: unknown engine %q (want auto, classic, sharded, closed-form, stream or cluster)", s)
}

// StreamParams carries the round-structure parameters of a streaming
// run (RunSpec.Stream). Their presence is what makes a spec a
// streaming spec: EngineAuto dispatches to the streaming engine iff
// Stream is non-nil, and no other engine will silently run such a
// spec. The spec's Balls/BallsFactor become the per-round arrival
// count (StreamConfig.Arrivals/ArrivalsFactor).
type StreamParams struct {
	// Rounds is the number of rounds (>= 1; 0 allowed when Schedule
	// implies it).
	Rounds int
	// Schedule optionally gives every round's arrival count explicitly
	// (see StreamConfig.Schedule).
	Schedule []int64
	// Deletions is the per-round deletion count (>= 0).
	Deletions int64
	// RebalanceTol enables the inter-round rebalance pass when > 0.
	RebalanceTol float64
	// CancelAfterRounds deterministically stops the run after that
	// many rounds when positive (see StreamConfig.CancelAfterRounds).
	CancelAfterRounds int
}

// ClusterParams carries the serving-model parameters of a cluster run
// (RunSpec.Cluster). Their presence is what makes a spec a cluster
// spec: EngineAuto dispatches to the cluster engine iff Cluster is
// non-nil, and no other engine will silently run such a spec. The
// spec's Array supplies the peer capacities; arrivals come from
// ArrivalsPerTick, not Config.Balls.
type ClusterParams struct {
	// Ticks is the simulation horizon (>= 1).
	Ticks int
	// ArrivalsPerTick is the per-tick request count (>= 0).
	ArrivalsPerTick int64
	// VnodesPerUnit is the ring density (ClusterConfig.VnodesPerUnit).
	VnodesPerUnit int
	// Churn is the crash/recover plan.
	Churn ChurnPlan
	// Retry is the timeout/retry policy.
	Retry RetryPolicy
	// ShedThreshold arms admission control when > 0.
	ShedThreshold float64
	// LatencyMax is the latency histogram's top bucket in ticks (0 = 32).
	LatencyMax int
	// CancelAfterTicks deterministically stops the run after that many
	// ticks when positive (see ClusterConfig.CancelAfterTicks).
	CancelAfterTicks int
}

// RunSpec is the engine-independent description of one experiment: the
// classic Config (array, distribution, protocol, balls, reps, seed,
// workers, observables) plus an engine hint and the sharded engine's
// shard count.
type RunSpec struct {
	Config
	// Engine selects the engine ("" = EngineAuto).
	Engine Engine
	// Shards is the sharded and streaming engines' shard count
	// (0 = DefaultShards). Ignored by the classic and closed-form
	// engines.
	Shards int
	// Stream carries the streaming engine's round parameters. Setting
	// it makes the spec a streaming spec: EngineAuto (and
	// EngineStream) run the streaming engine, and every other explicit
	// engine rejects the spec — round structure is never silently
	// dropped.
	Stream *StreamParams
	// Cluster carries the serving engine's churn/retry/shedding
	// parameters. Setting it makes the spec a cluster spec, with the
	// same exclusivity contract as Stream (and at most one of the two
	// may be set).
	Cluster *ClusterParams
	// AdoptArray lets the engine mutate Config.Array in place instead
	// of cloning it (streaming engine only; the public wrappers use it
	// to avoid a transient second O(n) array).
	AdoptArray bool
}

// Dispatch resolves the spec's engine and runs it, converging on the
// classic Result shape whatever the engine. The returned Result's
// Engine field records the choice. Cancellation behaves like the
// underlying engine: a fired Context yields a deterministic partial
// Result plus a *CancelledError.
func Dispatch(spec RunSpec) (*Result, error) {
	engine, err := spec.resolveEngine()
	if err != nil {
		return nil, err
	}
	var res *Result
	switch engine {
	case EngineClassic:
		res, err = Run(spec.Config)
	case EngineClosedForm:
		res, err = RunClosed(spec.Config)
	case EngineSharded:
		res, err = runShardedSpec(&spec)
	case EngineStream:
		res, err = runStreamSpec(&spec)
	case EngineCluster:
		res, err = runClusterSpec(&spec)
	default:
		return nil, fmt.Errorf("sim: unknown engine %q", engine)
	}
	if res != nil {
		res.Engine = engine
	}
	return res, err
}

// resolveEngine applies the selection rule. Explicitly requested
// engines fail loudly when the spec is outside their capability;
// EngineAuto only ever picks an engine that supports the spec.
func (spec *RunSpec) resolveEngine() (Engine, error) {
	// Round parameters bind the spec to the streaming engine, serving
	// parameters to the cluster engine: any other explicit engine would
	// silently drop that structure, so it errors instead.
	if spec.Stream != nil && spec.Cluster != nil {
		return "", fmt.Errorf("sim: Stream and Cluster both set: a spec is streaming or serving, not both")
	}
	if spec.Stream != nil {
		switch spec.Engine {
		case "", EngineAuto, EngineStream:
			if err := streamUnsupported(spec); err != nil {
				return "", err
			}
			return EngineStream, nil
		case EngineClassic, EngineSharded, EngineClosedForm, EngineCluster:
			return "", fmt.Errorf("sim: engine %q cannot run a streaming spec (Stream is set; use engine stream or auto)", spec.Engine)
		}
		return "", fmt.Errorf("sim: unknown engine %q (want auto, classic, sharded, closed-form, stream or cluster)", spec.Engine)
	}
	if spec.Cluster != nil {
		switch spec.Engine {
		case "", EngineAuto, EngineCluster:
			if err := clusterUnsupported(spec); err != nil {
				return "", err
			}
			return EngineCluster, nil
		case EngineClassic, EngineSharded, EngineClosedForm, EngineStream:
			return "", fmt.Errorf("sim: engine %q cannot run a cluster spec (Cluster is set; use engine cluster or auto)", spec.Engine)
		}
		return "", fmt.Errorf("sim: unknown engine %q (want auto, classic, sharded, closed-form, stream or cluster)", spec.Engine)
	}
	switch spec.Engine {
	case EngineClassic:
		return EngineClassic, nil
	case EngineClosedForm:
		if err := closedUnsupported(&spec.Config); err != nil {
			return "", err
		}
		return EngineClosedForm, nil
	case EngineSharded:
		if err := shardedUnsupported(&spec.Config); err != nil {
			return "", err
		}
		return EngineSharded, nil
	case EngineStream:
		return "", fmt.Errorf("sim: engine stream needs round parameters (RunSpec.Stream is nil)")
	case EngineCluster:
		return "", fmt.Errorf("sim: engine cluster needs serving parameters (RunSpec.Cluster is nil)")
	case "", EngineAuto:
		// Auto: below the scale threshold stay classic (bit-compatible
		// with the seed harness); at scale prefer closed-form (exact
		// law, no per-ball work), then sharded.
		n, err := probeNBins(&spec.Config)
		if err != nil || n < AutoScaleMinBins {
			return EngineClassic, nil
		}
		if closedUnsupported(&spec.Config) == nil {
			return EngineClosedForm, nil
		}
		if shardedUnsupported(&spec.Config) == nil {
			return EngineSharded, nil
		}
		return EngineClassic, nil
	}
	return "", fmt.Errorf("sim: unknown engine %q (want auto, classic, sharded, closed-form, stream or cluster)", spec.Engine)
}

// streamUnsupported reports, by field name, why the streaming engine
// cannot run the spec (nil when it can). Like the sharded engine it
// works on fixed arrays and whole-array observables; it runs a single
// stream, not repetitions.
func streamUnsupported(spec *RunSpec) error {
	c := &spec.Config
	switch {
	case c.ArrayFn != nil:
		return fmt.Errorf("sim: streaming engine needs a fixed Array (ArrayFn builds per-repetition arrays)")
	case c.Reps > 1:
		return fmt.Errorf("sim: Reps = %d: the streaming engine runs a single stream", c.Reps)
	case c.CollectLoadVector:
		return fmt.Errorf("sim: streaming engine does not collect the sorted load vector (CollectLoadVector)")
	case len(c.TrackClasses) > 0:
		return fmt.Errorf("sim: streaming engine does not collect TrackClasses")
	case len(c.ClassLoadVectors) > 0:
		return fmt.Errorf("sim: streaming engine does not collect ClassLoadVectors")
	case len(c.ClassMaxLoads) > 0:
		return fmt.Errorf("sim: streaming engine does not collect ClassMaxLoads")
	case c.HeightBins > 0:
		return fmt.Errorf("sim: streaming engine does not collect the per-ball height histogram")
	}
	return nil
}

// clusterUnsupported reports, by field name, why the cluster engine
// cannot run the spec (nil when it can). Like the streaming engine it
// runs a single trajectory over a fixed array; dispatch probabilities
// come from the ring's live arcs, never from Config.Dist; arrivals
// come from ClusterParams.ArrivalsPerTick, never from Config.Balls.
func clusterUnsupported(spec *RunSpec) error {
	c := &spec.Config
	switch {
	case c.ArrayFn != nil:
		return fmt.Errorf("sim: cluster engine needs a fixed Array (ArrayFn builds per-repetition arrays)")
	case c.Dist != nil:
		return fmt.Errorf("sim: cluster engine derives dispatch weights from the ring's live arcs (Dist is not configurable)")
	case c.Balls != 0 || c.BallsFactor != 0:
		return fmt.Errorf("sim: cluster engine takes arrivals from Cluster.ArrivalsPerTick, not Balls/BallsFactor")
	case c.Reps > 1:
		return fmt.Errorf("sim: Reps = %d: the cluster engine runs a single trajectory", c.Reps)
	case c.CollectLoadVector:
		return fmt.Errorf("sim: cluster engine does not collect the sorted load vector (CollectLoadVector)")
	case len(c.TrackClasses) > 0:
		return fmt.Errorf("sim: cluster engine does not collect TrackClasses")
	case len(c.ClassLoadVectors) > 0:
		return fmt.Errorf("sim: cluster engine does not collect ClassLoadVectors")
	case len(c.ClassMaxLoads) > 0:
		return fmt.Errorf("sim: cluster engine does not collect ClassMaxLoads")
	case c.HeightBins > 0:
		return fmt.Errorf("sim: cluster engine does not collect the per-ball height histogram")
	}
	return nil
}

// probeNBins is nBins with panic containment: a panicking ArrayFn must
// fail the run through the engine's guarded paths, not crash the
// selection probe (auto then falls back to classic, which surfaces the
// panic as a *PanicError).
func probeNBins(c *Config) (n int, err error) {
	defer func() {
		if r := recover(); r != nil {
			n, err = 0, newPanicError(engRun, "probe", -1, -1, r)
		}
	}()
	return nBins(c)
}

// shardedUnsupported reports why the sharded engine cannot run the
// spec (nil when it can). The sharded engine works on fixed arrays and
// the observables RunLargeMonte aggregates; per-class and per-ball
// observables stay classic.
func shardedUnsupported(c *Config) error {
	switch {
	case c.ArrayFn != nil:
		return fmt.Errorf("sim: sharded engine needs a fixed Array (ArrayFn builds per-repetition arrays)")
	case len(c.TrackClasses) > 0:
		return fmt.Errorf("sim: sharded engine does not collect TrackClasses")
	case len(c.ClassLoadVectors) > 0:
		return fmt.Errorf("sim: sharded engine does not collect ClassLoadVectors")
	case len(c.ClassMaxLoads) > 0:
		return fmt.Errorf("sim: sharded engine does not collect ClassMaxLoads")
	case c.HeightBins > 0:
		return fmt.Errorf("sim: sharded engine does not collect the per-ball height histogram")
	}
	return nil
}

// closedUnsupported reports why the closed-form engine cannot run the
// spec (nil when it can): the protocol must place every ball by one
// independent weighted draw — then and only then is the final load
// vector one Multinomial(m, p) sample — and the per-ball height
// histogram needs a placement order the closed form integrates out.
func closedUnsupported(c *Config) error {
	if c.HeightBins > 0 {
		return fmt.Errorf("sim: closed-form engine does not collect the per-ball height histogram")
	}
	if !singleChoiceFactory(c.factory()) {
		return fmt.Errorf("sim: closed-form engine needs a single-choice protocol (single, or d=1 / beta=0 variants)")
	}
	return nil
}

// singleChoiceFactory reports whether the factory builds a protocol
// that places each ball by a single independent weighted draw. It
// probes the factory on a tiny array and matches the placer's name —
// the protocol package's names are part of its contract (they key the
// figure tables) — containing any probe panic as "not single-choice".
func singleChoiceFactory(f protocol.Factory) (single bool) {
	defer func() {
		if recover() != nil {
			single = false
		}
	}()
	probe, err := bins.New([]int64{1, 1})
	if err != nil {
		return false
	}
	p, err := f(probe, []float64{0.5, 0.5})
	if err != nil {
		return false
	}
	switch p.Name() {
	case "single", "greedy(d=1)", "standard(d=1)", "goleft(d=1)", "oneplusbeta(b=0)":
		return true
	}
	return false
}

// runShardedSpec maps the spec onto RunLargeMonte and its result back
// onto the classic Result shape. The mapping is total for everything
// shardedUnsupported admits; checkpoint rows keep the sharded model's
// block-aligned realised cuts (RealBalls <= the requested cut).
func runShardedSpec(spec *RunSpec) (*Result, error) {
	mcfg := LargeMonteConfig{
		LargeConfig: LargeConfig{
			Array:       spec.Array,
			Dist:        spec.Dist,
			Placer:      spec.Placer,
			Balls:       spec.Balls,
			BallsFactor: spec.BallsFactor,
			Seed:        spec.Seed,
			Shards:      spec.Shards,
			Workers:     spec.Workers,
			Context:     spec.Context,
			ObsOptions:  spec.ObsOptions,
		},
		Reps:              spec.Reps,
		CollectLoadVector: spec.CollectLoadVector,
	}
	mres, merr := RunLargeMonte(mcfg)
	if mres == nil {
		return nil, merr
	}
	// merr may be a *CancelledError carrying a deterministic partial;
	// convert the partial and pass the error through untouched.
	res := &Result{
		N:               mres.N,
		MaxLoad:         mres.MaxLoad,
		AvgLoad:         mres.AvgLoad,
		Deviation:       mres.Deviation,
		MeanSortedLoads: mres.MeanSortedLoads,
		Checkpoints:     mres.Checkpoints,
		HeightCounts:    mres.HeightCounts,
	}
	// The sharded engine runs fixed arrays only, so balls and capacity
	// are the same constant every repetition.
	reps := int64(mres.Reps)
	res.Balls.AddN(float64(mres.Balls), reps)
	res.TotalCapacity.AddN(float64(spec.Array.TotalCapacity()), reps)
	return res, merr
}

// runStreamSpec maps the spec onto the streaming engine and its
// result back onto the classic Result shape: the final-state load
// statistics become single-observation aggregates, the round-indexed
// trajectory rows flow through Checkpoints, and the full streaming
// result rides along in Result.Stream. A cancelled run converts the
// deterministic completed-round partial and passes the
// *CancelledError through untouched.
func runStreamSpec(spec *RunSpec) (*Result, error) {
	p := spec.Stream
	scfg := StreamConfig{
		Array:             spec.Array,
		Dist:              spec.Dist,
		Placer:            spec.Placer,
		Rounds:            p.Rounds,
		Arrivals:          spec.Balls,
		ArrivalsFactor:    spec.BallsFactor,
		Schedule:          p.Schedule,
		Deletions:         p.Deletions,
		RebalanceTol:      p.RebalanceTol,
		Seed:              spec.Seed,
		Shards:            spec.Shards,
		Workers:           spec.Workers,
		Context:           spec.Context,
		AdoptArray:        spec.AdoptArray,
		CancelAfterRounds: p.CancelAfterRounds,
		ObsOptions:        spec.ObsOptions,
	}
	sres, serr := runStream(scfg)
	if sres == nil {
		return nil, serr
	}
	res := &Result{
		N:            sres.N,
		Checkpoints:  sres.Checkpoints,
		HeightCounts: sres.HeightCounts,
		Stream:       sres,
	}
	if sres.Array != nil {
		// Completed run: the final state is one observation of each
		// whole-array statistic. A cancelled partial has no final
		// state, so its accumulators stay empty.
		res.MaxLoad.AddN(sres.MaxLoad, 1)
		res.AvgLoad.AddN(sres.AvgLoad, 1)
		res.Deviation.AddN(sres.Deviation, 1)
		res.Balls.AddN(float64(sres.Balls), 1)
		res.TotalCapacity.AddN(float64(spec.Array.TotalCapacity()), 1)
	}
	return res, serr
}

// runClusterSpec maps the spec onto the cluster engine and its result
// back onto the classic Result shape: the final queue-state statistics
// become single-observation aggregates, the tick-indexed trajectory
// rows flow through Checkpoints, and the full serving result rides
// along in Result.Cluster. A cancelled run converts the deterministic
// completed-tick partial and passes the *CancelledError through
// untouched.
func runClusterSpec(spec *RunSpec) (*Result, error) {
	p := spec.Cluster
	ccfg := ClusterConfig{
		Array:            spec.Array,
		Placer:           spec.Placer,
		Ticks:            p.Ticks,
		Arrivals:         p.ArrivalsPerTick,
		VnodesPerUnit:    p.VnodesPerUnit,
		Churn:            p.Churn,
		Retry:            p.Retry,
		ShedThreshold:    p.ShedThreshold,
		LatencyMax:       p.LatencyMax,
		Seed:             spec.Seed,
		Shards:           spec.Shards,
		Workers:          spec.Workers,
		Context:          spec.Context,
		AdoptArray:       spec.AdoptArray,
		CancelAfterTicks: p.CancelAfterTicks,
		ObsOptions:       spec.ObsOptions,
	}
	cres, cerr := runCluster(ccfg)
	if cres == nil {
		return nil, cerr
	}
	res := &Result{
		N:            cres.N,
		Checkpoints:  cres.Checkpoints,
		HeightCounts: cres.HeightCounts,
		Cluster:      cres,
	}
	if cres.Array != nil {
		// Completed run: the final queue state is one observation of
		// each whole-array statistic. A cancelled partial has no final
		// state, so its accumulators stay empty.
		res.MaxLoad.AddN(cres.MaxQueueLoad, 1)
		res.AvgLoad.AddN(cres.AvgQueueLoad, 1)
		res.Balls.AddN(float64(cres.FinalQueued), 1)
		res.TotalCapacity.AddN(float64(spec.Array.TotalCapacity()), 1)
	}
	return res, cerr
}
