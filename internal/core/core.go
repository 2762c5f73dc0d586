// Package core is the public façade of the library: it orchestrates the
// paper's four-phase profile-driven reconfiguration pipeline end to end
// and provides runners for every policy the paper compares.
//
// The pipeline (Section 3):
//
//  1. Profile a training run to build the call tree and find
//     long-running nodes (internal/profiler, internal/calltree).
//  2. Simulate the training run at full speed, collecting dependence
//     DAGs per long-running node, and shake them (internal/trace,
//     internal/shaker).
//  3. Apply slowdown thresholding to pick per-domain frequencies per
//     node (internal/threshold).
//  4. Edit the binary, injecting path-tracking and reconfiguration
//     instructions (internal/edit).
//
// Production runs feed the edited stream to the MCD simulator
// (internal/sim). The off-line oracle is the same pipeline trained on
// the production input itself with zero instrumentation cost; the
// on-line comparator attaches the attack/decay hardware controller; the
// global-DVS comparator runs a single-clock machine at a matched
// frequency.
package core

import (
	"runtime"
	"time"

	"repro/internal/calltree"
	"repro/internal/control"
	"repro/internal/edit"
	"repro/internal/isa"
	"repro/internal/shaker"
	"repro/internal/sim"
	"repro/internal/threshold"
)

// Config collects the knobs of the whole pipeline.
type Config struct {
	// Sim is the processor configuration (Table 1 by default).
	Sim sim.Config
	// Shaker parameterizes the slack-distribution algorithm.
	Shaker shaker.Config
	// DeltaPct is the slowdown threshold delta (percent) used by phase
	// three. Because per-domain budgets compound across domains and the
	// dependence DAG is approximate, the realized whole-program slowdown
	// is larger than delta; the default is calibrated so the suite
	// averages about 7% slowdown, the paper's headline operating point.
	DeltaPct float64
	// MaxInstances bounds how many dynamic instances of each
	// long-running node are traced and shaken during training.
	MaxInstances int
	// MaxEvents bounds the dependence-DAG size per traced instance.
	MaxEvents int
	// Online configures the attack/decay comparator.
	Online control.AttackDecayConfig
	// TrainWorkers bounds the training pipeline's intra-job parallelism:
	// segment shakes fan out over up to TrainWorkers private runners, and
	// batched multi-scheme training profiles and collects per scheme
	// concurrently (see DESIGN.md §12). 0 means GOMAXPROCS; 1 forces the
	// fully synchronous path. Every setting produces bit-identical
	// profiles — ordered reduction erases scheduling timing — so this is
	// an execution knob, not part of the simulated configuration: it is
	// excluded from JSON encodings and therefore from result-cache keys,
	// artifact keys, and the serving layer's engine keys.
	TrainWorkers int `json:"-"`
	// Observe, when non-nil, receives coarse wall-clock phase timings
	// from training runs: "treewalk" (the phase-1 call-tree walk),
	// "collect" (the phase-2 full-speed pass with DAG collection), and
	// "shake" (one observation per segment shake). Like
	// TrainWorkers it is an execution-side knob, not part of the
	// simulated configuration: excluded from JSON encodings and
	// therefore from every content-address (result-cache, artifact,
	// stream, engine keys). Implementations must be safe for concurrent
	// calls — shakes report from pool workers.
	Observe PhaseObserver `json:"-"`
}

// PhaseObserver is the training pipeline's timing callback; see
// Config.Observe. It is an interface (not a func field) so Config stays
// a comparable type.
type PhaseObserver interface {
	ObservePhase(phase string, d time.Duration)
}

// trainWorkers resolves the training-parallelism knob.
func (c *Config) trainWorkers() int {
	if c.TrainWorkers > 0 {
		return c.TrainWorkers
	}
	return runtime.GOMAXPROCS(0)
}

// DefaultConfig returns the paper-calibrated configuration.
func DefaultConfig() Config {
	return Config{
		Sim:          sim.DefaultConfig(),
		Shaker:       shaker.DefaultConfig(),
		DeltaPct:     1.75,
		MaxInstances: 2,
		MaxEvents:    120_000,
		Online:       control.DefaultAttackDecay(),
	}
}

// Profile is the output of training: the call tree, per-node shaken
// histograms, and the edit plan with chosen frequencies.
type Profile struct {
	Scheme calltree.Scheme
	Tree   *calltree.Tree
	Hists  map[*calltree.Node]*shaker.DomainHists
	Plan   *edit.Plan
}

// Train runs phases one through four for one (program, input, scheme)
// triple and returns the resulting profile. oracle disables
// instrumentation cost accounting (used by the off-line comparator).
func Train(cfg Config, prog *isa.Program, in isa.Input, window int64, scheme calltree.Scheme) *Profile {
	return TrainFeed(cfg, prog.Feeder(in), window, scheme)
}

// TrainFeed is Train over any stream source: a batch of one scheme
// (TrainFeedBatch).
func TrainFeed(cfg Config, src isa.Feeder, window int64, scheme calltree.Scheme) *Profile {
	return TrainFeedBatch(cfg, src, window, []calltree.Scheme{scheme})[0]
}

// Replan reruns phase three (slowdown thresholding) and phase four (plan
// construction) for a new slowdown delta, reusing the profile's shaken
// histograms. Training (phases one and two) is delta-independent, so
// threshold sweeps (Figures 10 and 11) replan cheaply.
func Replan(prof *Profile, deltaPct float64) *edit.Plan {
	scheme := prof.Scheme
	nodeFreqs := make(map[*calltree.Node]edit.Freqs)
	if scheme.Path {
		for n, h := range prof.Hists {
			nodeFreqs[n] = toFreqs(threshold.Choose(h, deltaPct))
		}
		return edit.BuildPlan(prof.Tree, nodeFreqs, scheme)
	}
	// Without path tracking, contexts sharing a static subroutine or
	// loop are indistinguishable at run time; merge their histograms
	// before thresholding (this is the averaging that costs epic
	// encode its per-call-site precision, Section 4.2).
	merged := make(map[edit.StaticKey]*shaker.DomainHists)
	for n, h := range prof.Hists {
		k := edit.StaticKey{Kind: n.Kind, ID: n.ID}
		if prev, ok := merged[k]; ok {
			prev.Add(h)
		} else {
			// Deep copy: the merge accumulates into this entry, and the
			// profile's own histograms must stay untouched (they are the
			// delta-independent training state every Replan reuses).
			merged[k] = h.Clone()
		}
	}
	staticFreqs := make(map[edit.StaticKey]edit.Freqs, len(merged))
	for k, h := range merged {
		staticFreqs[k] = toFreqs(threshold.Choose(h, deltaPct))
	}
	// Seed node freqs so BuildPlan records reconfig points, then
	// override with the merged static table.
	for n := range prof.Hists {
		k := edit.StaticKey{Kind: n.Kind, ID: n.ID}
		nodeFreqs[n] = staticFreqs[k]
	}
	plan := edit.BuildPlan(prof.Tree, nodeFreqs, scheme)
	plan.MergeStaticFreqs(staticFreqs)
	return plan
}

func toFreqs(f []int) edit.Freqs {
	out := make(edit.Freqs, len(f))
	for i, v := range f {
		out[i] = uint16(v)
	}
	return out
}

// EditStats reports the run-time instrumentation activity of an edited
// run (Table 4's "Dynamic" and "Overhead" columns).
type EditStats struct {
	DynReconfig    int64
	DynInstr       int64
	OverheadCycles int64
	// OverheadPct estimates the injected instructions' share of run
	// time, in percent.
	OverheadPct float64
}

// RunBaseline simulates the program on the MCD baseline: all domains at
// full speed, synchronization penalties included.
func RunBaseline(cfg Config, prog *isa.Program, in isa.Input, window int64) sim.Result {
	return RunBaselineFeed(cfg, prog.Feeder(in), window)
}

// RunBaselineFeed is RunBaseline over any stream source.
func RunBaselineFeed(cfg Config, src isa.Feeder, window int64) sim.Result {
	res, _ := feedLane(NewBaselineLane(cfg), src, window)
	return res
}

// feedLane drives a lane from a sequential stream source.
func feedLane(l *Lane, src isa.Feeder, window int64) (sim.Result, EditStats) {
	src.Feed(&isa.CountingConsumer{Inner: l.Consumer, Budget: window})
	return l.Finish()
}

// RunSingleClock simulates a globally synchronous processor: one clock
// at mhz, no inter-domain synchronization penalties. It backs both the
// MCD-penalty experiment (mhz = full speed) and the global-DVS
// comparator (mhz matched to a target run time).
func RunSingleClock(cfg Config, prog *isa.Program, in isa.Input, window int64, mhz int) sim.Result {
	res, _ := feedLane(NewSingleClockLane(cfg, mhz), prog.Feeder(in), window)
	return res
}

// RunEdited simulates the edited binary (profile-driven reconfiguration)
// on the given input. oracle runs suppress instrumentation overhead,
// modeling the off-line algorithm's free reconfigurations.
func RunEdited(cfg Config, prog *isa.Program, in isa.Input, window int64, plan *edit.Plan, oracle bool) (sim.Result, EditStats) {
	return RunEditedFeed(cfg, prog.Feeder(in), window, plan, oracle)
}

// RunEditedFeed is RunEdited over any stream source.
func RunEditedFeed(cfg Config, src isa.Feeder, window int64, plan *edit.Plan, oracle bool) (sim.Result, EditStats) {
	return feedLane(NewEditedLane(cfg, plan, oracle), src, window)
}

// RunOffline trains on the production input itself (perfect future
// knowledge) and runs with zero-cost reconfiguration, reproducing the
// off-line comparator of Semeraro et al. (HPCA 2002).
func RunOffline(cfg Config, prog *isa.Program, in isa.Input, window int64) (sim.Result, *Profile) {
	prof := Train(cfg, prog, in, window, calltree.LFCP)
	res, _ := RunEdited(cfg, prog, in, window, prof.Plan, true)
	return res, prof
}

// RunOnline simulates the hardware attack/decay controller.
func RunOnline(cfg Config, prog *isa.Program, in isa.Input, window int64) sim.Result {
	res, _ := feedLane(NewOnlineLane(cfg), prog.Feeder(in), window)
	return res
}

// RunGlobalDVS runs the single-clock global-DVS comparator matched to a
// target run time.
func RunGlobalDVS(cfg Config, prog *isa.Program, in isa.Input, window int64, baseTimePs, targetTimePs int64) sim.Result {
	mhz := control.GlobalDVSMHz(baseTimePs, targetTimePs)
	return RunSingleClock(cfg, prog, in, window, mhz)
}
