package sweep

import (
	"fmt"
	"strings"

	"repro/internal/calltree"
	"repro/internal/control"
	"repro/internal/core"
	"repro/internal/workload"
)

// The built-in policies. They mirror the paper's comparators
// (Section 4): the MCD baseline, the globally synchronous single-clock
// machine, the off-line oracle, the on-line attack/decay controller, the
// matched global-DVS comparator, and the profile-driven edited binary
// under one of the six context schemes.
const (
	PolicyBaseline    = "baseline"
	PolicySingleClock = "single_clock"
	PolicyOffline     = "offline"
	PolicyOnline      = "online"
	PolicyGlobal      = "global"
	PolicyScheme      = "scheme"
)

func init() {
	// Registration order is the canonical policy order (Policies()).
	RegisterPolicy(baselinePolicy{})
	RegisterPolicy(singleClockPolicy{})
	RegisterPolicy(offlinePolicy{})
	RegisterPolicy(onlinePolicy{})
	RegisterPolicy(globalPolicy{})
	RegisterPolicy(schemePolicy{})
}

// basePolicy provides the no-op defaults shared by parameterless
// comparators.
type basePolicy struct{}

func (basePolicy) ValidateJob(Job) error             { return nil }
func (basePolicy) Deps(core.Config, Job) []Dep       { return nil }
func (basePolicy) ShardAnchor(core.Config, Job) *Dep { return nil }

// clearCommon zeroes every optional parameter; policies re-apply the
// ones they honor.
func clearCommon(j Job) Job {
	j.Scheme = ""
	j.Delta = 0
	j.Aggressiveness = 0
	j.MHz = 0
	return j
}

// offlineProfile is the off-line oracle's training dependency: the
// paper's most elaborate scheme trained on the reference input itself.
func offlineProfile(bench string) *ProfileSpec {
	return &ProfileSpec{Bench: bench, Scheme: calltree.LFCP.Name, OnRef: true}
}

// baselinePolicy runs the MCD baseline: all domains at full speed,
// synchronization penalties included.
type baselinePolicy struct{ basePolicy }

func (baselinePolicy) Name() string { return PolicyBaseline }

func (baselinePolicy) CanonicalJob(j Job, cfg core.Config) Job { return clearCommon(j) }

func (baselinePolicy) OpenLane(rt Runtime, j Job, _ []Resolved) (*Lane, error) {
	b := workload.ByName(j.Bench)
	l := core.NewBaselineLane(rt.Config())
	return &Lane{Consumer: l.Consumer, Budget: b.RefWindow, Finish: func() (*Outcome, error) {
		res, _ := l.Finish()
		return &Outcome{Res: res}, nil
	}}, nil
}

// singleClockPolicy runs the globally synchronous comparator at the
// job's frequency (default: full base speed).
type singleClockPolicy struct{ basePolicy }

func (singleClockPolicy) Name() string { return PolicySingleClock }

func (singleClockPolicy) CanonicalJob(j Job, cfg core.Config) Job {
	mhz := j.MHz
	j = clearCommon(j)
	if mhz != cfg.Sim.BaseMHz {
		j.MHz = mhz
	}
	return j
}

// ShardAnchor places the default-frequency run with the off-line chain
// that consumes it: the global-DVS comparator needs this job, and a cold
// fleet should compute it on the one shard that owns that chain instead
// of redundantly on every shard that hosts a global job. The anchor is
// placement-only — no training is triggered for benchmarks whose
// manifest never needs it.
func (singleClockPolicy) ShardAnchor(cfg core.Config, j Job) *Dep {
	if j.canonical(cfg).MHz != 0 {
		return nil // explicit-frequency ladder points place by their own key
	}
	return &Dep{Profile: offlineProfile(j.Bench)}
}

func (singleClockPolicy) OpenLane(rt Runtime, j Job, _ []Resolved) (*Lane, error) {
	b := workload.ByName(j.Bench)
	cfg := rt.Config()
	mhz := j.MHz
	if mhz == 0 {
		mhz = cfg.Sim.BaseMHz
	}
	l := core.NewSingleClockLane(cfg, mhz)
	return &Lane{Consumer: l.Consumer, Budget: b.RefWindow, Finish: func() (*Outcome, error) {
		res, _ := l.Finish()
		return &Outcome{Res: res}, nil
	}}, nil
}

// offlinePolicy is the off-line oracle: train on the production input
// itself, run with zero-cost reconfiguration.
type offlinePolicy struct{ basePolicy }

func (offlinePolicy) Name() string { return PolicyOffline }

func (offlinePolicy) CanonicalJob(j Job, cfg core.Config) Job {
	delta := j.Delta
	j = clearCommon(j)
	if delta != cfg.DeltaPct {
		j.Delta = delta
	}
	return j
}

func (offlinePolicy) Deps(cfg core.Config, j Job) []Dep {
	return []Dep{{Profile: offlineProfile(j.Bench)}}
}

func (offlinePolicy) ShardAnchor(cfg core.Config, j Job) *Dep {
	return &Dep{Profile: offlineProfile(j.Bench)}
}

func (offlinePolicy) OpenLane(rt Runtime, j Job, deps []Resolved) (*Lane, error) {
	b := workload.ByName(j.Bench)
	l := core.NewEditedLane(rt.Config(), rt.Plan(deps[0].Profile, j.Delta), true)
	return &Lane{Consumer: l.Consumer, Budget: b.RefWindow, Finish: func() (*Outcome, error) {
		res, _ := l.Finish()
		return &Outcome{Res: res}, nil
	}}, nil
}

// onlinePolicy simulates the hardware attack/decay controller.
type onlinePolicy struct{ basePolicy }

func (onlinePolicy) Name() string { return PolicyOnline }

func (onlinePolicy) CanonicalJob(j Job, cfg core.Config) Job {
	aggr := j.Aggressiveness
	j = clearCommon(j)
	if aggr != cfg.Online.Aggressiveness {
		j.Aggressiveness = aggr
	}
	return j
}

func (onlinePolicy) OpenLane(rt Runtime, j Job, _ []Resolved) (*Lane, error) {
	b := workload.ByName(j.Bench)
	cfg := rt.Config()
	if j.Aggressiveness != 0 {
		cfg.Online.Aggressiveness = j.Aggressiveness
	}
	l := core.NewOnlineLane(cfg)
	return &Lane{Consumer: l.Consumer, Budget: b.RefWindow, Finish: func() (*Outcome, error) {
		res, _ := l.Finish()
		return &Outcome{Res: res}, nil
	}}, nil
}

// globalPolicy is the global-DVS comparator: a single-clock machine
// frequency-matched to the off-line oracle's run time. Both inputs are
// declared result dependencies, so they are cached and shared like any
// other job.
type globalPolicy struct{ basePolicy }

func (globalPolicy) Name() string { return PolicyGlobal }

func (globalPolicy) CanonicalJob(j Job, cfg core.Config) Job { return clearCommon(j) }

func (globalPolicy) Deps(cfg core.Config, j Job) []Dep {
	return []Dep{
		{Job: &Job{Bench: j.Bench, Policy: PolicySingleClock}},
		{Job: &Job{Bench: j.Bench, Policy: PolicyOffline}},
	}
}

// ShardAnchor follows the off-line dependency: it is the most expensive
// job in the chain, and the shard that owns the oracle training should
// also resolve the global run.
func (globalPolicy) ShardAnchor(cfg core.Config, j Job) *Dep {
	return &Dep{Job: &Job{Bench: j.Bench, Policy: PolicyOffline}}
}

func (globalPolicy) OpenLane(rt Runtime, j Job, deps []Resolved) (*Lane, error) {
	b := workload.ByName(j.Bench)
	sc, off := deps[0].Outcome, deps[1].Outcome
	mhz := control.GlobalDVSMHz(sc.Res.TimePs, off.Res.TimePs)
	l := core.NewSingleClockLane(rt.Config(), mhz)
	return &Lane{Consumer: l.Consumer, Budget: b.RefWindow, Finish: func() (*Outcome, error) {
		res, _ := l.Finish()
		return &Outcome{Res: res, GlobalMHz: mhz}, nil
	}}, nil
}

// schemePolicy runs the profile-driven edited binary under one of the
// paper's six context schemes: train on the training input, edit, run
// on the reference input.
type schemePolicy struct{ basePolicy }

func (schemePolicy) Name() string { return PolicyScheme }

func (schemePolicy) ValidateJob(j Job) error {
	if _, ok := SchemeByName(j.Scheme); !ok {
		var names []string
		for _, s := range calltree.Schemes() {
			names = append(names, s.Name)
		}
		return fmt.Errorf("sweep: unknown context scheme %q (registered: %s)", j.Scheme, strings.Join(names, ", "))
	}
	return nil
}

func (schemePolicy) CanonicalJob(j Job, cfg core.Config) Job {
	scheme, delta := j.Scheme, j.Delta
	j = clearCommon(j)
	j.Scheme = scheme
	if delta != cfg.DeltaPct {
		j.Delta = delta
	}
	return j
}

func (p schemePolicy) Deps(cfg core.Config, j Job) []Dep {
	return []Dep{{Profile: &ProfileSpec{Bench: j.Bench, Scheme: j.Scheme}}}
}

func (p schemePolicy) ShardAnchor(cfg core.Config, j Job) *Dep {
	return &Dep{Profile: &ProfileSpec{Bench: j.Bench, Scheme: j.Scheme}}
}

func (schemePolicy) OpenLane(rt Runtime, j Job, deps []Resolved) (*Lane, error) {
	b := workload.ByName(j.Bench)
	plan := rt.Plan(deps[0].Profile, j.Delta)
	l := core.NewEditedLane(rt.Config(), plan, false)
	return &Lane{Consumer: l.Consumer, Budget: b.RefWindow, Finish: func() (*Outcome, error) {
		out := &Outcome{}
		out.Res, out.Stats = l.Finish()
		out.StaticReconfig, out.StaticInstr = plan.StaticPoints()
		return out, nil
	}}, nil
}
