package sweep

import (
	"context"
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/isa"
	"repro/internal/obs"
	"repro/internal/workload"
)

// Wave execution: the one path every job takes. A policy grid is
// anchor-shaped: every job is one budgeted pass over a benchmark's
// reference stream under some machine configuration. planBatches groups
// valid jobs by benchmark; runGroup resolves each group wave by wave,
// and runWave resolves one wave by claiming each job's singleflight,
// serving what it can from the persistent layers, then opening one Lane
// per remaining job and stepping all of them in lockstep from the
// group's shared decoded stream (isa.PackedStream.FeedLockstep), so the
// grid pays stream decode and cache traffic once per anchor instead of
// once per job. Engine.Do is a wave of one through the same code. Per-lane
// lockstep delivery is item-for-item identical to a lone replay, so
// outcomes — and therefore result-cache entries, artifacts, and merged
// report bytes — do not depend on the lockstep width or the grouping.

// batchGroup is one anchor group: job indices that stream the same
// benchmark's reference input, split into dependency waves. Wave 0
// jobs have no result dependencies; wave 1 jobs depend on other jobs
// (the global comparator needs its siblings' run times), which wave 0
// resolves into the memo first.
type batchGroup struct {
	wave0 []int
	wave1 []int
}

// planBatches partitions a job list into anchor groups and the indices
// of jobs that fail validation (which Run reports without executing).
// Group order follows first appearance, so scheduling stays
// deterministic.
func planBatches(cfg core.Config, jobs []Job) ([]*batchGroup, []int) {
	var invalid []int
	var order []string
	byBench := make(map[string]*batchGroup)
	for i, j := range jobs {
		if j.Validate() != nil {
			invalid = append(invalid, i)
			continue
		}
		g := byBench[j.Bench]
		if g == nil {
			g = &batchGroup{}
			byBench[j.Bench] = g
			order = append(order, j.Bench)
		}
		if hasResultDep(cfg, j) {
			g.wave1 = append(g.wave1, i)
		} else {
			g.wave0 = append(g.wave0, i)
		}
	}
	groups := make([]*batchGroup, 0, len(order))
	for _, b := range order {
		groups = append(groups, byBench[b])
	}
	return groups, invalid
}

// hasResultDep reports whether a validated job depends on another
// job's result (and therefore must wait for the group's first wave).
func hasResultDep(cfg core.Config, j Job) bool {
	p, _ := PolicyByName(j.Policy)
	for _, d := range p.Deps(cfg, j) {
		if d.Job != nil {
			return true
		}
	}
	return false
}

// runGroup resolves one anchor group, wave by wave.
func (e *Engine) runGroup(ctx context.Context, jobs []Job, g *batchGroup, report reportFn) {
	e.runWave(ctx, jobs, g.wave0, report)
	e.runWave(ctx, jobs, g.wave1, report)
}

// reportFn delivers one finished job to its caller's bookkeeping.
type reportFn func(i int, key string, out *Outcome, src Source, elapsed time.Duration, err error)

// laneJob is one wave job: either the owner of its key's flight or a
// joiner waiting on a flight someone else (or an earlier duplicate in
// the wave) owns.
type laneJob struct {
	idx   int
	key   string
	f     *flight
	owner bool
	lane  *Lane
	out   *Outcome
	err   error
}

// runWave resolves one wave of validated jobs sharing a benchmark.
// Owned jobs — those whose singleflight this call claims — resolve
// through the persistent layers and then one lockstep replay; jobs
// whose key is already in flight elsewhere (or duplicated within the
// wave) wait on that flight after the owners finish.
func (e *Engine) runWave(ctx context.Context, jobs []Job, idxs []int, report reportFn) {
	if len(idxs) == 0 {
		return
	}
	if err := ctx.Err(); err != nil {
		for _, i := range idxs {
			report(i, "", nil, SourceMemory, 0, err)
		}
		return
	}
	start := time.Now()

	// Claim flights.
	wave := make([]*laneJob, len(idxs))
	e.mu.Lock()
	if e.flight == nil {
		e.flight = make(map[string]*flight)
	}
	for k, i := range idxs {
		o := &laneJob{idx: i, key: Key(e.Cfg, jobs[i])}
		if f, ok := e.flight[o.key]; ok {
			o.f = f
		} else {
			o.f = &flight{done: make(chan struct{})}
			o.owner = true
			e.flight[o.key] = o.f
		}
		wave[k] = o
	}
	e.mu.Unlock()

	// Serve owners from the persistent layers first; the remainder
	// executes.
	var pending []*laneJob
	for _, o := range wave {
		if !o.owner {
			continue
		}
		if out, ok := e.segmentLookup(o.key); ok {
			e.finishFlight(o, out)
			report(o.idx, o.key, out, SourceDisk, time.Since(start), nil)
			continue
		}
		if e.Cache != nil {
			out, status := e.Cache.Load(o.key)
			switch status {
			case LoadHit:
				e.nDisk.Add(1)
				// Backfill: a JSON-only cache grows its segment layer
				// over one warm run, no separate conversion pass needed.
				e.bufferSegRow(o.key, jobs[o.idx], out)
				e.finishFlight(o, out)
				report(o.idx, o.key, out, SourceDisk, time.Since(start), nil)
				continue
			case LoadCorrupt:
				e.noteCorrupt(e.Cache.EntryPath(o.key))
			}
		}
		pending = append(pending, o)
	}

	if len(pending) > 0 {
		e.execute(jobs, pending)
	}
	for _, o := range pending {
		if o.err != nil {
			o.err = fmt.Errorf("sweep: %s: %w", jobs[o.idx], o.err)
			e.failFlight(o)
			report(o.idx, o.key, nil, SourceExecuted, time.Since(start), o.err)
			continue
		}
		e.nExecuted.Add(1)
		if e.Cache != nil {
			ps := time.Now()
			err := e.Cache.Put(o.key, jobs[o.idx], o.out)
			e.notePersist(o.key, jobs[o.idx], time.Since(ps), err)
			if err != nil {
				// The simulation already succeeded; a persistence
				// failure (full disk, lost permission) must not throw
				// that work away. Keep the outcome memoized in process
				// and warn once — a later merge will name any jobs that
				// never landed.
				e.warnPersist(err)
			} else {
				// Only rows the canonical JSON layer accepted enter the
				// segment layer: segments must stay a strict subset of
				// the oracle, never ahead of it.
				e.bufferSegRow(o.key, jobs[o.idx], o.out)
			}
		}
		e.finishFlight(o, o.out)
		report(o.idx, o.key, o.out, SourceExecuted, time.Since(start), nil)
	}

	// Joiners wait on their flight: by now the wave's own flights are
	// closed, so only flights owned by a concurrent call can block.
	for _, o := range wave {
		if o.owner {
			continue
		}
		s := time.Now()
		<-o.f.done
		report(o.idx, o.key, o.f.out, SourceMemory, time.Since(s), o.f.err)
	}
}

// execute computes the outcomes of a wave's cache-missed jobs into
// laneJob.out (or laneJob.err, per job). ExecFn, when set, replaces
// exactly this step.
func (e *Engine) execute(jobs []Job, pending []*laneJob) {
	if e.ExecFn != nil {
		for _, o := range pending {
			o.out, o.err = e.ExecFn(jobs[o.idx])
		}
		return
	}
	// The wave replays the anchor's reference stream, and profile
	// dependencies replay a training stream; reserve both stream slots
	// so concurrent groups cannot thrash the recording cache mid-wave.
	x := e.executor()
	x.reserveStreams(2)
	e.resolveWave(jobs, pending)
	x.reserveStreams(-2)
}

// resolveWave resolves dependencies, opens lanes, drives the wave's
// lockstep replay, and finishes each lane. Per-job failures land in
// laneJob.err; the wave keeps going for the rest.
func (e *Engine) resolveWave(jobs []Job, pending []*laneJob) {
	x := e.executor()

	// Batch-train the wave's missing profile dependencies: distinct
	// specs, grouped by training stream inside profileBatch.
	var specs []ProfileSpec
	seen := make(map[ProfileSpec]bool)
	for _, o := range pending {
		p, _ := PolicyByName(jobs[o.idx].Policy)
		for _, d := range p.Deps(e.Cfg, jobs[o.idx]) {
			if d.Profile != nil && !seen[*d.Profile] {
				seen[*d.Profile] = true
				specs = append(specs, *d.Profile)
			}
		}
	}
	x.profileBatch(specs)

	// Resolve each job's dependencies (profiles now memoized; result
	// deps were closed by the previous wave, or resolve here as waves
	// of one) and open its lane.
	var lanes []*laneJob
	for _, o := range pending {
		job := jobs[o.idx]
		p, _ := PolicyByName(job.Policy)
		deps := p.Deps(e.Cfg, job)
		resolved := make([]Resolved, len(deps))
		for i, d := range deps {
			if d.Profile != nil {
				resolved[i].Profile, o.err = x.profile(*d.Profile)
			} else {
				resolved[i].Outcome, _, o.err = e.Do(*d.Job)
			}
			if o.err != nil {
				break
			}
		}
		if o.err != nil {
			continue
		}
		if o.lane, o.err = p.OpenLane(x, job, resolved); o.err == nil {
			lanes = append(lanes, o)
		}
	}
	if len(lanes) == 0 {
		return
	}

	// One lockstep replay per chunk of the shared decoded stream.
	stream := x.packed(workload.ByName(jobs[lanes[0].idx].Bench), true)
	width := e.laneWidth()
	for at := 0; at < len(lanes); at += width {
		chunk := lanes[at:min(at+width, len(lanes))]
		sl := make([]isa.StreamLane, len(chunk))
		for k, o := range chunk {
			sl[k] = isa.StreamLane{Consumer: o.lane.Consumer, Budget: o.lane.Budget}
		}
		cs := time.Now()
		stream.FeedLockstep(sl)
		d := int64(time.Since(cs))
		e.phases.simNS.Add(d)
		if tr := e.Trace; tr != nil {
			// The lanes shared one pass, so each lane's simulate span is
			// an equal slice of the chunk's window (the remainder on the
			// last): the spans tile the chunk and sum to its duration
			// exactly, so shared work is counted once.
			share := d / int64(len(chunk))
			t0 := tr.Now() - d
			for k, o := range chunk {
				dur := share
				if k == len(chunk)-1 {
					dur = d - share*int64(k)
				}
				tr.Emit(obs.Span{
					Key:     o.key,
					Phase:   "simulate",
					Policy:  jobs[o.idx].Policy,
					Bench:   jobs[o.idx].Bench,
					Outcome: "lockstep",
					StartNS: t0 + share*int64(k),
					DurNS:   dur,
				})
			}
		}
	}
	for _, o := range lanes {
		o.out, o.err = o.lane.Finish()
	}
}

// finishFlight publishes an owned flight's outcome to waiters.
func (e *Engine) finishFlight(o *laneJob, out *Outcome) {
	o.f.out = out
	close(o.f.done)
}

// failFlight publishes an owned flight's error and drops it so a later
// call can retry (e.g. after a permission problem on the cache
// directory is fixed).
func (e *Engine) failFlight(o *laneJob) {
	o.f.err = o.err
	close(o.f.done)
	e.mu.Lock()
	delete(e.flight, o.key)
	e.mu.Unlock()
}
