package core

import (
	"math"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/calltree"
	"repro/internal/control"
	"repro/internal/edit"
	"repro/internal/isa"
	"repro/internal/profiler"
	"repro/internal/shaker"
	"repro/internal/sim"
	"repro/internal/trace"
)

// Lane is one production simulation split into its two halves — the
// consumer that eats the instruction stream and the finalization that
// produces the result — so a caller can choose how the stream arrives:
// a sequential Feed (RunBaselineFeed, RunEditedFeed) or one lockstep
// replay driving many lanes from a single decoded pass
// (isa.PackedStream.FeedLockstep). Both deliver item-for-item identical
// streams, so the lane computes identical results either way.
type Lane struct {
	// Consumer receives the (budget-limited) instruction stream.
	Consumer isa.Consumer
	finish   func() (sim.Result, EditStats)
	done     bool
	res      sim.Result
	stats    EditStats
}

// Finish finalizes the simulation and returns its result. It is
// idempotent: repeated calls return the first result.
func (l *Lane) Finish() (sim.Result, EditStats) {
	if !l.done {
		l.res, l.stats = l.finish()
		l.done = true
	}
	return l.res, l.stats
}

// NewBaselineLane prepares an MCD-baseline simulation (all domains at
// full speed, synchronization penalties included).
func NewBaselineLane(cfg Config) *Lane {
	m := sim.New(cfg.Sim)
	return &Lane{Consumer: m, finish: func() (sim.Result, EditStats) {
		return m.Finalize(), EditStats{}
	}}
}

// NewSingleClockLane prepares a globally synchronous simulation at mhz.
func NewSingleClockLane(cfg Config, mhz int) *Lane {
	scfg := cfg.Sim
	scfg.BaseMHz = mhz
	scfg.Sync.Disabled = true
	m := sim.New(scfg)
	return &Lane{Consumer: m, finish: func() (sim.Result, EditStats) {
		return m.Finalize(), EditStats{}
	}}
}

// NewOnlineLane prepares a simulation under the attack/decay hardware
// controller.
func NewOnlineLane(cfg Config) *Lane {
	m := sim.New(cfg.Sim)
	control.NewAttackDecay(cfg.Online).Attach(m)
	return &Lane{Consumer: m, finish: func() (sim.Result, EditStats) {
		return m.Finalize(), EditStats{}
	}}
}

// NewEditedLane prepares a simulation of the edited binary under plan;
// oracle runs suppress instrumentation overhead.
func NewEditedLane(cfg Config, plan *edit.Plan, oracle bool) *Lane {
	m := sim.New(cfg.Sim)
	var ed *edit.Editor
	if oracle {
		ed = edit.NewOracleEditor(plan, m)
	} else {
		ed = edit.NewEditor(plan, m)
	}
	return &Lane{Consumer: ed, finish: func() (sim.Result, EditStats) {
		res := m.Finalize()
		st := EditStats{
			DynReconfig:    ed.DynReconfig,
			DynInstr:       ed.DynInstr,
			OverheadCycles: ed.OverheadCycles,
		}
		if res.TimePs > 0 {
			// Overhead cycles are front-end-nominal; convert via the base
			// period.
			st.OverheadPct = 100 * float64(st.OverheadCycles) * float64(1e6/int64(cfg.Sim.BaseMHz)) / float64(res.TimePs)
		}
		return res, st
	}}
}

// TrainFeedBatch runs phases one through four for one (program, input,
// window) stream under one or more context schemes and returns one
// profile per scheme. A batch produces exactly the profiles one-scheme
// batches would produce scheme by scheme, but shares the two
// stream-shaped costs across its schemes:
//
//   - Phase 2 (the full-speed simulated run with DAG collection) runs
//     the machine once, fanning its trace to one collector per scheme.
//     The collector is a pure observer, so N collectors on one machine
//     pass see exactly what N machine passes would each show them.
//   - Shaking is memoized across schemes: different schemes carve the
//     same dynamic stream at different context granularity, so most
//     traced segments reappear shifted in time but otherwise identical.
//     The shaker's histograms are shift-invariant (binning depends only
//     on durations, weights, and domains), so a segment whose
//     time-rebased content hash was already shaken reuses the shaken
//     histograms instead of re-running the O(passes x events) shaker.
//
// Phase 1 (call-tree profiling) and phases 3-4 (thresholding and plan
// construction) stay per-scheme; they are scheme-dependent and cheap.
// A single scheme skips the memo and drives its collector directly
// from the machine.
//
// Segment shakes fan out over a pool of cfg.TrainWorkers runners. With
// more than one worker and more than one scheme the batch also runs
// phase-1 profiling passes concurrently (each replays the source
// independently — Feeders are stateless), and the one phase-2 machine
// pass fans its trace to per-scheme collector goroutines through shared
// read-only record blocks. Each collector drains its shakes in strict
// submission order (shaker.Seq), so every worker count — including 1,
// which collapses to the fully serial path — produces bit-identical
// profiles.
func TrainFeedBatch(cfg Config, src isa.Feeder, window int64, schemes []calltree.Scheme) []*Profile {
	topo := cfg.Sim.Topo()
	workers := cfg.trainWorkers()
	fanOut := workers > 1 && len(schemes) > 1
	// The shaker's per-domain power factors follow the topology unless
	// the configuration already covers its scalable domains.
	pool := shaker.NewPool(shaker.ConfigFor(cfg.Shaker, topo), workers)
	if obs := cfg.Observe; obs != nil {
		pool.Observe = func(d time.Duration) { obs.ObservePhase("shake", d) }
	}
	defer pool.Close()
	var memo *shakeMemo
	if len(schemes) > 1 {
		memo = newShakeMemo()
	}
	profs := make([]*Profile, len(schemes))
	collectors := make([]*trace.Collector, len(schemes))
	seqs := make([]*shaker.Seq, len(schemes))

	// Phase 1 per scheme: build the call tree. The profiling
	// observation aggregates all schemes' walks into one duration.
	var t0 time.Time
	if cfg.Observe != nil {
		t0 = time.Now()
	}
	build := func(i int) {
		scheme := schemes[i]
		tree := profiler.ProfileFeed(src, window, scheme)
		hists := make(map[*calltree.Node]*shaker.DomainHists)
		seq := pool.NewSeq()
		collector := trace.NewCollector(tree, cfg.MaxInstances, cfg.MaxEvents, func(seg *trace.Segment) {
			memo.submit(seq, seg, hists)
		})
		collector.SetTopology(topo)
		// Segments handed to the pool are deep-copied before the callback
		// returns (and reduced inline when the pool is synchronous), so
		// each collector can reuse one event arena for the whole run.
		collector.RecycleSegments = true
		profs[i] = &Profile{Scheme: scheme, Tree: tree, Hists: hists}
		collectors[i] = collector
		seqs[i] = seq
	}
	if fanOut {
		var wg sync.WaitGroup
		sem := make(chan struct{}, workers)
		for i := range schemes {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				sem <- struct{}{}
				defer func() { <-sem }()
				build(i)
			}(i)
		}
		wg.Wait()
	} else {
		for i := range schemes {
			build(i)
		}
	}

	if cfg.Observe != nil {
		cfg.Observe.ObservePhase("treewalk", time.Since(t0))
		t0 = time.Now()
	}

	// Phase 2, once: one machine pass observed by every collector. The
	// parallel fan-out ships the identical record sequence to per-scheme
	// lanes; each lane replays it into its collector in order, so every
	// collector sees exactly the stream the serial tee delivers.
	m := sim.New(cfg.Sim)
	if fanOut {
		tee := newFanTee(len(schemes))
		var wg sync.WaitGroup
		for i := range schemes {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				tee.replayLane(i, collectors[i])
				// Close on the lane goroutine: the collector flushes its
				// open segments into the Seq, which then drains pending
				// shakes in submission order.
				collectors[i].Close()
				seqs[i].Close()
			}(i)
		}
		m.SetTracer(tee)
		m.SetMarkerSink(tee)
		src.Feed(&isa.CountingConsumer{Inner: m, Budget: window})
		tee.finish()
		wg.Wait()
	} else {
		if len(collectors) == 1 {
			m.SetTracer(collectors[0])
			m.SetMarkerSink(collectors[0])
		} else {
			tee := &teeObserver{sinks: collectors}
			m.SetTracer(tee)
			m.SetMarkerSink(tee)
		}
		src.Feed(&isa.CountingConsumer{Inner: m, Budget: window})
		for i, c := range collectors {
			c.Close()
			seqs[i].Close()
		}
	}
	if cfg.Observe != nil {
		cfg.Observe.ObservePhase("collect", time.Since(t0))
	}

	for _, prof := range profs {
		prof.Plan = Replan(prof, cfg.DeltaPct)
	}
	return profs
}

// addHists accumulates shaken histograms into the per-node table: the
// first entry for a node takes ownership of h, later segments add into
// it.
func addHists(hists map[*calltree.Node]*shaker.DomainHists, node *calltree.Node, h *shaker.DomainHists) {
	if prev, ok := hists[node]; ok {
		prev.Add(h)
	} else {
		hists[node] = h
	}
}

// shakeMemo dedupes shaking across the schemes of one batch. Each entry
// is published by the worker that shakes the segment first — before any
// ordered delivery — so a consumer that hits the memo waits only on the
// shake itself, never on another consumer's drain (consumer→worker
// edges only: deadlock-free by construction).
type shakeMemo struct {
	mu sync.Mutex
	m  map[segKey]*memoEntry
}

type memoEntry struct {
	done chan struct{}
	// h is the memo's own clone, immutable once done closes.
	h *shaker.DomainHists
}

func newShakeMemo() *shakeMemo {
	return &shakeMemo{m: make(map[segKey]*memoEntry)}
}

// submit routes one collected segment: memo hits splice an ordered
// wait-and-clone into the consumer's reduction; misses shake on the
// pool, publishing the memo entry from the computing worker. A nil memo
// (a one-scheme batch) shakes every segment directly.
func (mm *shakeMemo) submit(seq *shaker.Seq, seg *trace.Segment, hists map[*calltree.Node]*shaker.DomainHists) {
	node := seg.Node
	k, hashable := segKey{}, mm != nil
	if hashable {
		k, hashable = segmentKey(seg)
	}
	if !hashable {
		seq.Shake(seg, nil, func(h *shaker.DomainHists) {
			addHists(hists, node, h)
		})
		return
	}
	mm.mu.Lock()
	e, hit := mm.m[k]
	if !hit {
		e = &memoEntry{done: make(chan struct{})}
		mm.m[k] = e
	}
	mm.mu.Unlock()
	if hit {
		seq.Ordered(func() {
			<-e.done
			addHists(hists, node, e.h.Clone())
		})
		return
	}
	seq.Shake(seg, func(h *shaker.DomainHists) {
		// The memo owns its copy: the per-node entry delivered below is
		// accumulated into by later segments of the same node.
		e.h = h.Clone()
		close(e.done)
	}, func(h *shaker.DomainHists) {
		addHists(hists, node, h)
	})
}

// segKey is a 128-bit content hash of a segment's events rebased to
// the segment's start time. Two segments with equal keys hold
// shift-identical event sets, which the shaker reduces to identical
// histograms; 128 bits makes a silent collision astronomically
// unlikely (~2^-64 at millions of segments).
type segKey struct{ lo, hi uint64 }

const (
	fnvOffset = 14695981039346656037
	fnvPrime  = 1099511628211
)

// segmentKey hashes the shift-normalized content of a segment. The
// second lane of the hash seeds differently and taps the stream at a
// byte offset, so the two 64-bit halves decorrelate.
func segmentKey(seg *trace.Segment) (segKey, bool) {
	ev := seg.Events
	if len(ev) == 0 {
		return segKey{}, false
	}
	base := ev[0].Start
	lo := uint64(fnvOffset)
	hi := uint64(fnvOffset) ^ 0x9e3779b97f4a7c15
	mix := func(v uint64) {
		for s := 0; s < 64; s += 8 {
			b := (v >> uint(s)) & 0xff
			lo = (lo ^ b) * fnvPrime
			hi = (hi ^ ((v >> uint((s+8)%64)) & 0xff)) * fnvPrime
		}
	}
	mix(uint64(len(ev)))
	for i := range ev {
		e := &ev[i]
		mix(uint64(e.Start - base))
		mix(uint64(e.End - base))
		mix(uint64(e.Domain))
		mix(math.Float64bits(e.Weight))
		mix(uint64(len(e.Out)))
		for _, o := range e.Out {
			mix(uint64(o))
		}
	}
	return segKey{lo, hi}, true
}

// Parallel phase-2 fan-out: the machine pass appends each trace/marker
// record to a block; full blocks ship to every lane's channel, where a
// per-scheme goroutine replays them into its collector. Blocks are
// shared read-only across lanes and recycled through a free channel
// once the last lane releases them (the channel handoff publishes the
// release to the producer), so steady-state fan-out allocates nothing
// and total buffering is bounded at fanBlocks blocks.
const (
	fanBlockLen = 1024
	fanBlocks   = 8
)

// fanRec is one machine observation, captured by value so lanes can
// replay it after the machine has moved on.
type fanRec struct {
	seq    int64
	now    int64
	ins    isa.Instr
	tm     sim.Times
	m      isa.Marker
	marker bool
}

type fanBlock struct {
	recs [fanBlockLen]fanRec
	n    int
	left atomic.Int32
}

// fanTee implements sim.Tracer and sim.MarkerSink on the machine side.
type fanTee struct {
	lanes []chan *fanBlock
	free  chan *fanBlock
	cur   *fanBlock
}

func newFanTee(nLanes int) *fanTee {
	t := &fanTee{free: make(chan *fanBlock, fanBlocks)}
	for i := 0; i < fanBlocks; i++ {
		t.free <- &fanBlock{}
	}
	for i := 0; i < nLanes; i++ {
		t.lanes = append(t.lanes, make(chan *fanBlock, fanBlocks))
	}
	t.cur = <-t.free
	return t
}

func (t *fanTee) slot() *fanRec {
	if t.cur.n == fanBlockLen {
		t.flush()
	}
	r := &t.cur.recs[t.cur.n]
	t.cur.n++
	return r
}

func (t *fanTee) flush() {
	b := t.cur
	if b.n == 0 {
		return
	}
	b.left.Store(int32(len(t.lanes)))
	for _, ch := range t.lanes {
		ch <- b
	}
	t.cur = <-t.free
	t.cur.n = 0
}

func (t *fanTee) Trace(seq int64, ins *isa.Instr, tm *sim.Times) {
	r := t.slot()
	r.marker = false
	r.seq = seq
	r.ins = *ins
	r.tm = *tm
}

func (t *fanTee) MachineMarker(m isa.Marker, now int64) {
	r := t.slot()
	r.marker = true
	r.m = m
	r.now = now
}

// finish flushes the partial block and closes the lanes.
func (t *fanTee) finish() {
	t.flush()
	for _, ch := range t.lanes {
		close(ch)
	}
}

// replayLane drains lane i's blocks into c, preserving the machine's
// exact trace/marker interleaving, and returns when the tee finishes.
func (t *fanTee) replayLane(i int, c *trace.Collector) {
	for b := range t.lanes[i] {
		for k := 0; k < b.n; k++ {
			r := &b.recs[k]
			if r.marker {
				c.MachineMarker(r.m, r.now)
			} else {
				c.Trace(r.seq, &r.ins, &r.tm)
			}
		}
		if b.left.Add(-1) == 0 {
			t.free <- b
		}
	}
}

// teeObserver fans one machine's trace and marker streams to several
// collectors. Collectors are pure observers — they never mutate the
// instruction, times, or machine — so each sink sees exactly the stream
// a dedicated machine pass would deliver.
type teeObserver struct{ sinks []*trace.Collector }

func (t *teeObserver) Trace(seq int64, ins *isa.Instr, tm *sim.Times) {
	for _, c := range t.sinks {
		c.Trace(seq, ins, tm)
	}
}

func (t *teeObserver) MachineMarker(m isa.Marker, now int64) {
	for _, c := range t.sinks {
		c.MachineMarker(m, now)
	}
}
