package sweep

import (
	"fmt"
	"runtime"
	"sync"
	"time"

	"repro/internal/artifact"
	"repro/internal/calltree"
	"repro/internal/core"
	"repro/internal/edit"
	"repro/internal/isa"
	"repro/internal/obs"
	"repro/internal/workload"
)

// executor is the engine's Runtime (configuration and replanning for
// policies' lanes), and it resolves what waves need besides results:
// trained profiles and packed streams. Training (phases one and two)
// is delta-independent and by far the most expensive part of a
// profile-driven job, so trained profiles
// resolve through two layers keyed by their content-addressed artifact
// key: an in-process memo with per-key singleflight, then the engine's
// persistent artifact store — a threshold sweep trains once and replans
// cheaply per delta point, even when the points run concurrently, and a
// fleet of processes sharing one store directory trains once total.
//
// The executor also keeps a small LRU of recorded dynamic streams: a
// policy grid simulates the same (benchmark, input) stream once per
// policy, and regenerating it costs roughly a third of each run. The
// cache is bounded (a packed recording is ~13 B/instruction), and a recorded
// replay is item-for-item identical to a generating walk, so outcomes
// — and therefore cache keys and report bytes — are unchanged.
type executor struct {
	eng *Engine

	mu       sync.Mutex
	profiles map[string]*profFlight // keyed by artifact key

	smu      sync.Mutex
	streams  map[string]*streamFlight
	lru      []string // keys, least recent first
	reserved int      // extra stream slots claimed by running batches
}

type profFlight struct {
	done chan struct{}
	prof *core.Profile
}

type streamFlight struct {
	done     chan struct{}
	rec      *isa.PackedStream
	recorded bool
}

// maxStreams bounds retained recordings. The base bound is the
// engine's RecordingCache knob, defaulting to worker count plus slack:
// workers process jobs benchmark-major, so at most one stream per
// worker is typically live, and the slack covers the train/ref pair a
// training job touches. Running batches additionally reserve the slots
// their anchor group replays (reserveStreams), so a lockstep batch can
// never have its own streams evicted under it by concurrent groups.
// Recordings still in flight are never evicted — eviction mid-recording
// would make concurrent jobs re-record the same stream — so momentary
// occupancy can exceed the bound by the number of in-flight recordings,
// which the worker pool already caps.
func (x *executor) maxStreams() int {
	base := x.eng.RecordingCache
	if base <= 0 {
		w := x.eng.Workers
		if w <= 0 {
			w = runtime.GOMAXPROCS(0)
		}
		base = w + 2
	}
	return base + x.reserved
}

// reserveStreams adjusts the batch reservation (delta may be negative);
// callers bracket each lockstep batch with a matching pair.
func (x *executor) reserveStreams(delta int) {
	x.smu.Lock()
	x.reserved += delta
	x.smu.Unlock()
}

func newExecutor(e *Engine) *executor {
	return &executor{
		eng:      e,
		profiles: make(map[string]*profFlight),
		streams:  make(map[string]*streamFlight),
	}
}

// Config returns the engine configuration (Runtime).
func (x *executor) Config() core.Config { return x.eng.Cfg }

// packed returns the replayable packed stream of one benchmark input,
// recording (or loading) it on first use. Concurrent requests for the
// same stream share one recording.
func (x *executor) packed(b *workload.Benchmark, ref bool) *isa.PackedStream {
	in, window := b.Train, b.TrainWindow
	if ref {
		in, window = b.Ref, b.RefWindow
	}
	key := b.Name() + "\x00" + in.Name
	x.smu.Lock()
	if f, ok := x.streams[key]; ok {
		// Refresh LRU position.
		for i, k := range x.lru {
			if k == key {
				x.lru = append(append(x.lru[:i:i], x.lru[i+1:]...), key)
				break
			}
		}
		x.smu.Unlock()
		<-f.done
		return f.rec
	}
	f := &streamFlight{done: make(chan struct{})}
	x.streams[key] = f
	x.lru = append(x.lru, key)
	if limit := x.maxStreams(); len(x.lru) > limit {
		// Evict the least recent completed recording; skip in-flight ones.
		for i := 0; i < len(x.lru); i++ {
			k := x.lru[i]
			if e, ok := x.streams[k]; ok && e.recorded {
				x.lru = append(x.lru[:i:i], x.lru[i+1:]...)
				delete(x.streams, k)
				break
			}
		}
	}
	x.smu.Unlock()

	f.rec = x.resolveStream(b, in, window, ref)
	x.smu.Lock()
	f.recorded = true
	x.smu.Unlock()
	close(f.done)
	return f.rec
}

// resolveStream materializes one benchmark input's packed stream: the
// on-disk stream store when the engine has one (corrupt entries are
// counted and treated as misses), else a fresh generating walk, which
// is then persisted so the next cold process loads instead of walking.
func (x *executor) resolveStream(b *workload.Benchmark, in isa.Input, window int64, ref bool) *isa.PackedStream {
	start := time.Now()
	s, key, outcome := x.loadOrRecordStream(b, in, window, ref)
	d := time.Since(start)
	e := x.eng
	e.phases.streamNS.Add(int64(d))
	if outcome == "hit" {
		e.phases.streamHits.Add(1)
	} else {
		e.phases.streamRecords.Add(1)
	}
	if tr := e.Trace; tr != nil {
		tr.Emit(obs.Span{
			Key:     key,
			Phase:   "stream",
			Bench:   b.Name(),
			Outcome: outcome,
			StartNS: tr.Now() - int64(d),
			DurNS:   int64(d),
		})
	}
	return s
}

// loadOrRecordStream is resolveStream's store/walk logic; it reports
// the stream key (empty without a store) and how the stream resolved
// ("hit" from the store, "recorded" by a generating walk).
func (x *executor) loadOrRecordStream(b *workload.Benchmark, in isa.Input, window int64, ref bool) (*isa.PackedStream, string, string) {
	st := x.eng.Streams
	if st == nil {
		return isa.RecordPackedSized(b.Prog, in, window), "", "recorded"
	}
	key := StreamKey(b, ref)
	s, status := st.Load(key)
	switch status {
	case StreamHit:
		x.eng.nStream.Add(1)
		return s, key, "hit"
	case StreamCorrupt:
		x.eng.noteCorrupt(st.EntryPath(key))
	}
	s = isa.RecordPackedSized(b.Prog, in, window)
	if err := st.Put(key, s); err != nil {
		x.eng.warnPersist(err)
	}
	return s, key, "recorded"
}

// profile resolves one trained profile: in-process memo (with per-key
// singleflight), then the persistent artifact store, then training — a
// batch of one through the same path as profileBatch — which persists
// the new artifact so sibling processes sharing the store directory
// never retrain it.
func (x *executor) profile(spec ProfileSpec) (*core.Profile, error) {
	b := workload.ByName(spec.Bench)
	if b == nil {
		return nil, fmt.Errorf("unknown benchmark %q", spec.Bench)
	}
	if _, ok := SchemeByName(spec.Scheme); !ok {
		return nil, fmt.Errorf("unknown context scheme %q", spec.Scheme)
	}
	key := spec.ArtifactKey(x.eng.Cfg)
	x.mu.Lock()
	if f, ok := x.profiles[key]; ok {
		x.mu.Unlock()
		start := time.Now()
		<-f.done
		x.noteProfile(key, spec.Bench, "memo", time.Since(start))
		return f.prof, nil
	}
	c := profClaim{spec, key, &profFlight{done: make(chan struct{})}, b}
	x.profiles[key] = c.f
	x.mu.Unlock()

	x.resolveClaims([]profClaim{c})
	return c.f.prof, nil
}

// noteProfile accounts one profile-dependency resolution in the phase
// breakdown and, when tracing, as a "profile" span whose outcome names
// the answering layer (memo, artifact, trained).
func (x *executor) noteProfile(key, bench, outcome string, d time.Duration) {
	e := x.eng
	switch outcome {
	case "artifact":
		e.phases.artifactHits.Add(1)
	case "trained":
		e.phases.trained.Add(1)
	}
	if tr := e.Trace; tr != nil {
		tr.Emit(obs.Span{
			Key:     key,
			Phase:   "profile",
			Bench:   bench,
			Outcome: outcome,
			StartNS: tr.Now() - int64(d),
			DurNS:   int64(d),
		})
	}
}

// loadStored resolves a profile from the artifact store, replanning at
// the engine's calibrated delta; nil means miss (or counted corruption).
func (x *executor) loadStored(key string) *core.Profile {
	st := x.eng.Artifacts
	if st == nil {
		return nil
	}
	payload, status := st.Load(key, artifact.KindProfile)
	switch status {
	case artifact.Hit:
		prof, err := core.DecodeProfile(payload)
		if err == nil {
			// The stored state is delta-independent; rebuild the plan
			// at this engine's calibrated delta.
			prof.Plan = core.Replan(prof, x.eng.Cfg.DeltaPct)
			return prof
		}
		x.eng.noteCorrupt(st.EntryPath(key))
	case artifact.Corrupt:
		x.eng.noteCorrupt(st.EntryPath(key))
	}
	return nil
}

// persistProfile stores a freshly trained profile. Training already
// succeeded; a persistence failure must not throw that work away, so
// the profile stays memoized in process and the engine warns once.
func (x *executor) persistProfile(key string, prof *core.Profile) {
	st := x.eng.Artifacts
	if st == nil {
		return
	}
	payload, err := core.EncodeProfile(prof)
	if err == nil {
		err = st.Put(key, artifact.KindProfile, payload)
	}
	if err != nil {
		x.eng.warnPersist(err)
	}
}

// profClaim is one profile flight the caller owns and must resolve.
type profClaim struct {
	spec ProfileSpec
	key  string
	f    *profFlight
	b    *workload.Benchmark
}

// profileBatch resolves several trained profiles at once, batching the
// trainings that miss every cache layer. Specs already memoized or in
// flight are left to their owners; invalid specs (unknown benchmark or
// scheme) are skipped so the per-job path surfaces their error.
func (x *executor) profileBatch(specs []ProfileSpec) {
	var mine []profClaim
	x.mu.Lock()
	for _, spec := range specs {
		b := workload.ByName(spec.Bench)
		if _, ok := SchemeByName(spec.Scheme); b == nil || !ok {
			continue
		}
		key := spec.ArtifactKey(x.eng.Cfg)
		if _, exists := x.profiles[key]; exists {
			continue
		}
		f := &profFlight{done: make(chan struct{})}
		x.profiles[key] = f
		mine = append(mine, profClaim{spec, key, f, b})
	}
	x.mu.Unlock()
	x.resolveClaims(mine)
}

// resolveClaims resolves owned profile flights: stored artifacts load,
// and the rest train, specs sharing one training stream (benchmark,
// input) in a single multi-scheme pass (core.TrainFeedBatch) that
// shares the phase-2 collection run and the shake work across schemes,
// producing byte-identical artifacts to spec-by-spec training. Store
// damage is never fatal: corrupt entries are counted, surfaced once,
// and overwritten by the fresh training.
func (x *executor) resolveClaims(mine []profClaim) {
	// Serve claims from the artifact store; group the rest by training
	// stream.
	groups := make(map[string][]int)
	var order []string
	for i := range mine {
		c := &mine[i]
		t0 := time.Now()
		if prof := x.loadStored(c.key); prof != nil {
			x.noteProfile(c.key, c.spec.Bench, "artifact", time.Since(t0))
			c.f.prof = prof
			close(c.f.done)
			continue
		}
		gk := c.spec.Bench
		if c.spec.OnRef {
			gk += "\x00ref"
		}
		if _, ok := groups[gk]; !ok {
			order = append(order, gk)
		}
		groups[gk] = append(groups[gk], i)
	}

	for _, gk := range order {
		idx := groups[gk]
		first := &mine[idx[0]]
		schemes := make([]calltree.Scheme, len(idx))
		for k, i := range idx {
			schemes[k], _ = SchemeByName(mine[i].spec.Scheme)
		}
		_, window := first.spec.inputWindow(first.b)
		// Resolve the stream before the training window opens so stream
		// decode time stays in the "stream" phase, not in "train".
		feed := x.packed(first.b, first.spec.OnRef)
		cfg := x.eng.Cfg
		sink := &phaseSink{e: x.eng, key: first.key, bench: first.spec.Bench}
		cfg.Observe = sink
		t0 := time.Now()
		profs := core.TrainFeedBatch(cfg, feed, window, schemes)
		d := time.Since(t0)
		sink.finish(d)
		for k, i := range idx {
			c := &mine[i]
			c.f.prof = profs[k]
			x.persistProfile(c.key, profs[k])
			// Each spec's profile span carries the shared pass duration:
			// the schemes trained together, none resolved faster alone.
			x.noteProfile(c.key, c.spec.Bench, "trained", d)
			close(c.f.done)
		}
	}
}

// Plan returns the edit plan of a profile at the job's delta (Runtime),
// replanning from the memoized shaken histograms when the delta differs
// from the configuration's.
func (x *executor) Plan(prof *core.Profile, delta float64) *edit.Plan {
	if delta == 0 || delta == x.eng.Cfg.DeltaPct {
		return prof.Plan
	}
	return core.Replan(prof, delta)
}
