package sweep

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/artifact"
	"repro/internal/core"
	"repro/internal/obs"
)

// Source reports where an outcome came from.
type Source int

const (
	// SourceExecuted means the job was simulated by this call.
	SourceExecuted Source = iota
	// SourceDisk means the outcome was loaded from the persistent cache.
	SourceDisk
	// SourceMemory means the outcome was already memoized in process
	// (including waiting on a concurrent duplicate execution).
	SourceMemory
)

func (s Source) String() string {
	switch s {
	case SourceExecuted:
		return "executed"
	case SourceDisk:
		return "disk"
	default:
		return "memory"
	}
}

// Summary aggregates one batch's cache behavior. Executed and DiskHits
// count engine-wide work performed while the batch ran — including
// dependency jobs resolved inline (e.g. the global policy's off-line
// run) — so Executed is exactly the number of simulations the batch
// triggered and is zero iff the whole sweep was served from cache.
// MemHits counts batch jobs answered by the in-process memo (including
// joining an execution another job started), so the three counters can
// sum to more than Jobs when dependencies span jobs. CorruptEntries
// counts persistent entries — result-cache and artifact-store alike —
// that existed but could not be used (truncated, unreadable, stale
// schema, or stored under a mismatched key); each was treated as a miss
// and overwritten, and the first offending path was logged.
type Summary struct {
	Jobs     int `json:"jobs"`
	MemHits  int `json:"mem_hits"`
	DiskHits int `json:"disk_hits"`
	// SegmentHits counts the subset of DiskHits served from the columnar
	// segment layer (no JSON decode); every segment hit is also a disk
	// hit, so existing disk-hit accounting is unchanged by segments.
	SegmentHits int `json:"segment_hits"`
	// StreamHits counts benchmark streams loaded from the on-disk
	// packed-stream cache instead of re-recorded by a generating walk.
	StreamHits     int `json:"stream_hits,omitempty"`
	Executed       int `json:"executed"`
	Errors         int `json:"errors"`
	CorruptEntries int `json:"corrupt_entries"`
}

// String renders the summary as one log-friendly line.
func (s Summary) String() string {
	return fmt.Sprintf("jobs=%d mem_hits=%d disk_hits=%d segment_hits=%d stream_hits=%d executed=%d errors=%d corrupt_entries=%d",
		s.Jobs, s.MemHits, s.DiskHits, s.SegmentHits, s.StreamHits, s.Executed, s.Errors, s.CorruptEntries)
}

// Engine executes sweep jobs against one configuration with in-process
// memoization, optional persistent caching, and a bounded worker pool.
// All methods are safe for concurrent use.
type Engine struct {
	// Cfg is the pipeline configuration every job runs under (job
	// fields override individual knobs); it is part of every cache key.
	Cfg core.Config
	// Workers bounds Run's concurrency; 0 means GOMAXPROCS.
	Workers int
	// RecordingCache bounds how many recorded benchmark streams the
	// executor retains (each is ~13 B/instruction); 0 sizes it
	// automatically from Workers. Batched execution reserves extra slots
	// for the streams its anchor group replays, so grids never thrash
	// the cache into re-recording mid-batch. Set before first use.
	RecordingCache int
	// Cache, when non-nil, persists outcomes across processes.
	Cache *Cache
	// Artifacts, when non-nil, persists intermediate pipeline products
	// (trained profiles) across processes, so a fleet sharing one store
	// directory trains each profile once total and threshold sweeps
	// replan from stored histograms instead of retraining.
	Artifacts *artifact.Store
	// Segments, when non-nil, layers the columnar result store over the
	// JSON cache: lookups consult segments first (one decoded column set
	// answers thousands of keys), completed and JSON-served rows are
	// buffered per Run and sealed into one new segment when the batch
	// ends. Segments are derived data — the JSON cache remains the
	// canonical byte-identity oracle and answers whenever a segment is
	// absent or damaged.
	Segments *SegmentStore
	// Streams, when non-nil, persists recorded packed benchmark streams
	// across processes (the streams/ subdirectory of a shared cache
	// directory): a cold engine loads ~13 B/instruction entries instead
	// of re-running the generating walks. Streams are keyed by benchmark
	// spec + input only — the walk is configuration-independent — so one
	// store serves every config and topology. Corrupt entries count into
	// Summary.CorruptEntries and are rewritten from a fresh walk.
	Streams *StreamStore
	// ExecFn, when non-nil, replaces the built-in execution step of the
	// one job path — resolve dependencies, open the lane, feed it — for
	// cache-missed jobs; flight claims, cache lookups, persistence and
	// segment buffering run as usual (tests use this to count executions
	// without running the simulator).
	ExecFn func(Job) (*Outcome, error)
	// Trace, when non-nil, records span-level phase timing into a
	// bounded ring (internal/obs): one span per job plus spans for each
	// resolution phase (stream decode, profile resolve, training,
	// shaking, collection, lockstep simulation, cache writes, segment
	// seal). Off by default; spans attach at job and phase boundaries
	// only — the per-instruction simulation loops carry no tracing code
	// at all — and span data never enters result-cache, artifact,
	// stream, or engine keys (Trace is an execution knob like
	// core.Config.TrainWorkers, machine-checked by the
	// traced-vs-untraced byte-identity tests). Set before first use.
	Trace *obs.Tracer
	// Log receives the engine's structured store warnings (corrupt
	// entries, persistence failures); nil logs to obs.Default (stderr).
	// Set before first use.
	Log *obs.Logger

	execOnce sync.Once
	exec     *executor

	// width bounds how many lanes one lockstep pass steps together; 0
	// means autoBatchWidth. Outcomes do not depend on it.
	width int

	// nExecuted, nDisk and nCorrupt count resolutions engine-wide; Run
	// reports them as before/after deltas so dependency jobs are
	// attributed to the batch that triggered them, independent of which
	// worker (or nested Do) got there first. phases accumulates
	// wall-clock per pipeline phase the same way (see Phases).
	nExecuted atomic.Int64
	nDisk     atomic.Int64
	nSegment  atomic.Int64
	nStream   atomic.Int64
	nCorrupt  atomic.Int64
	phases    phaseCounters

	// segMu guards segBuf, the rows waiting to be sealed into the next
	// segment file when the current Run finishes.
	segMu  sync.Mutex
	segBuf []Merged

	mu     sync.Mutex
	flight map[string]*flight
}

// flight is a singleflight slot: the first caller of a key executes,
// concurrent callers wait on done and share the outcome.
type flight struct {
	done chan struct{}
	out  *Outcome
	err  error
}

// New returns an engine over cfg with no persistent cache.
func New(cfg core.Config) *Engine {
	return &Engine{Cfg: cfg, flight: make(map[string]*flight)}
}

// logger resolves the engine's warning channel (obs.Default when the
// Log field is unset).
func (e *Engine) logger() *obs.Logger {
	if e.Log != nil {
		return e.Log
	}
	return obs.Default
}

// noteCorrupt records one unusable persistent entry and warns once per
// offending path: corruption is handled as a miss, but it should never
// be silent — a recurring count points at a damaged shared directory.
func (e *Engine) noteCorrupt(path string) {
	e.nCorrupt.Add(1)
	e.logger().WarnOnce(path, "corrupt cache entry, treated as a miss and rewritten",
		"store", "results", "path", path)
}

// warnPersist reports, once per engine, that results or artifacts are
// not landing on disk (full disk, lost permission); completed work
// stays memoized in process and a later merge names any jobs that
// never persisted.
func (e *Engine) warnPersist(err error) {
	e.logger().WarnOnce("sweep:persist", "results not persisting", "err", err)
}

// executor returns the built-in policy executor, creating it on first
// use.
func (e *Engine) executor() *executor {
	e.execOnce.Do(func() {
		e.exec = newExecutor(e)
	})
	return e.exec
}

// Profile resolves one trained profile through the engine's profile
// memo and artifact store, training it if necessary. The returned
// profile's Plan is built at the engine configuration's delta; use
// core.Replan for other deltas.
func (e *Engine) Profile(spec ProfileSpec) (*core.Profile, error) {
	return e.executor().profile(spec)
}

// Do returns the outcome of one job, consulting the in-process memo,
// then the persistent cache, then executing. It is a wave of one
// through the same path Run uses; concurrent calls for the same key
// share a single execution.
func (e *Engine) Do(job Job) (*Outcome, Source, error) {
	if err := job.Validate(); err != nil {
		return nil, SourceMemory, err
	}
	var out *Outcome
	var src Source
	var err error
	e.runWave(context.TODO(), []Job{job}, []int{0}, func(_ int, _ string, o *Outcome, s Source, _ time.Duration, er error) {
		out, src, err = o, s, er
	})
	return out, src, err
}

// notePersist accounts one result-cache write in the phase breakdown
// and, when tracing, as a "persist" span.
func (e *Engine) notePersist(key string, job Job, d time.Duration, err error) {
	e.phases.persistNS.Add(int64(d))
	if tr := e.Trace; tr != nil {
		outcome := "written"
		if err != nil {
			outcome = "error"
		}
		tr.Emit(obs.Span{
			Key:     key,
			Phase:   "persist",
			Policy:  job.Policy,
			Bench:   job.Bench,
			Outcome: outcome,
			StartNS: tr.Now() - int64(d),
			DurNS:   int64(d),
		})
	}
}

// segmentLookup consults the columnar layer. A segment hit counts as a
// disk hit too (it is one — just a cheaper decode), so disk-hit
// assertions and summaries are unaffected by whether segments exist.
func (e *Engine) segmentLookup(key string) (*Outcome, bool) {
	if e.Segments == nil {
		return nil, false
	}
	out, ok := e.Segments.Get(key)
	if ok {
		e.nSegment.Add(1)
		e.nDisk.Add(1)
	}
	return out, ok
}

// bufferSegRow queues one completed row for the columnar layer; Run
// seals the batch's buffered rows into one segment file when it ends.
func (e *Engine) bufferSegRow(key string, job Job, out *Outcome) {
	if e.Segments == nil {
		return
	}
	e.segMu.Lock()
	e.segBuf = append(e.segBuf, Merged{Key: key, Job: job, Outcome: out})
	e.segMu.Unlock()
}

// flushSegments seals the buffered rows into one new segment file
// (rows already indexed are skipped inside Append). Persistence
// failures warn once, like JSON cache writes: the canonical entries
// are already on disk, a missing segment only costs speed.
func (e *Engine) flushSegments() {
	if e.Segments == nil {
		return
	}
	e.segMu.Lock()
	rows := e.segBuf
	e.segBuf = nil
	e.segMu.Unlock()
	if len(rows) == 0 {
		return
	}
	start := time.Now()
	err := e.Segments.Append(rows)
	d := time.Since(start)
	e.phases.sealNS.Add(int64(d))
	if tr := e.Trace; tr != nil {
		outcome := "sealed"
		if err != nil {
			outcome = "error"
		}
		tr.Emit(obs.Span{
			Phase:   "seal",
			Outcome: outcome,
			StartNS: tr.Now() - int64(d),
			DurNS:   int64(d),
		})
	}
	if err != nil {
		e.warnPersist(err)
	}
}

// RunOption configures one Run call.
type RunOption func(*runConfig)

type runConfig struct {
	onDone func(JobDone)
	pool   *WorkerPool
}

// WithOnDone streams per-job completions: fn is invoked once per job in
// completion order, as each finishes. Callbacks are serialized (never
// concurrent) but run on worker goroutines, so they must not block for
// long.
func WithOnDone(fn func(JobDone)) RunOption {
	return func(rc *runConfig) { rc.onDone = fn }
}

// WithPool dispatches the call's work onto a shared worker pool instead
// of per-call workers (nil, or an absent option, keeps per-call
// workers).
func WithPool(p *WorkerPool) RunOption {
	return func(rc *runConfig) { rc.pool = p }
}

// autoBatchWidth is the default lockstep width: wide enough to cover
// the paper's policy grids per benchmark, narrow enough that the live
// machines' state stays modest.
const autoBatchWidth = 32

// laneWidth resolves the engine's lockstep width.
func (e *Engine) laneWidth() int {
	if e.width > 0 {
		return e.width
	}
	return autoBatchWidth
}

// Run resolves a batch of jobs and returns their outcomes in input
// order plus a summary of cache behavior. Individual job failures leave
// a nil outcome at that index; the joined error reports all of them.
// Options select streaming callbacks (WithOnDone) and the worker pool
// (WithPool). Jobs sharing a benchmark resolve together, stepped in
// lockstep from one decoded stream; jobs on different benchmarks run
// concurrently. A canceled ctx fails jobs that have not started with
// ctx.Err(); work already in flight completes and is cached normally.
func (e *Engine) Run(ctx context.Context, jobs []Job, opts ...RunOption) ([]*Outcome, Summary, error) {
	rc := runConfig{}
	for _, o := range opts {
		o(&rc)
	}

	outs := make([]*Outcome, len(jobs))
	srcs := make([]Source, len(jobs))
	errs := make([]error, len(jobs))
	exec0, disk0, corrupt0 := e.nExecuted.Load(), e.nDisk.Load(), e.nCorrupt.Load()
	seg0, stream0 := e.nSegment.Load(), e.nStream.Load()
	var segCorrupt0 int64
	if e.Segments != nil {
		segCorrupt0 = e.Segments.CorruptRows()
	}

	var cbMu sync.Mutex
	report := func(i int, key string, out *Outcome, src Source, elapsed time.Duration, err error) {
		outs[i], srcs[i], errs[i] = out, src, err
		if tr := e.Trace; tr != nil {
			outcome := src.String()
			if err != nil {
				outcome = "error"
			}
			tr.Emit(obs.Span{
				Key:     key,
				Phase:   "job",
				Policy:  jobs[i].Policy,
				Bench:   jobs[i].Bench,
				Outcome: outcome,
				StartNS: tr.Now() - int64(elapsed),
				DurNS:   int64(elapsed),
			})
		}
		if rc.onDone != nil {
			d := JobDone{
				Index:   i,
				Job:     jobs[i],
				Key:     key,
				Outcome: out,
				Source:  src,
				Elapsed: elapsed,
				Err:     err,
			}
			cbMu.Lock()
			rc.onDone(d)
			cbMu.Unlock()
		}
	}
	// Jobs that fail validation report here; every other job resolves
	// inside its benchmark's anchor group, one schedulable unit each.
	groups, invalid := planBatches(e.Cfg, jobs)
	for _, i := range invalid {
		report(i, "", nil, SourceMemory, 0, jobs[i].Validate())
	}
	units := make([]func(), len(groups))
	for k, g := range groups {
		units[k] = func() { e.runGroup(ctx, jobs, g, report) }
	}

	var wg sync.WaitGroup
	if rc.pool != nil {
		for _, u := range units {
			u := u
			wg.Add(1)
			rc.pool.Submit(func() {
				defer wg.Done()
				u()
			})
		}
	} else {
		workers := e.Workers
		if workers <= 0 {
			workers = runtime.GOMAXPROCS(0)
		}
		if workers > len(units) {
			workers = len(units)
		}
		ch := make(chan func())
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for u := range ch {
					u()
				}
			}()
		}
		for _, u := range units {
			ch <- u
		}
		close(ch)
	}
	wg.Wait()
	e.flushSegments()

	sum := Summary{
		Jobs:           len(jobs),
		Executed:       int(e.nExecuted.Load() - exec0),
		DiskHits:       int(e.nDisk.Load() - disk0),
		SegmentHits:    int(e.nSegment.Load() - seg0),
		StreamHits:     int(e.nStream.Load() - stream0),
		CorruptEntries: int(e.nCorrupt.Load() - corrupt0),
	}
	if e.Segments != nil {
		sum.CorruptEntries += int(e.Segments.CorruptRows() - segCorrupt0)
	}
	for i := range jobs {
		switch {
		case errs[i] != nil:
			sum.Errors++
		case srcs[i] == SourceMemory:
			sum.MemHits++
		}
	}
	return outs, sum, errors.Join(errs...)
}

// JobDone reports one finished job to Run's WithOnDone callback.
type JobDone struct {
	// Index is the job's position in the submitted batch.
	Index int
	// Job is the batch job, as submitted.
	Job Job
	// Key is the job's content-addressed cache key under the engine
	// configuration; empty when the job failed validation.
	Key string
	// Outcome is the resolved outcome; nil when Err is non-nil.
	Outcome *Outcome
	// Source reports which layer answered: memo, disk, or execution.
	Source Source
	// Elapsed is the wall time resolution took, dependency work
	// (trainings, prerequisite jobs) included.
	Elapsed time.Duration
	// Err is the job's resolution error, if any.
	Err error
}

// Merged pairs one job with its cached outcome for merge output.
type Merged struct {
	Key     string   `json:"key"`
	Job     Job      `json:"job"`
	Outcome *Outcome `json:"outcome"`
}

// MergeBytes renders Merge's result in the one canonical serialization
// every merge surface emits — `mcdsweep merge` files and the daemon's
// results endpoint alike — so "byte-identical merged output" is an
// invariant of this function, not of call sites staying in sync.
func MergeBytes(cfg core.Config, jobs []Job, c *Cache) ([]byte, error) {
	merged, err := Merge(cfg, jobs, c)
	if err != nil {
		return nil, err
	}
	b, err := json.MarshalIndent(merged, "", " ")
	if err != nil {
		return nil, err
	}
	return append(b, '\n'), nil
}

// Merge collects the outcomes of a full job set from the persistent
// cache, independent of which shard (or process) computed each one, and
// returns them sorted by key so the merged result of an N-way sharded
// sweep is byte-identical to an unsharded run of the same manifest. Any
// job missing from the cache is an error naming the missing work.
func Merge(cfg core.Config, jobs []Job, c *Cache) ([]Merged, error) {
	var out []Merged
	var missing []error
	seen := make(map[string]bool, len(jobs))
	for _, j := range jobs {
		key := Key(cfg, j)
		if seen[key] {
			continue
		}
		seen[key] = true
		o, ok := c.Get(key)
		if !ok {
			missing = append(missing, fmt.Errorf("sweep: merge: %s (%s) not in cache", j, key[:12]))
			continue
		}
		out = append(out, Merged{Key: key, Job: j, Outcome: o})
	}
	if len(missing) > 0 {
		return nil, errors.Join(missing...)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Key < out[j].Key })
	return out, nil
}
