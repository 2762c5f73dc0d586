package main

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"repro/internal/artifact"
	"repro/internal/calltree"
	"repro/internal/core"
	"repro/internal/edit"
	"repro/internal/isa"
	"repro/internal/profiler"
	"repro/internal/serve"
	"repro/internal/shaker"
	"repro/internal/sim"
	"repro/internal/sweep"
	"repro/internal/trace"
	"repro/internal/workload"
)

// workCounts is one repetition's work by layer, taken from the run's
// summary and merged output; with the layer costs it attributes the
// workload's CPU time.
type workCounts struct {
	processes                                        int // CLI processes whose CPU the sample counts
	executed, trained, artifactHits                  int
	streamHits, streamRecords, rows, replans, sweeps int
	simInstrs                                        int64
}

// span is one timed call into a layer. Spans of one benchmark or one
// served sweep share Job; Parent is 0 for a root.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Job    string `json:"job"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory; the probe is single-threaded, so spans
// of one parent never overlap and self time is the span's duration
// minus its children's.
type tracer struct {
	t0    time.Time
	base  int // span IDs start above it, so passes written to one file stay unique
	spans []span
	units map[string]float64 // work done per span name, in the metric's unit
}

func newTracer(base int) *tracer {
	return &tracer{t0: time.Now(), base: base, units: map[string]float64{}}
}

// do times fn as a span and returns fn's error.
func (t *tracer) do(parent int, job, name string, fn func(id int) error) error {
	i := len(t.spans)
	id := t.base + i + 1
	t.spans = append(t.spans, span{ID: id, Parent: parent, Job: job, Name: name, Start: int64(time.Since(t.t0))})
	err := fn(id)
	t.spans[i].End = int64(time.Since(t.t0))
	return err
}

// self sums the self time (seconds) of every span with the name.
func (t *tracer) self(name string) float64 {
	child := make(map[int]int64)
	for _, s := range t.spans {
		if s.Parent != 0 {
			child[s.Parent] += s.End - s.Start
		}
	}
	var ns int64
	for _, s := range t.spans {
		if s.Name == name {
			ns += s.End - s.Start - child[s.ID]
		}
	}
	return float64(ns) / 1e9
}

// count is how many spans carry the name.
func (t *tracer) count(name string) float64 {
	n := 0
	for _, s := range t.spans {
		if s.Name == name {
			n++
		}
	}
	return float64(n)
}

// per is a layer's self time per unit of its work, scaled to the
// metric's unit (1e9 for ns, 1e6 for us, 1e3 for ms).
func (t *tracer) per(name string, scale float64) float64 {
	u := t.units[name]
	if u == 0 {
		u = t.count(name)
	}
	if u == 0 {
		return 0
	}
	return scale * t.self(name) / u
}

// write appends the spans to w as NDJSON.
func (t *tracer) write(w io.Writer) error {
	enc := json.NewEncoder(w)
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			return err
		}
	}
	return nil
}

// withProcs runs fn with GOMAXPROCS set to n.
func withProcs(n int, fn func()) {
	prev := runtime.GOMAXPROCS(n)
	defer runtime.GOMAXPROCS(prev)
	fn()
}

// probe calls each layer's public functions on the workload's
// benchmarks, one call at a time, with a span around every call.
type probe struct {
	o     *options
	m     *measurement
	t     *tracer
	cfg   core.Config
	dir   string
	rows  []sweep.Merged
	plans map[string]*edit.Plan // first scheme's plan per benchmark
}

func (p *probe) run() error {
	return p.t.do(0, "", "probe", func(root int) error {
		if err := p.build(root); err != nil {
			return err
		}
		for _, name := range p.m.benches {
			b := workload.ByName(name)
			if b == nil {
				return fmt.Errorf("unknown benchmark %s", name)
			}
			if err := p.t.do(root, name, "bench", func(id int) error { return p.bench(id, b) }); err != nil {
				return err
			}
		}
		if err := p.results(root); err != nil {
			return err
		}
		return p.serve(root)
	})
}

// build times the benchmark suite's construction, the start-up cost
// every command pays.
func (p *probe) build(root int) error {
	return p.t.do(root, "", "workload.build", func(int) error {
		for _, s := range workload.Specs() {
			workload.Build(s)
		}
		return nil
	})
}

func (p *probe) bench(parent int, b *workload.Benchmark) error {
	t, job := p.t, b.Name()
	streams := sweep.StreamStoreFor(p.dir)
	var train, ref *isa.PackedStream
	for _, onRef := range []bool{false, true} {
		in, window := b.Train, b.TrainWindow
		if onRef {
			in, window = b.Ref, b.RefWindow
		}
		var s *isa.PackedStream
		var enc []byte
		t.do(parent, job, "isa.record", func(int) error { s = isa.RecordPackedSized(b.Prog, in, window); return nil })
		n := float64(s.Instructions())
		t.units["isa.record"] += n
		t.do(parent, job, "isa.encode", func(int) error { enc = isa.EncodePacked(s); return nil })
		t.units["isa.encode"] += n
		t.units["isa.bytes"] += float64(len(enc))
		if err := t.do(parent, job, "isa.decode", func(int) error { _, err := isa.DecodePacked(enc); return err }); err != nil {
			return err
		}
		t.units["isa.decode"] += n
		key := sweep.StreamKey(b, onRef)
		if err := t.do(parent, job, "sweep.stream_put", func(int) error { return streams.Put(key, s) }); err != nil {
			return err
		}
		if err := t.do(parent, job, "sweep.stream_load", func(int) error {
			if _, st := streams.Load(key); st != sweep.StreamHit {
				return fmt.Errorf("stream %s did not load back", job)
			}
			return nil
		}); err != nil {
			return err
		}
		if onRef {
			ref = s
		} else {
			train = s
		}
	}
	if err := p.train(parent, b, train); err != nil {
		return err
	}
	return p.simulate(parent, b, ref)
}

// train splits one training into its layers (profile, collect, shake),
// then times whole trainings at GOMAXPROCS 1 and 2.
func (p *probe) train(parent int, b *workload.Benchmark, s *isa.PackedStream) error {
	t, job, cfg := p.t, b.Name(), p.cfg
	topo := cfg.Sim.Topo()
	var schemes []calltree.Scheme
	for _, name := range p.m.schemes {
		sc, ok := calltree.SchemeByName(name)
		if !ok {
			return fmt.Errorf("unknown scheme %s", name)
		}
		schemes = append(schemes, sc)
	}
	window := b.TrainWindow
	if n := s.Instructions(); n < window {
		window = n
	}
	var tree *calltree.Tree
	t.do(parent, job, "profiler.profile", func(int) error {
		tree = profiler.ProfileFeed(s, window, schemes[0])
		return nil
	})
	t.units["profiler.profile"] += float64(window)
	var segs []*trace.Segment
	t.do(parent, job, "trace.collect", func(int) error {
		c := trace.NewCollector(tree, cfg.MaxInstances, cfg.MaxEvents, func(seg *trace.Segment) { segs = append(segs, seg) })
		c.SetTopology(topo)
		m := sim.New(cfg.Sim)
		m.SetTracer(c)
		m.SetMarkerSink(c)
		s.Feed(&isa.CountingConsumer{Inner: m, Budget: window})
		c.Close()
		return nil
	})
	t.units["trace.collect"] += float64(window)
	events := 0
	for _, seg := range segs {
		events += len(seg.Events)
	}
	t.units["trace.segments"] += float64(len(segs))
	t.units["trace.events"] += float64(events)
	scfg := shaker.ConfigFor(cfg.Shaker, topo)
	t.do(parent, job, "shaker.shake", func(int) error {
		r := shaker.NewRunner(scfg)
		for _, seg := range segs {
			r.Run(seg)
		}
		return nil
	})
	t.units["shaker.shake"] += float64(events)
	for _, w := range []int{1, 2} {
		name := fmt.Sprintf("shaker.pool_p%d", w)
		withProcs(w, func() {
			t.do(parent, job, name, func(int) error {
				pool := shaker.NewPool(scfg, w)
				seq := pool.NewSeq()
				for _, seg := range segs {
					seq.Shake(seg, nil, func(*shaker.DomainHists) {})
				}
				seq.Close()
				pool.Close()
				return nil
			})
		})
	}
	// The one-scheme synchronous training the three layers above make up.
	one := cfg
	one.TrainWorkers = 1
	withProcs(1, func() {
		t.do(parent, job, "core.train_one_p1", func(int) error { core.TrainFeed(one, s, window, schemes[0]); return nil })
	})
	t.units["core.train_profiles"] += float64(len(schemes))
	var profs []*core.Profile
	for _, w := range []int{1, 2} {
		c := cfg
		c.TrainWorkers = w
		withProcs(w, func() {
			t.do(parent, job, fmt.Sprintf("core.train_p%d", w), func(int) error {
				profs = core.TrainFeedBatch(c, s, window, schemes)
				return nil
			})
		})
	}
	store := sweep.ArtifactStore(p.dir)
	for i, prof := range profs {
		key := artifact.ProfileKey(cfg, job, schemes[i].Name, b.Train.Name, window)
		var enc []byte
		var err error
		t.do(parent, job, "core.profile_encode", func(int) error { enc, err = core.EncodeProfile(prof); return err })
		if err != nil {
			return err
		}
		if err := t.do(parent, job, "artifact.put", func(int) error { return store.Put(key, artifact.KindProfile, enc) }); err != nil {
			return err
		}
		var raw json.RawMessage
		if err := t.do(parent, job, "artifact.load", func(int) error {
			var st artifact.Status
			if raw, st = store.Load(key, artifact.KindProfile); st != artifact.Hit {
				return fmt.Errorf("profile %s did not load back", key[:12])
			}
			return nil
		}); err != nil {
			return err
		}
		var dec *core.Profile
		if err := t.do(parent, job, "core.profile_decode", func(int) error { dec, err = core.DecodeProfile(raw); return err }); err != nil {
			return err
		}
		deltas := p.m.deltas
		if len(deltas) == 0 {
			deltas = []float64{cfg.DeltaPct}
		}
		for _, d := range deltas {
			t.do(parent, job, "core.replan", func(int) error { core.Replan(dec, d); return nil })
		}
		if i == 0 {
			p.plans[job] = core.Replan(dec, cfg.DeltaPct)
		}
	}
	return nil
}

// simulate times the production simulator three ways on the reference
// stream: a baseline run, an edited run, and one lockstep replay
// driving four lanes. The lanes' outcomes become the probe's result
// rows.
func (p *probe) simulate(parent int, b *workload.Benchmark, s *isa.PackedStream) error {
	t, job, cfg := p.t, b.Name(), p.cfg
	window := b.RefWindow
	var ms0, ms1 runtime.MemStats
	var res sim.Result
	runtime.ReadMemStats(&ms0)
	t.do(parent, job, "sim.baseline", func(int) error { res = core.RunBaselineFeed(cfg, s, window); return nil })
	runtime.ReadMemStats(&ms1)
	t.units["sim.baseline"] += float64(res.Instructions)
	t.units["sim.allocs"] += float64(ms1.Mallocs - ms0.Mallocs)
	t.do(parent, job, "sim.edited", func(int) error {
		res, _ = core.RunEditedFeed(cfg, s, window, p.plans[job], false)
		return nil
	})
	t.units["sim.edited"] += float64(res.Instructions)

	jobs := []sweep.Job{
		{Bench: job, Policy: sweep.PolicyBaseline},
		{Bench: job, Policy: sweep.PolicySingleClock, MHz: 500},
		{Bench: job, Policy: sweep.PolicyOnline, Aggressiveness: 0.5},
	}
	online := cfg
	online.Online.Aggressiveness = 0.5
	lanes := []*core.Lane{core.NewBaselineLane(cfg), core.NewSingleClockLane(cfg, 500), core.NewOnlineLane(online),
		core.NewEditedLane(cfg, p.plans[job], false)}
	sl := make([]isa.StreamLane, len(lanes))
	for i, l := range lanes {
		sl[i] = isa.StreamLane{Consumer: l.Consumer, Budget: window}
	}
	t.do(parent, job, "sim.lockstep", func(int) error {
		s.FeedLockstep(sl)
		for _, l := range lanes {
			l.Finish()
		}
		return nil
	})
	for i := range sl {
		t.units["sim.lockstep"] += float64(sl[i].Seen)
	}
	for i, j := range jobs {
		r, _ := lanes[i].Finish()
		p.rows = append(p.rows, sweep.Merged{Key: sweep.Key(cfg, j), Job: j, Outcome: &sweep.Outcome{Res: r}})
	}
	return nil
}

// results times the result stores and the merge over the probe's rows.
func (p *probe) results(parent int) error {
	t, cfg := p.t, p.cfg
	jobs := make([]sweep.Job, len(p.rows))
	for i, r := range p.rows {
		jobs[i] = r.Job
	}
	n := float64(len(p.rows))
	// Keys are cheap; time enough of them to read above the clock.
	const keyRounds = 200
	t.do(parent, "", "sweep.key", func(int) error {
		for i := 0; i < keyRounds; i++ {
			for _, j := range jobs {
				sweep.Key(cfg, j)
			}
		}
		return nil
	})
	t.units["sweep.key"] = keyRounds * n
	cache := &sweep.Cache{Dir: p.dir}
	if err := t.do(parent, "", "sweep.cache_put", func(int) error {
		for _, r := range p.rows {
			if err := cache.Put(r.Key, r.Job, r.Outcome); err != nil {
				return err
			}
		}
		return nil
	}); err != nil {
		return err
	}
	t.units["sweep.cache_put"] = n
	t.do(parent, "", "sweep.cache_get", func(int) error {
		for _, r := range p.rows {
			cache.Get(r.Key)
		}
		return nil
	})
	t.units["sweep.cache_get"] = n
	if err := t.do(parent, "", "sweep.segment_append", func(int) error {
		return sweep.SegmentStoreFor(p.dir).Append(p.rows)
	}); err != nil {
		return err
	}
	t.do(parent, "", "sweep.segment_get", func(int) error {
		segs := sweep.SegmentStoreFor(p.dir)
		for _, r := range p.rows {
			segs.Get(r.Key)
		}
		return nil
	})
	t.units["sweep.segment_get"] = n
	files, _ := filepath.Glob(filepath.Join(p.dir, sweep.SegmentSubdir, "*"))
	for _, f := range files {
		b, err := os.ReadFile(f)
		if err != nil {
			return err
		}
		var rows []sweep.Merged
		if err := t.do(parent, "", "colseg.decode", func(int) error {
			rows, err = sweep.DecodeSegmentRows(b)
			return err
		}); err != nil {
			return err
		}
		t.units["colseg.decode"] += float64(len(rows))
	}
	if err := t.do(parent, "", "sweep.merge", func(int) error {
		return sweep.MergeTo(io.Discard, cfg, jobs, sweep.SourceFor(p.dir))
	}); err != nil {
		return err
	}
	t.units["sweep.merge"] = n
	return nil
}

// serveSweeps is how many sweeps the in-process serve probe sends.
const serveSweeps = 200

// serve times the daemon's request path in process: submit, stream to
// the done line, and results, for distinct subsets of the probe's rows,
// and the heap each finished sweep leaves retained.
func (p *probe) serve(parent int) error {
	srv := serve.NewServer(p.dir, p.o.procs, 0)
	hs := httptest.NewServer(srv.Handler())
	defer func() {
		hs.Close()
		srv.Drain(context.Background())
	}()
	cl := newClient(hs.URL)
	rng := rand.New(rand.NewSource(p.o.seed))
	manifest := func() []byte {
		var m sweep.Manifest
		m.Seed = p.o.seed
		for len(m.Benchmarks) == 0 || len(m.Policies) == 0 {
			m.Benchmarks, m.Policies = nil, nil
			for _, b := range p.m.benches {
				if rng.Intn(2) == 0 {
					m.Benchmarks = append(m.Benchmarks, b)
				}
			}
			for _, pol := range []string{sweep.PolicyBaseline, sweep.PolicySingleClock, sweep.PolicyOnline} {
				if rng.Intn(2) == 0 {
					m.Policies = append(m.Policies, pol)
				}
			}
		}
		m.MHz, m.Aggressiveness = []int{500}, []float64{0.5}
		m.Name = fmt.Sprintf("probe-%d", rng.Int63())
		b, _ := json.Marshal(m)
		return b
	}
	// Warm up: the first sweep builds the engine and its memo.
	if _, err := runSweep(cl, manifest()); err != nil {
		return fmt.Errorf("serve probe warm-up: %v", err)
	}
	var ms0, ms1 runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&ms0)
	sub, str, res := make([]float64, 0, serveSweeps), make([]float64, 0, serveSweeps), make([]float64, 0, serveSweeps)
	for i := 0; i < serveSweeps; i++ {
		man := manifest()
		var r sweepReply
		var err error
		p.t.do(parent, fmt.Sprintf("sweep-%d", i), "serve.sweep", func(int) error { r, err = runSweep(cl, man); return nil })
		if r.rejected {
			p.t.units["serve.rejected"]++
		}
		if err != nil {
			return fmt.Errorf("serve probe: %v", err)
		}
		sub = append(sub, float64(r.submit)/1e6)
		str = append(str, float64(r.stream)/1e6)
		res = append(res, float64(r.fetch)/1e6)
	}
	runtime.GC()
	runtime.ReadMemStats(&ms1)
	p.t.units["serve.submit_p50"] = percentile(sub, 50)
	p.t.units["serve.stream_p50"] = percentile(str, 50)
	p.t.units["serve.results_p50"] = percentile(res, 50)
	p.t.units["serve.retained_kib"] = (float64(ms1.HeapAlloc) - float64(ms0.HeapAlloc)) / 1024 / serveSweeps
	// Manifest validation is part of every submission's server-side cost.
	man := manifest()
	const validations = 200
	p.t.do(parent, "", "sweep.validate", func(int) error {
		for i := 0; i < validations; i++ {
			m, verr := sweep.ParseManifest(man)
			if verr == nil {
				sweep.ValidateManifest(m)
			}
		}
		return nil
	})
	p.t.units["sweep.validate"] = validations
	return nil
}

// probePasses is how many times the probe runs; each per-layer figure
// is the median of its passes, since a single call of a short layer is
// at the mercy of the host's noise.
const probePasses = 3

// layerMetrics runs the traced in-process probe over the workload's
// inputs and reports every per-layer metric, plus the workload's exact
// counters and the share of its median CPU time no layer accounts for.
func layerMetrics(o *options, m *measurement) (map[string]metric, string, error) {
	spans := filepath.Join(o.root, ".bench_build", "spans", fmt.Sprintf("%s-seed%d.ndjson", o.workload, o.seed))
	if err := os.MkdirAll(filepath.Dir(spans), 0o755); err != nil {
		return nil, "", err
	}
	f, err := os.Create(spans)
	if err != nil {
		return nil, "", err
	}
	defer f.Close()
	passes := map[string][]float64{}
	units := map[string]string{}
	for pass := 0; pass < probePasses; pass++ {
		p := &probe{o: o, m: m, t: newTracer(pass * 1_000_000), cfg: (&sweep.Manifest{Seed: o.seed}).Config(),
			dir: filepath.Join(o.work, fmt.Sprintf("probe-%d", pass)), plans: map[string]*edit.Plan{}}
		if err := p.run(); err != nil {
			return nil, "", err
		}
		for name, v := range p.metrics(o, m) {
			passes[name] = append(passes[name], v.Value)
			units[name] = v.Unit
		}
		if err := p.t.write(f); err != nil {
			return nil, "", err
		}
	}
	out := map[string]metric{}
	for name, vs := range passes {
		out[name] = metric{median(vs), units[name]}
	}
	for _, c := range []string{"sweep.executed", "sweep.trained", "sweep.artifact_hits", "sweep.stream_hits",
		"sweep.segment_hits", "sweep.mem_hits", "sweep.corrupt_entries"} {
		out[c] = metric{m.counters[c], "count"}
	}
	out["serve.rejected"] = metric{out["serve.rejected"].Value + m.counters["serve.rejected"], "count"}
	// The simulated results are exact for a seed but move with it, so
	// they sit here, without a bound, rather than among the end-to-end
	// metrics the benchmark compares across seeds.
	out["sim_slowdown_pct"] = metric{m.slowdown, "%"}
	out["sim_energy_saving_pct"] = metric{m.saving, "%"}
	return out, spans, f.Close()
}

// metrics derives one pass's per-layer figures from its spans.
func (p *probe) metrics(o *options, m *measurement) map[string]metric {
	t := p.t
	return map[string]metric{
		"workload.build_s":               {t.self("workload.build"), "s"},
		"isa.record_ns_per_instr":        {t.per("isa.record", 1e9), "ns"},
		"isa.encode_ns_per_instr":        {t.per("isa.encode", 1e9), "ns"},
		"isa.decode_ns_per_instr":        {t.per("isa.decode", 1e9), "ns"},
		"isa.stream_bytes_per_instr":     {t.units["isa.bytes"] / t.units["isa.encode"], "B"},
		"profiler.ns_per_instr":          {t.per("profiler.profile", 1e9), "ns"},
		"trace.collect_ns_per_instr":     {t.per("trace.collect", 1e9), "ns"},
		"trace.segments":                 {t.units["trace.segments"], "count"},
		"trace.events":                   {t.units["trace.events"], "count"},
		"shaker.ns_per_event":            {t.per("shaker.shake", 1e9), "ns"},
		"shaker.pool_speedup_p2":         {t.self("shaker.pool_p1") / t.self("shaker.pool_p2"), "x"},
		"core.train_s":                   {t.self(fmt.Sprintf("core.train_p%d", min(o.procs, 2))), "s"},
		"core.train_scaling_p2":          {t.self("core.train_p1") / t.self("core.train_p2"), "x"},
		"core.train_unattributed_pct":    {100 * (1 - (t.self("profiler.profile")+t.self("trace.collect")+t.self("shaker.shake"))/t.self("core.train_one_p1")), "%"},
		"core.profile_decode_ms":         {t.per("core.profile_decode", 1e3), "ms"},
		"artifact.load_ms":               {t.per("artifact.load", 1e3), "ms"},
		"artifact.put_ms":                {t.per("artifact.put", 1e3), "ms"},
		"sweep.stream_load_ms":           {t.per("sweep.stream_load", 1e3), "ms"},
		"core.replan_us":                 {t.per("core.replan", 1e6), "us"},
		"sim.edited_ns_per_instr":        {t.per("sim.edited", 1e9), "ns"},
		"sim.lockstep_ns_per_lane_instr": {t.per("sim.lockstep", 1e9), "ns"},
		"sim.baseline_ns_per_instr":      {t.per("sim.baseline", 1e9), "ns"},
		"sim.instrs":                     {t.units["sim.baseline"], "count"},
		"sim.allocs_per_instr":           {t.units["sim.allocs"] / t.units["sim.baseline"], "allocs/instr"},
		"sweep.cache_put_us":             {t.per("sweep.cache_put", 1e6), "us"},
		"sweep.segment_append_ms":        {t.per("sweep.segment_append", 1e3), "ms"},
		"sweep.key_us":                   {t.per("sweep.key", 1e6), "us"},
		"sweep.cache_get_us":             {t.per("sweep.cache_get", 1e6), "us"},
		"sweep.segment_get_us":           {t.per("sweep.segment_get", 1e6), "us"},
		"colseg.decode_ns_per_row":       {t.per("colseg.decode", 1e9), "ns"},
		"sweep.merge_us_per_row":         {t.per("sweep.merge", 1e6), "us"},
		"serve.submit_ms_p50":            {t.units["serve.submit_p50"], "ms"},
		"serve.stream_ms_p50":            {t.units["serve.stream_p50"], "ms"},
		"serve.results_ms_p50":           {t.units["serve.results_p50"], "ms"},
		"serve.rejected":                 {t.units["serve.rejected"], "count"},
		"serve.retained_kib_per_sweep":   {t.units["serve.retained_kib"], "KiB"},
		"sweep.unattributed_cpu_pct":     {unattributedPct(t, m), "%"},
	}
}

// unattributedPct is the share of the workload's median CPU time that
// its work counts times the probed layer costs do not cover.
func unattributedPct(t *tracer, m *measurement) float64 {
	cpu := median(m.cpuS)
	if cpu == 0 {
		return 0
	}
	w := m.work
	perCall := func(name string) float64 {
		if c := t.count(name); c > 0 {
			return t.self(name) / c
		}
		return 0
	}
	perUnit := func(name string) float64 {
		if u := t.units[name]; u > 0 {
			return t.self(name) / u
		}
		return 0
	}
	// Per stream: record, encode and store.
	recordStream := perCall("isa.record") + perCall("isa.encode") + perCall("sweep.stream_put")
	// Per trained profile: the sequential batch training, per scheme.
	trainProfile := t.self("core.train_p1") / t.units["core.train_profiles"]
	attributed := float64(w.processes)*t.self("workload.build") +
		float64(w.streamRecords)*recordStream +
		float64(w.streamHits)*perCall("sweep.stream_load") +
		float64(w.trained)*trainProfile +
		float64(w.artifactHits)*(perCall("artifact.load")+perCall("core.profile_decode")) +
		float64(w.replans)*perCall("core.replan") +
		float64(w.simInstrs)*perUnit("sim.lockstep") +
		float64(w.executed)*(perUnit("sweep.cache_put")+perUnit("sweep.key")) +
		float64(w.sweeps)*perUnit("sweep.validate") +
		float64(w.rows)*(perUnit("sweep.key")+perUnit("sweep.merge"))
	return 100 * (cpu - attributed) / cpu
}
