package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"repro/internal/sweep"
)

// Grids. adpcm_decode trains fastest and mpeg2_decode is the suite's
// training-mismatch case. The five-benchmark grid takes ~27 s per cold
// sweep on a 2-CPU host, which leaves no room for repetitions inside
// one run; two benchmarks keep a cold sweep near 7 s and a replan sweep
// near 5 s, so each run medians three or more repetitions.
var (
	trainBenches  = []string{"adpcm_decode", "mpeg2_decode"}
	trainSchemes  = []string{"L+F", "F"}
	replanBenches = []string{"adpcm_decode", "mpeg2_decode"}
	// replanDeltas leaves out 1.75, the configuration's default: a job
	// at the default delta keys like the template's own jobs.
	replanDeltas = []float64{0.5, 0.75, 1, 1.25, 1.5, 2, 2.25, 2.5, 2.75, 3, 3.5, 4, 4.5, 5}
	allPolicies  = []string{"baseline", "single_clock", "online", "offline", "global", "scheme"}
)

// writeManifest stores a manifest as JSON under the run's work dir.
func writeManifest(o *options, name string, m sweep.Manifest) (string, error) {
	m.Schema = sweep.ManifestSchema
	m.Seed = o.seed
	b, err := json.MarshalIndent(m, "", " ")
	if err != nil {
		return "", err
	}
	p := filepath.Join(o.work, name+".json")
	return p, os.WriteFile(p, b, 0o644)
}

// runSummary is the summary line `mcdsweep run -v` prints.
type runSummary struct {
	sweep.Summary
	Phases *sweep.PhaseBreakdown `json:"phases"`
}

// sweepRun is one `mcdsweep run` over a manifest into a cache directory.
func sweepRun(o *options, manifest, cache string) (childRun, runSummary, error) {
	var sum runSummary
	run, err := runChild(o, "mcdsweep", "run", "-manifest", manifest, "-cache", cache, "-v")
	if err != nil {
		return run, sum, err
	}
	if err := json.Unmarshal(lastLine(run.stdout), &sum); err != nil {
		return run, sum, fmt.Errorf("mcdsweep run summary: %v", err)
	}
	if sum.Phases == nil {
		return run, sum, fmt.Errorf("mcdsweep run summary has no phases")
	}
	return run, sum, nil
}

func lastLine(b []byte) []byte {
	b = bytes.TrimSpace(b)
	if i := bytes.LastIndexByte(b, '\n'); i >= 0 {
		return b[i+1:]
	}
	return b
}

// merges returns the default (segment-first streaming) merge and the
// oracle (per-job JSON) merge of a cache directory: the two functions
// `mcdsweep merge` and `mcdsweep merge -oracle` call.
func merges(manifest, cache string) (def, oracle []byte, err error) {
	m, err := sweep.LoadManifest(manifest)
	if err != nil {
		return nil, nil, err
	}
	cfg := m.Config()
	jobs, err := m.Jobs()
	if err != nil {
		return nil, nil, err
	}
	src := sweep.SourceFor(cache)
	if err := sweep.MergeCheck(cfg, jobs, src); err != nil {
		return nil, nil, err
	}
	var buf bytes.Buffer
	if err := sweep.MergeTo(&buf, cfg, jobs, src); err != nil {
		return nil, nil, err
	}
	oracle, err = sweep.MergeBytes(cfg, jobs, &sweep.Cache{Dir: cache})
	return buf.Bytes(), oracle, err
}

// mergedRow is one row of merged output.
type mergedRow struct {
	Key     string        `json:"key"`
	Job     sweep.Job     `json:"job"`
	Outcome sweep.Outcome `json:"outcome"`
}

// simMetrics averages one policy's rows against the same benchmark's
// baseline: slowdown is simulated time over baseline time, energy saving
// is the share of baseline energy not spent.
func simMetrics(rows []mergedRow, policy string) (slowdown, saving float64) {
	base := map[string]sweep.Outcome{}
	n := 0
	for _, r := range rows {
		if r.Job.Policy == sweep.PolicyBaseline {
			base[r.Job.Bench] = r.Outcome
		}
	}
	for _, r := range rows {
		b, ok := base[r.Job.Bench]
		if r.Job.Policy != policy || !ok || b.Res.TimePs == 0 || b.Res.EnergyPJ == 0 {
			continue
		}
		slowdown += 100 * (float64(r.Outcome.Res.TimePs)/float64(b.Res.TimePs) - 1)
		saving += 100 * (1 - r.Outcome.Res.EnergyPJ/b.Res.EnergyPJ)
		n++
	}
	if n > 0 {
		slowdown /= float64(n)
		saving /= float64(n)
	}
	return slowdown, saving
}

// corruptEntry rewrites one digit of the first per-job JSON result
// entry under cache, leaving the file valid JSON with a wrong value.
func corruptEntry(cache string) error {
	matches, _ := filepath.Glob(filepath.Join(cache, "??", "*.json"))
	if len(matches) == 0 {
		return fmt.Errorf("no result entry to corrupt under %s", cache)
	}
	b, err := os.ReadFile(matches[0])
	if err != nil {
		return err
	}
	i := bytes.Index(b, []byte(`"TimePs": `))
	if i < 0 {
		return fmt.Errorf("no TimePs in %s", matches[0])
	}
	d := i + len(`"TimePs": `)
	b[d] = '1' + (b[d]-'0')%8 // a different non-zero leading digit
	return os.WriteFile(matches[0], b, 0o644)
}

// batchGate checks one repetition: job errors, the workload's
// preconditions, default merge == oracle merge, and the merged digest
// equal to the first repetition's. It returns the merged rows of a
// passing repetition.
func batchGate(o *options, m *measurement, manifest, cache string, jobs int, sum runSummary, pre func(runSummary) error) []mergedRow {
	m.attempted += jobs
	if sum.Errors > 0 {
		m.fail(jobs, "%d job errors", sum.Errors)
		return nil
	}
	if err := pre(sum); err != nil {
		m.fail(jobs, "precondition: %v", err)
		return nil
	}
	if o.corrupt {
		if err := corruptEntry(cache); err != nil {
			m.fail(jobs, "corrupt hook: %v", err)
			return nil
		}
	}
	def, oracle, err := merges(manifest, cache)
	if err != nil {
		m.fail(jobs, "merge: %v", err)
		return nil
	}
	if !bytes.Equal(def, oracle) {
		m.fail(jobs, "default merge differs from the -oracle merge")
		return nil
	}
	h := sha256.Sum256(def)
	digest := hex.EncodeToString(h[:])
	if m.digest == "" {
		m.digest = digest
	} else if digest != m.digest {
		m.fail(jobs, "merged digest %s differs from the first repetition's %s", digest[:12], m.digest[:12])
		return nil
	}
	var rows []mergedRow
	if err := json.Unmarshal(def, &rows); err != nil {
		m.fail(jobs, "merged output: %v", err)
		return nil
	}
	return rows
}

// minReps is the fewest repetitions a batch run medians over.
const minReps = 3

// setups is how many times each workload sets up in a run; setup_s is
// their median.
const setups = 3

// repeat runs rep minReps times (twice in tiny mode, enough to compare
// digests), then more while one more of the last one's length still
// fits in the measured phase's seconds.
func repeat(o *options, rep func() error) error {
	reps := minReps
	if o.tiny {
		reps = 2
	}
	start := time.Now()
	var last time.Duration
	for i := 0; i < reps || time.Since(start)+last <= time.Duration(o.seconds*float64(time.Second)); i++ {
		t := time.Now()
		if err := rep(); err != nil {
			return err
		}
		last = time.Since(t)
	}
	return nil
}

// counters records a run summary's exact counters.
func recordCounters(m *measurement, sum runSummary) {
	m.counters = map[string]float64{
		"sweep.executed":        float64(sum.Executed),
		"sweep.trained":         float64(sum.Phases.Trained),
		"sweep.artifact_hits":   float64(sum.Phases.ArtifactHits),
		"sweep.stream_hits":     float64(sum.Phases.StreamHits),
		"sweep.stream_records":  float64(sum.Phases.StreamRecords),
		"sweep.segment_hits":    float64(sum.SegmentHits),
		"sweep.mem_hits":        float64(sum.MemHits),
		"sweep.corrupt_entries": float64(sum.CorruptEntries),
	}
}

func addSample(m *measurement, r childRun) {
	m.wallS = append(m.wallS, r.wallS)
	m.cpuS = append(m.cpuS, r.cpuS)
	m.rssMiB = append(m.rssMiB, r.rssMiB)
	m.stealPct = append(m.stealPct, r.stealPct)
	// A batch workload's sweep is the whole run.
	m.latencyMS = append(m.latencyMS, 1000*r.wallS)
}

// trainCold measures one cold `mcdsweep run` per repetition: every
// store starts empty, so the run records streams, trains every profile
// and simulates every job. Set-up validates the manifest and counts its
// jobs with `mcdsweep enum`.
func trainCold(o *options) (*measurement, error) {
	m := &measurement{benches: trainBenches, schemes: trainSchemes}
	man := sweep.Manifest{Name: "perfbench-train-cold", Benchmarks: trainBenches, Policies: allPolicies, Schemes: trainSchemes}
	if o.tiny {
		man.Benchmarks, man.Policies, man.Schemes = []string{"adpcm_decode"}, []string{"baseline", "offline", "scheme"}, []string{"L+F"}
		m.benches, m.schemes = man.Benchmarks, man.Schemes
	}
	var manifest string
	var jobs int
	for i := 0; i < setups; i++ {
		t := time.Now()
		var err error
		if manifest, err = writeManifest(o, "train-cold", man); err != nil {
			return nil, err
		}
		run, err := runChild(o, "mcdsweep", "enum", "-manifest", manifest)
		if err != nil {
			return nil, err
		}
		jobs = bytes.Count(run.stdout, []byte("\n"))
		m.setupS = append(m.setupS, time.Since(t).Seconds())
	}
	// Per benchmark, one profile per scheme on the training input plus
	// the off-line oracle's profile on the reference input (both grids
	// have the offline and scheme policies).
	wantTrained := len(man.Benchmarks) * (1 + len(man.Schemes))
	pre := func(s runSummary) error {
		if s.Jobs != jobs || s.Executed != jobs {
			return fmt.Errorf("jobs=%d executed=%d, want %d executed of %d", s.Jobs, s.Executed, jobs, jobs)
		}
		if s.Phases.Trained != int64(wantTrained) {
			return fmt.Errorf("trained=%d, want %d", s.Phases.Trained, wantTrained)
		}
		return nil
	}
	n := 0
	err := repeat(o, func() error {
		n++
		cache := filepath.Join(o.work, fmt.Sprintf("cold-%d", n))
		defer os.RemoveAll(cache)
		run, sum, err := sweepRun(o, manifest, cache)
		if err != nil {
			m.attempted += jobs
			m.fail(jobs, "%v", err)
			return nil
		}
		addSample(m, run)
		recordCounters(m, sum)
		if rows := batchGate(o, m, manifest, cache, jobs, sum, pre); rows != nil && n == 1 {
			m.slowdown, m.saving = simMetrics(rows, sweep.PolicyScheme)
			m.simRows = "scheme rows vs baseline"
			m.work = batchWork(rows, sum)
		}
		return nil
	})
	return m, err
}

// replanWarm measures `mcdsweep run` over a threshold-delta grid whose
// profiles and packed streams were trained into a template in set-up:
// each repetition copies only artifacts/ and streams/ into a fresh
// directory, so the run trains nothing and records nothing, and every
// job replans from a stored profile and replays a stored stream.
func replanWarm(o *options) (*measurement, error) {
	m := &measurement{benches: replanBenches, schemes: []string{"L+F"}, deltas: replanDeltas}
	tmpl := sweep.Manifest{Name: "perfbench-replan-template", Benchmarks: replanBenches, Policies: []string{"offline", "scheme"}, Schemes: []string{"L+F"}}
	if o.tiny {
		tmpl.Benchmarks = []string{"adpcm_decode"}
		m.benches, m.deltas = tmpl.Benchmarks, []float64{1, 2}
	}
	delta := tmpl
	delta.Name = "perfbench-replan-warm"
	delta.Policies = []string{"baseline", "offline", "scheme"}
	delta.Deltas = m.deltas

	var template string
	for i := 0; i < setups; i++ {
		t := time.Now()
		tm, err := writeManifest(o, "replan-template", tmpl)
		if err != nil {
			return nil, err
		}
		dir := filepath.Join(o.work, fmt.Sprintf("template-%d", i))
		if _, _, err := sweepRun(o, tm, dir); err != nil {
			return nil, err
		}
		m.setupS = append(m.setupS, time.Since(t).Seconds())
		if template != "" {
			os.RemoveAll(template)
		}
		template = dir
	}
	manifest, err := writeManifest(o, "replan-warm", delta)
	if err != nil {
		return nil, err
	}
	jobs := len(delta.Benchmarks) * (1 + 2*len(delta.Deltas))
	pre := func(s runSummary) error {
		p := s.Phases
		if s.Executed != jobs {
			return fmt.Errorf("executed=%d, want %d", s.Executed, jobs)
		}
		if p.Trained != 0 || p.StreamRecords != 0 || p.ArtifactHits == 0 || p.StreamHits == 0 {
			return fmt.Errorf("trained=%d stream_records=%d artifact_hits=%d stream_hits=%d, want 0, 0, >0, >0",
				p.Trained, p.StreamRecords, p.ArtifactHits, p.StreamHits)
		}
		return nil
	}
	n := 0
	err = repeat(o, func() error {
		n++
		cache := filepath.Join(o.work, fmt.Sprintf("replan-%d", n))
		defer os.RemoveAll(cache)
		for _, sub := range []string{"artifacts", "streams"} {
			if err := copyTree(filepath.Join(template, sub), filepath.Join(cache, sub)); err != nil {
				return err
			}
		}
		run, sum, err := sweepRun(o, manifest, cache)
		if err != nil {
			m.attempted += jobs
			m.fail(jobs, "%v", err)
			return nil
		}
		addSample(m, run)
		recordCounters(m, sum)
		if rows := batchGate(o, m, manifest, cache, jobs, sum, pre); rows != nil && n == 1 {
			m.slowdown, m.saving = simMetrics(rows, sweep.PolicyScheme)
			m.simRows = "scheme rows (all deltas) vs baseline"
			m.work = batchWork(rows, sum)
		}
		return nil
	})
	return m, err
}

// batchWork counts one repetition's work by layer, for attributing its
// CPU time (one mcdsweep process) to layer costs.
func batchWork(rows []mergedRow, sum runSummary) workCounts {
	w := workCounts{
		processes:     1,
		executed:      sum.Executed,
		trained:       int(sum.Phases.Trained),
		artifactHits:  int(sum.Phases.ArtifactHits),
		streamHits:    int(sum.Phases.StreamHits),
		streamRecords: int(sum.Phases.StreamRecords),
		rows:          len(rows),
	}
	for _, r := range rows {
		w.simInstrs += r.Outcome.Res.Instructions
		if r.Job.Policy == sweep.PolicyOffline || r.Job.Policy == sweep.PolicyScheme {
			w.replans++
		}
	}
	return w
}
