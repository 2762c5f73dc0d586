// Command perfbench is the repository benchmark. It measures three
// workloads end to end by driving the repository's own commands
// (mcdsweep, mcdserved) as child processes, and, with -trace 1, breaks
// the same inputs down layer by layer with in-process calls into each
// module's public functions.
//
// Run it through run.sh from the repository root, which builds the
// commands and this harness first:
//
//	bash perfbench/run.sh --workload train-cold --seed 1 --seconds 20 --trace 0
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics. The line before it is a
// diagnostic report: the environment (nproc, GOMAXPROCS, Go version,
// commit, CPU model, steal share), every per-repetition sample, sample
// counts and the merged-output digest.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"time"
)

// options is one invocation's settings.
type options struct {
	root     string  // repository root (the checkout)
	bin      string  // directory holding the built mcdsweep and mcdserved
	work     string  // scratch directory for this run, removed at exit
	workload string  // train-cold, replan-warm or serve-warm
	seed     int64   // sets the manifests' seed field and the request sequence
	seconds  float64 // how long the measured phase lasts
	trace    bool    // report per-layer metrics instead of end-to-end ones
	tiny     bool    // small grids, for the harness's own tests
	corrupt  bool    // damage one result entry, for the harness's own tests
	procs    int     // GOMAXPROCS given to every child process
}

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the final stdout line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// measurement is what a workload's measured phase produces.
type measurement struct {
	setupS    []float64 // one sample per set-up
	wallS     []float64 // one sample per repetition (batch) or the phase (serve)
	cpuS      []float64
	rssMiB    []float64
	stealPct  []float64 // host steal share during each sample
	latencyMS []float64 // per-sweep latency samples
	attempted int
	failed    int
	failures  []string // first few failure reasons, for the report
	slowdown  float64  // sim_slowdown_pct
	saving    float64  // sim_energy_saving_pct
	simRows   string   // which rows the two sim metrics average
	digest    string   // sha256 of the merged output
	counters  map[string]float64
	work      workCounts
	benches   []string
	schemes   []string
	deltas    []float64
}

// fail records one failed operation with its reason.
func (m *measurement) fail(n int, format string, args ...any) {
	m.failed += n
	if len(m.failures) < 8 {
		m.failures = append(m.failures, fmt.Sprintf(format, args...))
	}
}

var workloads = map[string]func(*options) (*measurement, error){
	"train-cold":  trainCold,
	"replan-warm": replanWarm,
	"serve-warm":  serveWarm,
}

func main() {
	var o options
	var traceFlag int
	flag.StringVar(&o.root, "root", ".", "repository root")
	flag.StringVar(&o.bin, "bin", "", "directory with the built mcdsweep and mcdserved binaries")
	flag.StringVar(&o.workload, "workload", "", "train-cold, replan-warm or serve-warm")
	flag.Int64Var(&o.seed, "seed", 1, "input seed")
	flag.Float64Var(&o.seconds, "seconds", 20, "measured-phase length in seconds")
	flag.IntVar(&traceFlag, "trace", 0, "1 reports per-layer metrics from a traced in-process run")
	flag.BoolVar(&o.tiny, "tiny", false, "tiny grids (the harness's own tests)")
	flag.BoolVar(&o.corrupt, "corrupt", false, "damage one result entry (the harness's own tests)")
	flag.Parse()
	o.trace = traceFlag == 1
	o.procs = runtime.NumCPU()
	if err := run(&o, os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

// run measures one workload and writes the report and the result line
// to out.
func run(o *options, out io.Writer) error {
	fn, ok := workloads[o.workload]
	if !ok {
		return fmt.Errorf("unknown workload %q", o.workload)
	}
	if o.bin == "" || o.seconds <= 0 {
		return fmt.Errorf("need -bin and a positive -seconds")
	}
	root, err := filepath.Abs(o.root)
	if err != nil {
		return err
	}
	o.root = root
	base := filepath.Join(root, ".bench_build", "work")
	if err := os.MkdirAll(base, 0o755); err != nil {
		return err
	}
	if o.work, err = os.MkdirTemp(base, o.workload+"-"); err != nil {
		return err
	}
	defer os.RemoveAll(o.work)

	env := readEnv(o)
	stat0 := readCPUStat()
	start := time.Now()
	m, err := fn(o)
	if err != nil {
		return err
	}
	env.StealPct = stealPct(stat0, readCPUStat())
	env.ElapsedS = time.Since(start).Seconds()

	res := result{Correct: m.failed == 0, Attempted: m.attempted, Failed: m.failed}
	var spansPath string
	if o.trace {
		lm, path, err := layerMetrics(o, m)
		if err != nil {
			return err
		}
		res.Metrics, spansPath = lm, path
	} else {
		res.Metrics = endToEnd(m)
	}
	if res.Attempted < 1 {
		return fmt.Errorf("no operation attempted")
	}
	printReport(out, o, env, m, spansPath)
	b, err := json.Marshal(res)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintln(out, string(b))
	return err
}

// endToEnd turns a measurement into the end-to-end metric set.
func endToEnd(m *measurement) map[string]metric {
	return map[string]metric{
		"setup_s":      {median(m.setupS), "s"},
		"wall_s":       {median(m.wallS), "s"},
		"cpu_s":        {median(m.cpuS), "s"},
		"peak_rss_mib": {median(m.rssMiB), "MiB"},
		"sweep_p50_ms": {percentile(m.latencyMS, 50), "ms"},
		"sweep_p95_ms": {percentile(m.latencyMS, 95), "ms"},
	}
}

// printReport writes the diagnostic line that precedes the result.
func printReport(out io.Writer, o *options, env envRecord, m *measurement, spansPath string) {
	rep := map[string]any{
		"report":   "perfbench",
		"workload": o.workload,
		"seed":     o.seed,
		"seconds":  o.seconds,
		"trace":    o.trace,
		"env":      env,
		"samples": map[string]any{
			"setup_s":      m.setupS,
			"wall_s":       m.wallS,
			"cpu_s":        m.cpuS,
			"peak_rss_mib": m.rssMiB,
			"steal_pct":    m.stealPct,
			"sweep_ms_n":   len(m.latencyMS),
		},
		"digest":   m.digest,
		"counters": m.counters,
		"failures": m.failures,
		"sim": map[string]any{
			"sim_slowdown_pct":           m.slowdown,
			"sim_energy_saving_pct":      m.saving,
			"rows":                       m.simRows,
			"paper_slowdown_pct":         7.0,
			"paper_operating_point_note": "the paper reports ~7% slowdown at its operating point (DeltaPct 1.75)",
			"validation":                 "stand-in benchmark suite is synthetic; simulated figures are not validated against hardware",
		},
	}
	if spansPath != "" {
		rep["spans"] = spansPath
	}
	b, err := json.Marshal(rep)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: report:", err)
		return
	}
	fmt.Fprintln(out, string(b))
}
