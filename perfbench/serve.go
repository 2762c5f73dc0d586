package main

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"repro/internal/serve"
	"repro/internal/sweep"
)

// The serve-warm grid needs no training: baselines, a single-clock
// frequency ladder and on-line controller settings. No point equals the
// configuration's default (1000 MHz, aggressiveness 1), so every job
// has its own key and a subset's rows are byte-for-byte rows of the
// full grid's merge.
var (
	serveBenches = []string{"adpcm_decode", "mpeg2_decode"}
	serveMHz     = []int{300, 400, 500, 600, 700, 800, 900, 950}
	serveAggr    = []float64{0.5, 0.75, 1.25, 1.5, 2}
	// servePerSecond sizes the fixed request count: sweeps per second of
	// -seconds, summed over both clients. Two clients complete ~1000
	// warm sweeps a second on a 2-CPU host, so the phase lasts about
	// half of -seconds. The count is fixed, not timed, so the daemon's
	// retained memory (peak_rss_mib) does not depend on its speed.
	servePerSecond = 500
)

const serveClients = 2

// jobID identifies one job of the warm grid.
type jobID struct {
	Bench, Policy string
	MHz           int
	Aggr          float64
}

func idOf(j sweep.Job) jobID { return jobID{j.Bench, j.Policy, j.MHz, j.Aggressiveness} }

// reference is the CLI merge of the warm grid, split into its rows.
type reference struct {
	raw map[jobID][]byte // the row's bytes as merge printed them
	key map[jobID]string
}

// parseReference splits a merged document into rows and checks that
// the rows reassemble into the same bytes.
func parseReference(b []byte) (*reference, error) {
	var rows []json.RawMessage
	if err := json.Unmarshal(b, &rows); err != nil {
		return nil, fmt.Errorf("reference merge: %v", err)
	}
	r := &reference{raw: map[jobID][]byte{}, key: map[jobID]string{}}
	var ids []jobID
	for _, row := range rows {
		var mr mergedRow
		if err := json.Unmarshal(row, &mr); err != nil {
			return nil, fmt.Errorf("reference row: %v", err)
		}
		id := idOf(mr.Job)
		if _, dup := r.raw[id]; dup {
			return nil, fmt.Errorf("reference: job %v twice", id)
		}
		r.raw[id], r.key[id] = row, mr.Key
		ids = append(ids, id)
	}
	if !bytes.Equal(r.expect(ids), b) {
		return nil, fmt.Errorf("reference: rows do not reassemble into the merged document")
	}
	return r, nil
}

// expect is the merged document for a subset of the grid: its rows in
// key order, in merge's indentation.
func (r *reference) expect(ids []jobID) []byte {
	sort.Slice(ids, func(i, j int) bool { return r.key[ids[i]] < r.key[ids[j]] })
	var b bytes.Buffer
	b.WriteString("[\n ")
	for i, id := range ids {
		if i > 0 {
			b.WriteString(",\n ")
		}
		b.Write(r.raw[id])
	}
	b.WriteString("\n]\n")
	return b.Bytes()
}

// request is one generated sweep: its manifest and the digest of the
// results it must get back.
type request struct {
	manifest []byte
	want     [32]byte
}

// makeRequests draws n distinct random subsets of the warm grid.
func makeRequests(o *options, grid sweep.Manifest, ref *reference, n int) ([]request, error) {
	rng := rand.New(rand.NewSource(o.seed))
	seen := map[string]bool{}
	var reqs []request
	for draws := 0; len(reqs) < n; draws++ {
		pick := func(k int) []int { // a random non-empty subset of 0..k-1
			mask := 1 + rng.Intn(1<<k-1)
			var idx []int
			for i := 0; i < k; i++ {
				if mask&(1<<i) != 0 {
					idx = append(idx, i)
				}
			}
			return idx
		}
		m := sweep.Manifest{Name: "perfbench-serve", Schema: sweep.ManifestSchema, Seed: o.seed}
		for _, i := range pick(len(grid.Benchmarks)) {
			m.Benchmarks = append(m.Benchmarks, grid.Benchmarks[i])
		}
		for _, i := range pick(3) {
			switch i {
			case 0:
				m.Policies = append(m.Policies, sweep.PolicyBaseline)
			case 1:
				m.Policies = append(m.Policies, sweep.PolicySingleClock)
				for _, k := range pick(len(grid.MHz)) {
					m.MHz = append(m.MHz, grid.MHz[k])
				}
			case 2:
				m.Policies = append(m.Policies, sweep.PolicyOnline)
				for _, k := range pick(len(grid.Aggressiveness)) {
					m.Aggressiveness = append(m.Aggressiveness, grid.Aggressiveness[k])
				}
			}
		}
		b, err := json.Marshal(m)
		if err != nil {
			return nil, err
		}
		if seen[string(b)] {
			if draws > 100*n {
				return nil, fmt.Errorf("serve grid too small for %d distinct sweeps", n)
			}
			continue
		}
		seen[string(b)] = true
		var ids []jobID
		for _, bench := range m.Benchmarks {
			for _, p := range m.Policies {
				switch p {
				case sweep.PolicySingleClock:
					for _, f := range m.MHz {
						ids = append(ids, jobID{bench, p, f, 0})
					}
				case sweep.PolicyOnline:
					for _, a := range m.Aggressiveness {
						ids = append(ids, jobID{bench, p, 0, a})
					}
				default:
					ids = append(ids, jobID{bench, p, 0, 0})
				}
			}
		}
		reqs = append(reqs, request{manifest: b, want: sha256.Sum256(ref.expect(ids))})
	}
	return reqs, nil
}

// daemon is a running mcdserved child.
type daemon struct {
	cmd  *exec.Cmd
	url  string
	done chan error
}

// startDaemon boots mcdserved on an ephemeral port and waits for its
// listening line.
func startDaemon(o *options, cache string) (*daemon, error) {
	cmd := exec.Command(filepath.Join(o.bin, "mcdserved"), "-cache", cache, "-addr", "127.0.0.1:0")
	cmd.Dir = o.work
	cmd.Env = append(os.Environ(), "GOMAXPROCS="+strconv.Itoa(o.procs))
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	logf, err := os.Create(cache + ".log")
	if err != nil {
		return nil, err
	}
	defer logf.Close() // the child holds its own descriptor
	cmd.Stderr = logf
	out, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	d := &daemon{cmd: cmd, done: make(chan error, 1)}
	line, err := bufio.NewReader(out).ReadString('\n')
	go func() {
		io.Copy(io.Discard, out)
		d.done <- cmd.Wait()
	}()
	const marker = "listening on "
	i := strings.Index(line, marker)
	if err != nil || i < 0 {
		d.stop()
		return nil, fmt.Errorf("mcdserved did not report its address: %q %v", line, err)
	}
	d.url, _, _ = strings.Cut(line[i+len(marker):], " ")
	return d, nil
}

// stop drains the daemon with SIGTERM and waits for it to exit, killing
// it if the drain takes too long.
func (d *daemon) stop() {
	d.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-d.done:
	case <-time.After(20 * time.Second):
		d.cmd.Process.Kill()
		<-d.done
	}
}

// newClient is one closed-loop client: the repository's own daemon
// client, holding a single connection.
func newClient(base string) *serve.Client {
	tr := &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, DisableCompression: true}
	return &serve.Client{BaseURL: base, HTTP: &http.Client{Transport: tr}}
}

// sweepReply is one finished sweep as the client saw it.
type sweepReply struct {
	status                *serve.Status
	results               []byte
	submit, stream, fetch time.Duration
	rejected              bool // 429 or 503
}

// runSweep submits a manifest, follows its stream to the done line and
// fetches its merged results.
func runSweep(c *serve.Client, manifest []byte) (sweepReply, error) {
	var r sweepReply
	t0 := time.Now()
	st, err := c.Submit(manifest)
	r.submit = time.Since(t0)
	if err != nil {
		var ae *serve.APIError
		r.rejected = errors.As(err, &ae) &&
			(ae.StatusCode == http.StatusTooManyRequests || ae.StatusCode == http.StatusServiceUnavailable)
		return r, err
	}
	t1 := time.Now()
	st, err = c.Follow(st.ID, 0, nil)
	r.stream = time.Since(t1)
	if err != nil {
		return r, err
	}
	r.status = st
	if st.State != serve.StateComplete {
		return r, fmt.Errorf("sweep %s: state %s %s", st.ID, st.State, st.Error)
	}
	t2 := time.Now()
	r.results, err = c.Results(st.ID)
	r.fetch = time.Since(t2)
	return r, err
}

// serveWarm measures mcdserved answering warm sweeps: set-up fills a
// cache with a grid that needs no training, takes the CLI merge of it
// as the reference, boots the daemon on a copy of the cache and sends
// one warm-up sweep. The measured phase is a closed loop of two
// clients, one connection each, sending a fixed number of distinct
// random subsets of the grid.
func serveWarm(o *options) (*measurement, error) {
	// The grid trains nothing; the traced probe still times the training
	// layers on its benchmarks under the paper's L+F scheme.
	m := &measurement{benches: serveBenches, schemes: []string{"L+F"}}
	grid := sweep.Manifest{Name: "perfbench-serve-warm", Benchmarks: serveBenches,
		Policies: []string{sweep.PolicyBaseline, sweep.PolicySingleClock, sweep.PolicyOnline},
		MHz:      serveMHz, Aggressiveness: serveAggr}
	if o.tiny {
		grid.Benchmarks, grid.MHz, grid.Aggressiveness = []string{"adpcm_decode"}, []int{500, 800}, []float64{0.5}
		m.benches = grid.Benchmarks
	}
	jobs := len(grid.Benchmarks) * (1 + len(grid.MHz) + len(grid.Aggressiveness))

	var d *daemon
	var ref *reference
	var refBytes []byte
	defer func() {
		if d != nil {
			d.stop()
		}
	}()
	for i := 0; i < setups; i++ {
		if d != nil {
			d.stop()
			d = nil
		}
		t := time.Now()
		manifest, err := writeManifest(o, "serve-warm", grid)
		if err != nil {
			return nil, err
		}
		fill := filepath.Join(o.work, fmt.Sprintf("fill-%d", i))
		if _, sum, err := sweepRun(o, manifest, fill); err != nil {
			return nil, err
		} else if sum.Executed != jobs || sum.Errors != 0 || sum.Phases.Trained != 0 {
			return nil, fmt.Errorf("serve set-up: executed=%d errors=%d trained=%d, want %d, 0, 0", sum.Executed, sum.Errors, sum.Phases.Trained, jobs)
		}
		refPath := filepath.Join(o.work, "reference.json")
		if _, err := runChild(o, "mcdsweep", "merge", "-manifest", manifest, "-cache", fill, "-o", refPath); err != nil {
			return nil, err
		}
		if refBytes, err = os.ReadFile(refPath); err != nil {
			return nil, err
		}
		if ref, err = parseReference(refBytes); err != nil {
			return nil, err
		}
		served := filepath.Join(o.work, fmt.Sprintf("served-%d", i))
		if err := copyTree(fill, served); err != nil {
			return nil, err
		}
		if o.corrupt {
			if err := corruptEntry(served); err != nil {
				return nil, err
			}
			os.RemoveAll(filepath.Join(served, sweep.SegmentSubdir))
		}
		if d, err = startDaemon(o, served); err != nil {
			return nil, err
		}
		// The warm-up sweep pays the daemon's one-time program build.
		full, err := os.ReadFile(manifest)
		if err != nil {
			return nil, err
		}
		m.attempted++
		rep, err := runSweep(newClient(d.url), full)
		if err != nil {
			m.fail(1, "warm-up: %v", err)
		} else if !bytes.Equal(rep.results, refBytes) {
			m.fail(1, "warm-up results differ from the CLI merge")
		}
		m.setupS = append(m.setupS, time.Since(t).Seconds())
		os.RemoveAll(fill)
	}

	var rows []mergedRow
	if err := json.Unmarshal(refBytes, &rows); err != nil {
		return nil, err
	}
	m.slowdown, m.saving = simMetrics(rows, sweep.PolicyOnline)
	m.simRows = "online rows vs baseline (the serve grid trains nothing)"

	n := max(serveClients, int(o.seconds*float64(servePerSecond)))
	if o.tiny {
		n = min(n, 10) // the tiny grid has 15 distinct subsets
	}
	reqs, err := makeRequests(o, grid, ref, n)
	if err != nil {
		return nil, err
	}
	pid := d.cmd.Process.Pid
	cpu0, _, err := procStat(pid)
	if err != nil {
		return nil, err
	}
	s0 := readCPUStat()
	start := time.Now()
	replies := make([][]sweepReply, serveClients)
	errs := make([][]error, serveClients)
	lat := make([][]float64, serveClients)
	var wg sync.WaitGroup
	for c := 0; c < serveClients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			cl := newClient(d.url)
			for i := c; i < len(reqs); i += serveClients {
				t := time.Now()
				r, err := runSweep(cl, reqs[i].manifest)
				lat[c] = append(lat[c], float64(time.Since(t))/1e6)
				if err == nil && sha256.Sum256(r.results) != reqs[i].want {
					err = fmt.Errorf("results differ from the CLI merge rows")
				}
				if err == nil && (r.status.Summary == nil || r.status.Summary.Executed != 0) {
					err = fmt.Errorf("precondition: a warm sweep executed jobs")
				}
				r.results = nil
				replies[c] = append(replies[c], r)
				errs[c] = append(errs[c], err)
			}
		}(c)
	}
	wg.Wait()
	wall := time.Since(start).Seconds()
	cpu1, hwm, err := procStat(pid)
	if err != nil {
		return nil, err
	}
	m.wallS = []float64{wall}
	m.cpuS = []float64{cpu1 - cpu0}
	m.rssMiB = []float64{hwm}
	m.stealPct = []float64{stealPct(s0, readCPUStat())}

	m.counters = map[string]float64{}
	var w workCounts
	for c := range replies {
		m.latencyMS = append(m.latencyMS, lat[c]...)
		for i, r := range replies[c] {
			m.attempted++
			if errs[c][i] != nil {
				m.fail(1, "%v", errs[c][i])
			}
			if r.rejected {
				m.counters["serve.rejected"]++
			}
			w.sweeps++
			if r.status == nil {
				continue
			}
			if s := r.status.Summary; s != nil {
				m.counters["sweep.executed"] += float64(s.Executed)
				m.counters["sweep.segment_hits"] += float64(s.SegmentHits)
				m.counters["sweep.mem_hits"] += float64(s.MemHits)
				m.counters["sweep.corrupt_entries"] += float64(s.CorruptEntries)
				w.rows += s.Jobs
			}
			if p := r.status.Phases; p != nil {
				m.counters["sweep.trained"] += float64(p.Trained)
				m.counters["sweep.artifact_hits"] += float64(p.ArtifactHits)
				m.counters["sweep.stream_hits"] += float64(p.StreamHits)
				m.counters["sweep.stream_records"] += float64(p.StreamRecords)
			}
		}
	}
	m.work = w
	return m, nil
}
