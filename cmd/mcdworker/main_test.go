package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"

	"repro/internal/serve"
	"repro/internal/sweep"
)

// TestMain lets the test binary impersonate mcdworker (the reexec style
// of cmd/mcdserved/main_test.go): with the marker set, run main() with
// the test binary's arguments, so the fault-injection test below drives
// real worker processes — flag parsing, signal handling and exit codes
// included.
func TestMain(m *testing.M) {
	if os.Getenv("MCDWORKER_REEXEC") == "1" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// worker is one reexec'd mcdworker under test.
type worker struct {
	cmd    *exec.Cmd
	stderr *lockedBuffer
}

// lockedBuffer is a bytes.Buffer that exec's stderr copy goroutine can
// write while the test reads the log so far.
type lockedBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *lockedBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *lockedBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

func startWorker(t *testing.T, serverURL, name string) *worker {
	t.Helper()
	cmd := exec.Command(os.Args[0], "-server", serverURL, "-name", name, "-cache", t.TempDir())
	cmd.Env = append(os.Environ(), "MCDWORKER_REEXEC=1")
	stderr := &lockedBuffer{}
	cmd.Stderr = stderr
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	w := &worker{cmd: cmd, stderr: stderr}
	t.Cleanup(func() {
		if w.cmd.ProcessState == nil {
			w.cmd.Process.Kill()
			w.cmd.Wait()
		}
	})
	return w
}

// metricValue scrapes one Prometheus series (full name, labels
// included) off the coordinator's /metrics.
func metricValue(t *testing.T, baseURL, series string) float64 {
	t.Helper()
	resp, err := http.Get(baseURL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var body bytes.Buffer
	body.ReadFrom(resp.Body)
	for _, line := range strings.Split(body.String(), "\n") {
		if rest, ok := strings.CutPrefix(line, series+" "); ok {
			v, err := strconv.ParseFloat(strings.TrimSpace(rest), 64)
			if err != nil {
				t.Fatalf("metric %s: %v", series, err)
			}
			return v
		}
	}
	return -1 // absent
}

// TestFleetFaultInjection is the end-to-end lease-protocol test: a
// coordinator and two real mcdworker processes run the CI smoke grid,
// one worker is SIGKILLed mid-lease, and the run must still converge —
// the orphaned anchor group is expired and reassigned, every job
// completes, each profile is trained (persisted to the coordinator's
// artifact store) exactly once fleet-wide, and the merged results are
// byte-identical to a single-node run of the same manifest.
func TestFleetFaultInjection(t *testing.T) {
	if testing.Short() {
		t.Skip("real-simulation fleet test (tens of seconds); skipped with -short")
	}

	m := sweep.Manifest{
		Name:       "fault-injection",
		Benchmarks: []string{"adpcm_decode", "gzip", "mcf"},
		Policies:   []string{"baseline", "single_clock", "online", "offline", "global", "scheme"},
		Schemes:    []string{"L+F"},
	}
	manifest, err := json.Marshal(m)
	if err != nil {
		t.Fatal(err)
	}
	cfg := m.Config()
	jobs, verr := sweep.ValidateManifest(&m)
	if verr != nil {
		t.Fatal(verr)
	}
	const wantTrainings = 6 // per bench: one off-line reference profile + one L+F scheme profile

	// The single-node reference runs concurrently in-process; its merge
	// bytes are the identity baseline the fleet must reproduce.
	var refBytes []byte
	var refErr error
	var refWG sync.WaitGroup
	refWG.Add(1)
	go func() {
		defer refWG.Done()
		dir := t.TempDir()
		eng := sweep.New(cfg)
		eng.Cache = &sweep.Cache{Dir: dir}
		eng.Artifacts = sweep.ArtifactStore(dir)
		if _, _, err := eng.Run(context.Background(), jobs); err != nil {
			refErr = err
			return
		}
		refBytes, refErr = sweep.MergeBytes(cfg, jobs, eng.Cache)
	}()

	srv := serve.NewServer(t.TempDir(), 2, 0)
	srv.EnableFleet(serve.FleetConfig{
		LeaseTTL:    1500 * time.Millisecond,
		Poll:        200 * time.Millisecond,
		MaxAttempts: 5,
	})
	ts := httptest.NewServer(srv.Handler())
	defer func() {
		// A failed wait leaves the sweep's request open, and the workers
		// cannot finish it once the listener is closed, so Close alone
		// would wait on that connection forever.
		ts.CloseClientConnections()
		ts.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		srv.Drain(ctx)
	}()
	client := &serve.Client{BaseURL: ts.URL}

	victim := startWorker(t, ts.URL, "workerA")

	type result struct {
		st  *serve.Status
		err error
	}
	done := make(chan result, 1)
	go func() {
		st, err := client.RunManifest(manifest, nil)
		done <- result{st, err}
	}()

	// SIGKILL the victim the moment it holds a lease: the first lease is
	// cold (real simulation, hundreds of milliseconds at minimum), so
	// polling every 20ms is guaranteed to catch it mid-work.
	deadline := time.Now().Add(30 * time.Second)
	for metricValue(t, ts.URL, "mcdserved_fleet_leases_active") < 1 {
		if time.Now().After(deadline) {
			t.Fatalf("workerA never took a lease; its log:\n%s", victim.stderr.String())
		}
		time.Sleep(20 * time.Millisecond)
	}
	if err := victim.cmd.Process.Signal(syscall.SIGKILL); err != nil {
		t.Fatal(err)
	}
	victim.cmd.Wait()
	t.Logf("killed workerA mid-lease; log so far:\n%s", victim.stderr.String())

	survivor := startWorker(t, ts.URL, "workerB")

	var res result
	select {
	case res = <-done:
	case <-time.After(3 * time.Minute):
		t.Fatalf("fleet sweep did not converge; survivor log:\n%s", survivor.stderr.String())
	}
	if res.err != nil {
		t.Fatalf("fleet sweep: %v", res.err)
	}
	if res.st.State != serve.StateComplete {
		t.Fatalf("state %s (%s)", res.st.State, res.st.Error)
	}
	if res.st.Summary.Errors != 0 {
		t.Fatalf("summary %+v: jobs failed despite reassignment", res.st.Summary)
	}

	// The orphaned lease must have expired and its group been reassigned.
	if v := metricValue(t, ts.URL, `mcdserved_fleet_leases_total{event="expired"}`); v < 1 {
		t.Fatalf("expired leases = %v, want >= 1", v)
	}
	if v := metricValue(t, ts.URL, `mcdserved_fleet_leases_total{event="reassigned"}`); v < 1 {
		t.Fatalf("reassigned leases = %v, want >= 1", v)
	}
	if v := metricValue(t, ts.URL, "mcdserved_fleet_workers"); v != 2 {
		t.Fatalf("registered workers = %v, want 2", v)
	}
	// Train-once, fleet-wide: the coordinator's artifact store holds one
	// write per unique profile, no matter how the kill and the
	// reassignment interleaved (re-uploads are deduplicated by key).
	if v := metricValue(t, ts.URL, "mcdserved_artifact_writes_total"); v != wantTrainings {
		t.Fatalf("coordinator artifact writes = %v, want %d (one per unique profile)", v, wantTrainings)
	}

	fleetBytes, err := client.Results(res.st.ID)
	if err != nil {
		t.Fatal(err)
	}
	refWG.Wait()
	if refErr != nil {
		t.Fatalf("single-node reference run: %v", refErr)
	}
	if !bytes.Equal(fleetBytes, refBytes) {
		t.Fatalf("fleet merge differs from single-node merge (%d vs %d bytes)", len(fleetBytes), len(refBytes))
	}

	// Graceful shutdown: SIGTERM must exit 0 after abandoning cleanly.
	if err := survivor.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	if err := survivor.cmd.Wait(); err != nil {
		t.Fatalf("survivor exit: %v; log:\n%s", err, survivor.stderr.String())
	}
	if !strings.Contains(survivor.stderr.String(), "bye") {
		t.Fatalf("survivor did not say bye:\n%s", survivor.stderr.String())
	}
}

// TestWorkerRequiresServer covers the CLI contract without a fleet:
// missing -server is a usage error on stderr with exit status 1.
func TestWorkerRequiresServer(t *testing.T) {
	cmd := exec.Command(os.Args[0])
	cmd.Env = append(os.Environ(), "MCDWORKER_REEXEC=1")
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	err := cmd.Run()
	var ee *exec.ExitError
	if !errors.As(err, &ee) || ee.ExitCode() != 1 {
		t.Fatalf("exit: %v, want status 1", err)
	}
	if !strings.Contains(stderr.String(), "missing -server") {
		t.Fatalf("stderr %q does not explain the missing flag", stderr.String())
	}
}

// TestWorkerRefusesNonCoordinator asserts a worker pointed at a plain
// (non -fleet) daemon fails fast with the structured fleet_disabled
// error instead of retrying forever.
func TestWorkerRefusesNonCoordinator(t *testing.T) {
	srv := serve.NewServer(t.TempDir(), 1, 0)
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	cmd := exec.Command(os.Args[0], "-server", ts.URL, "-name", "lost")
	cmd.Env = append(os.Environ(), "MCDWORKER_REEXEC=1")
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	err := cmd.Run()
	var ee *exec.ExitError
	if !errors.As(err, &ee) || ee.ExitCode() != 1 {
		t.Fatalf("exit: %v, want status 1; stderr:\n%s", err, stderr.String())
	}
	if !strings.Contains(stderr.String(), "fleet_disabled") {
		t.Fatalf("stderr %q does not carry fleet_disabled", stderr.String())
	}
}
