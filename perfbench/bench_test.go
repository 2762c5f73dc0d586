package main

import (
	"bytes"
	"encoding/json"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
)

// definition is the part of BENCHMARK.json the tests check against.
type definition struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

func loadDefinition(t *testing.T) definition {
	t.Helper()
	b, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var d definition
	if err := json.Unmarshal(b, &d); err != nil {
		t.Fatal(err)
	}
	return d
}

// buildCommands builds mcdsweep and mcdserved from the repository root.
func buildCommands(t *testing.T) string {
	t.Helper()
	bin := t.TempDir()
	cmd := exec.Command("go", "build", "-o", bin+string(filepath.Separator), "./cmd/mcdsweep", "./cmd/mcdserved")
	cmd.Dir = ".."
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("build: %v\n%s", err, out)
	}
	return bin
}

// runTiny runs one workload in tiny mode and returns its result line.
func runTiny(t *testing.T, bin, workload string, trace, corrupt bool) result {
	t.Helper()
	o := options{root: "..", bin: bin, workload: workload, seed: 3, seconds: 1,
		trace: trace, tiny: true, corrupt: corrupt, procs: runtime.NumCPU()}
	var out bytes.Buffer
	if err := run(&o, &out); err != nil {
		t.Fatalf("%s: %v", workload, err)
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var res result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		t.Fatalf("%s: last line: %v", workload, err)
	}
	return res
}

// checkMetrics reports any named metric missing from res or carried
// with another unit, and any metric res has that the definition lacks.
func checkMetrics(t *testing.T, workload string, res result, want []struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}) {
	t.Helper()
	for _, w := range want {
		got, ok := res.Metrics[w.Name]
		if !ok {
			t.Errorf("%s: metric %s missing", workload, w.Name)
		} else if got.Unit != w.Unit {
			t.Errorf("%s: metric %s has unit %q, want %q", workload, w.Name, got.Unit, w.Unit)
		}
	}
	if len(res.Metrics) != len(want) {
		t.Errorf("%s: %d metrics, definition names %d", workload, len(res.Metrics), len(want))
	}
}

// TestTinyWorkloads runs every workload at tiny size, untraced and
// traced: each must pass its correctness gate and print every metric
// BENCHMARK.json names, with its unit.
func TestTinyWorkloads(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the repository's commands")
	}
	d := loadDefinition(t)
	bin := buildCommands(t)
	for _, w := range d.Workloads {
		for _, trace := range []bool{false, true} {
			res := runTiny(t, bin, w.Name, trace, false)
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s trace=%v: correct=%v attempted=%d failed=%d", w.Name, trace, res.Correct, res.Attempted, res.Failed)
			}
			if trace {
				checkMetrics(t, w.Name, res, d.PerLayer)
			} else {
				checkMetrics(t, w.Name, res, d.EndToEnd)
			}
		}
	}
}

// TestCorruptEntryFails damages one stored result in every workload and
// expects the run to report failed operations instead of a clean pass.
func TestCorruptEntryFails(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the repository's commands")
	}
	d := loadDefinition(t)
	bin := buildCommands(t)
	for _, w := range d.Workloads {
		res := runTiny(t, bin, w.Name, false, true)
		if res.Correct || res.Failed == 0 || res.Failed > res.Attempted {
			t.Errorf("%s: correct=%v attempted=%d failed=%d, want a failed operation", w.Name, res.Correct, res.Attempted, res.Failed)
		}
	}
}
