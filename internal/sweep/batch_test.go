package sweep

import (
	"bytes"
	"context"
	"encoding/json"
	"io/fs"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/arch"
)

// TestBatchedMatchesSequential is the width-invariance gate: for every
// built-in topology, a full policy grid must come out identical three
// ways — stepped one lane at a time (width 1), stepped at the automatic
// lockstep width, and resolved job by job through Engine.Do (waves of
// one). Identical means the same per-job outcomes, the same
// result-cache entry bytes, the same artifact-store bytes, and the same
// executed/error counts. The width and the grouping are throughput
// choices only; any divergence here is a correctness bug, not a tuning
// matter.
func TestBatchedMatchesSequential(t *testing.T) {
	if testing.Short() {
		t.Skip("trains two profiles per topology, three times")
	}
	for _, name := range arch.TopologyNames() {
		t.Run(name, func(t *testing.T) {
			m := &Manifest{
				Benchmarks: []string{"g721_decode"},
				Policies:   Policies(),
				Schemes:    []string{"L+F"},
				Topology:   name,
			}
			jobs, err := m.Jobs()
			if err != nil {
				t.Fatal(err)
			}
			cfg := m.Config()
			engine := func(dir string) *Engine {
				eng := New(cfg)
				eng.Cache = &Cache{Dir: dir}
				eng.Artifacts = ArtifactStore(dir)
				return eng
			}
			run := func(dir string, width int) ([]*Outcome, Summary) {
				eng := engine(dir)
				eng.width = width
				outs, sum, err := eng.Run(context.Background(), jobs)
				if err != nil {
					t.Fatal(err)
				}
				return outs, sum
			}
			dirOne, dirAuto, dirDo := t.TempDir(), t.TempDir(), t.TempDir()
			oneOuts, oneSum := run(dirOne, 1)
			autoOuts, autoSum := run(dirAuto, 0)

			eng := engine(dirDo)
			doOuts := make([]*Outcome, len(jobs))
			doSum := Summary{Jobs: len(jobs)}
			for i, j := range jobs {
				out, _, err := eng.Do(j)
				if err != nil {
					doSum.Errors++
				}
				doOuts[i] = out
			}
			doSum.Executed = int(eng.nExecuted.Load())

			for i := range jobs {
				a, _ := json.Marshal(oneOuts[i])
				b, _ := json.Marshal(autoOuts[i])
				c, _ := json.Marshal(doOuts[i])
				if !bytes.Equal(a, b) || !bytes.Equal(a, c) {
					t.Errorf("%s: outcome diverged\nwidth 1 %s\nauto    %s\nDo      %s", jobs[i], a, b, c)
				}
			}
			for _, s := range []Summary{autoSum, doSum} {
				if s.Executed != oneSum.Executed || s.Errors != oneSum.Errors {
					t.Errorf("summary diverged: width 1 %+v vs %+v", oneSum, s)
				}
			}
			compareTrees(t, dirOne, dirAuto)
			compareTrees(t, dirOne, dirDo)
		})
	}
}

// compareTrees asserts two cache directories hold the same relative
// paths with the same bytes.
func compareTrees(t *testing.T, dirA, dirB string) {
	t.Helper()
	list := func(root string) map[string][]byte {
		files := make(map[string][]byte)
		err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
			if err != nil || d.IsDir() {
				return err
			}
			rel, _ := filepath.Rel(root, path)
			b, err := os.ReadFile(path)
			if err != nil {
				return err
			}
			files[rel] = b
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		return files
	}
	a, b := list(dirA), list(dirB)
	if len(a) != len(b) {
		t.Errorf("cache trees differ: %d vs %d files", len(a), len(b))
	}
	for rel, ab := range a {
		bb, ok := b[rel]
		if !ok {
			t.Errorf("second cache missing %s", rel)
			continue
		}
		if !bytes.Equal(ab, bb) {
			t.Errorf("cache entry %s differs between the two runs", rel)
		}
	}
	for rel := range b {
		if _, ok := a[rel]; !ok {
			t.Errorf("second cache has extra entry %s", rel)
		}
	}
}
