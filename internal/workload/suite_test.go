package workload

import (
	"bytes"
	"sync"
	"testing"

	"repro/internal/isa"
)

// builtNames lists the entries of t that have been built.
func builtNames(t *table) []string {
	var out []string
	for i, b := range t.built {
		if b != nil {
			out = append(out, t.specs[i].Name)
		}
	}
	return out
}

func TestByNameBuildsOnlyTheNamedBenchmark(t *testing.T) {
	tab := newTable(Specs())
	if tab.byName("nonexistent") != nil {
		t.Fatal("unknown name returned a benchmark")
	}
	if got := builtNames(tab); len(got) != 0 {
		t.Fatalf("unknown name built %v", got)
	}
	b := tab.byName("adpcm_decode")
	if b == nil || b.Name() != "adpcm_decode" {
		t.Fatalf("ByName(adpcm_decode) = %v", b)
	}
	if got := builtNames(tab); len(got) != 1 || got[0] != "adpcm_decode" {
		t.Fatalf("built %v, want only adpcm_decode", got)
	}
	if tab.byName("adpcm_decode") != b {
		t.Fatal("second lookup rebuilt the benchmark")
	}
	if !Known("gzip") || Known("nonexistent") {
		t.Fatal("Known disagrees with the suite")
	}
}

// TestLazyBuildMatchesSuiteOrder builds benchmarks alone, in reverse
// suite order, on a fresh table and checks them against the suite built
// in order: same windows and byte-identical recorded streams on both
// inputs. art covers a Special builder.
func TestLazyBuildMatchesSuiteOrder(t *testing.T) {
	eager := map[string]*Benchmark{}
	for _, b := range Suite() {
		eager[b.Name()] = b
	}
	tab := newTable(Specs())
	for _, name := range []string{"art", "mpeg2_decode", "adpcm_decode"} {
		got, want := tab.byName(name), eager[name]
		if got == want {
			t.Fatalf("%s: fresh table returned the suite's benchmark", name)
		}
		if got.TrainWindow != want.TrainWindow || got.RefWindow != want.RefWindow {
			t.Fatalf("%s: windows %d/%d, suite order gives %d/%d",
				name, got.TrainWindow, got.RefWindow, want.TrainWindow, want.RefWindow)
		}
		for _, in := range []string{"train", "ref"} {
			gi, gw := got.Input(in)
			wi, ww := want.Input(in)
			a := isa.EncodePacked(isa.RecordPackedSized(got.Prog, gi, gw))
			b := isa.EncodePacked(isa.RecordPackedSized(want.Prog, wi, ww))
			if !bytes.Equal(a, b) {
				t.Fatalf("%s %s: stream differs from the suite-order build (%d vs %d bytes)", name, in, len(a), len(b))
			}
		}
	}
}

// TestConcurrentByName has goroutines look up the four small benchmarks
// in different orders on a fresh table: each name must resolve to one
// benchmark, the same one the table's suite returns.
func TestConcurrentByName(t *testing.T) {
	var specs []Spec
	for _, s := range Specs() {
		switch s.Name {
		case "adpcm_decode", "adpcm_encode", "g721_decode", "g721_encode":
			specs = append(specs, s)
		}
	}
	tab := newTable(specs)
	const goroutines = 8
	got := make([][]*Benchmark, goroutines)
	start := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			<-start
			got[g] = make([]*Benchmark, len(specs))
			for k := range specs {
				// Rotate the starting point and flip direction so the
				// goroutines race on different names first.
				i := (g + k) % len(specs)
				if g%2 == 1 {
					i = len(specs) - 1 - i
				}
				got[g][i] = tab.byName(specs[i].Name)
			}
		}(g)
	}
	close(start)
	wg.Wait()
	all := tab.suite()
	for g := range got {
		for i, b := range got[g] {
			if b == nil || b != all[i] {
				t.Fatalf("goroutine %d: %s resolved to %p, suite has %p", g, specs[i].Name, b, all[i])
			}
		}
	}
}
