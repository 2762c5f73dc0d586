package workload

import (
	"sync"

	"repro/internal/isa"
)

// Specs returns the calibration specs for all 19 benchmarks, in the
// paper's Table 2/3/4 order. Tree category counts are derived from
// Table 3 (see DESIGN.md for the decomposition); mixes reflect each
// benchmark's published character; reuse fractions approximate the
// static-point collapse visible in Table 4.
func Specs() []Spec {
	media := func(name string, tree TreeSpec, mixes []*isa.Mix, reuse, loopFrac float64, containers, instances int, windows string) Spec {
		return Spec{
			Name: name, Tree: tree, Mixes: mixes,
			ReuseFrac: reuse, LoopFrac: loopFrac,
			Containers: containers, LeafInstances: instances,
			PaperWindows: windows,
		}
	}
	intMixes := []*isa.Mix{isa.IntHeavy, isa.Branchy, isa.IntHeavy}
	mediaMixes := []*isa.Mix{isa.IntHeavy, isa.Balanced, isa.Branchy}
	fpMixes := []*isa.Mix{isa.FPHeavy, isa.Stream, isa.Balanced}

	return []Spec{
		media("adpcm_decode", TreeSpec{CommonBothLR: 2, CommonPlain: 2},
			intMixes, 0, 0.5, 0, 8, "entire program (7.1M / 11.2M)"),
		media("adpcm_encode", TreeSpec{CommonBothLR: 2, CommonPlain: 2},
			intMixes, 0, 0.5, 0, 8, "entire program (8.3M / 13.3M)"),
		media("epic_decode", TreeSpec{CommonBothLR: 18, CommonPlain: 7},
			fpMixes, 0, 0.3, 2, 2, "entire program (9.6M / 10.6M)"),
		{
			Name:      "epic_encode",
			Tree:      TreeSpec{CommonBothLR: 65, CommonPlain: 26},
			Mixes:     []*isa.Mix{isa.FPHeavy, isa.Balanced, isa.MemBound},
			ReuseFrac: 0.56, LoopFrac: 0.25, Containers: 5, LeafInstances: 2,
			Special:      "epic_encode",
			PaperWindows: "entire program (52.9M / 54.1M)",
		},
		media("g721_decode", TreeSpec{CommonBothLR: 1},
			intMixes, 0, 0, 0, 1, "0 - 200M / 0 - 200M"),
		media("g721_encode", TreeSpec{CommonBothLR: 1},
			intMixes, 0, 0, 0, 1, "0 - 200M / 0 - 200M"),
		media("gsm_decode", TreeSpec{CommonBothLR: 3, CommonPlain: 2},
			intMixes, 0, 0.5, 0, 12, "entire program (77.1M / 122.1M)"),
		media("gsm_encode", TreeSpec{CommonBothLR: 6, CommonPlain: 3},
			intMixes, 0, 0.4, 1, 12, "0 - 200M / 0 - 200M"),
		media("jpeg_compress", TreeSpec{CommonBothLR: 11, CommonPlain: 6},
			mediaMixes, 0.35, 0.3, 2, 2, "entire program (19.3M / 153.4M)"),
		media("jpeg_decompress", TreeSpec{CommonBothLR: 4, CommonPlain: 2},
			mediaMixes, 0, 0.3, 0, 4, "entire program (4.6M / 36.5M)"),
		{
			Name: "mpeg2_decode",
			Tree: TreeSpec{
				CommonBothLR: 8, CommonTrainLR: 1, CommonRefLR: 1, CommonPlain: 2,
				TrainOnly: 3, TrainOnlyLR: 2, RefOnly: 7, RefOnlyLR: 5,
			},
			Mixes:     []*isa.Mix{isa.Balanced, isa.FPHeavy, isa.IntHeavy},
			ReuseFrac: 0.5, LoopFrac: 0.2, Containers: 1, LeafInstances: 2,
			RefOnlySharesPool: true,
			PaperWindows:      "entire program (152.3M) / 0 - 200M",
		},
		media("mpeg2_encode", TreeSpec{CommonBothLR: 30, CommonPlain: 10},
			[]*isa.Mix{isa.Balanced, isa.FPHeavy, isa.Branchy}, 0.25, 0.35, 3, 2,
			"0 - 200M / 0 - 200M"),
		{
			Name: "gzip",
			Tree: TreeSpec{
				CommonBothLR: 65, CommonTrainLR: 5, CommonRefLR: 2, CommonPlain: 110,
				TrainOnly: 42, TrainOnlyLR: 8, RefOnly: 14, RefOnlyLR: 3,
			},
			Mixes:     []*isa.Mix{isa.Branchy, isa.IntHeavy, isa.MemBound},
			ReuseFrac: 0.75, LoopFrac: 0.2, Containers: 8, LeafInstances: 1,
			PaperWindows: "20,518 - 20,718M / 21,185 - 21,385M",
		},
		{
			Name: "vpr",
			Tree: TreeSpec{
				CommonBothLR: 7, CommonTrainLR: 1, CommonRefLR: 1, CommonPlain: 3,
				TrainOnly: 80, TrainOnlyLR: 59, RefOnly: 107, RefOnlyLR: 76,
			},
			Mixes:     []*isa.Mix{isa.Branchy, isa.Balanced, isa.MemBound},
			ReuseFrac: 0.2, LoopFrac: 0.15, Containers: 2, LeafInstances: 1,
			PaperWindows: "335 - 535M / 1,600 - 1,800M",
		},
		{
			Name:      "mcf",
			Tree:      TreeSpec{CommonBothLR: 26, CommonPlain: 15},
			Mixes:     []*isa.Mix{isa.MemBound, isa.MemBound, isa.Branchy},
			ReuseFrac: 0.1, LoopFrac: 0.3, Containers: 3, LeafInstances: 2,
			PaperWindows: "590 - 790M / 1,325 - 1,525M",
		},
		{
			Name: "swim",
			Tree: TreeSpec{
				CommonBothLR: 16, CommonPlain: 7,
				RefOnly: 9, RefOnlyLR: 9,
			},
			Mixes:    []*isa.Mix{isa.Stream, isa.FPHeavy, isa.Stream},
			LoopFrac: 0.7, Containers: 2, LeafInstances: 2,
			PaperWindows: "84 - 284M / 575 - 775M",
		},
		{
			Name: "applu",
			Tree: TreeSpec{
				CommonBothLR: 60, CommonTrainLR: 1, CommonPlain: 16,
				RefOnly: 8, RefOnlyLR: 8,
			},
			Mixes:     []*isa.Mix{isa.FPHeavy, isa.Stream, isa.FPHeavy},
			ReuseFrac: 0.2, LoopFrac: 0.6, Containers: 6, LeafInstances: 2,
			PaperWindows: "36 - 236M / 650 - 850M",
		},
		{
			Name: "art",
			Tree: TreeSpec{
				CommonBothLR: 65, CommonRefLR: 1, CommonPlain: 32,
				RefOnly: 2, RefOnlyLR: 2,
			},
			Mixes:     []*isa.Mix{isa.FPHeavy, isa.MemBound, isa.Stream},
			ReuseFrac: 0.35, LoopFrac: 0.4, Containers: 4, LeafInstances: 2,
			Special:      "art",
			PaperWindows: "6,865 - 7,065M / 13,398 - 13,598M",
		},
		{
			Name:     "equake",
			Tree:     TreeSpec{CommonBothLR: 30, CommonPlain: 5},
			Mixes:    []*isa.Mix{isa.Stream, isa.MemBound, isa.FPHeavy},
			LoopFrac: 0.3, Containers: 3, LeafInstances: 1,
			PaperWindows: "958 - 1,158M / 4,266 - 4,466M",
		},
	}
}

// table is the benchmark suite, built lazily: an index from name to
// suite position, made once from the specs without walking any program,
// and one sync.Once per benchmark. Build is a pure function of its spec
// (its own isa.Builder, an RNG seeded from the benchmark name, and the
// read-only standard mixes), so a benchmark built alone, in any order,
// or concurrently with others is identical to one built in suite order.
type table struct {
	specs []Spec
	index map[string]int
	once  []sync.Once
	built []*Benchmark
}

func newTable(specs []Spec) *table {
	t := &table{
		specs: specs,
		index: make(map[string]int, len(specs)),
		once:  make([]sync.Once, len(specs)),
		built: make([]*Benchmark, len(specs)),
	}
	for i, s := range specs {
		t.index[s.Name] = i
	}
	return t
}

// at builds the i'th benchmark on first use.
func (t *table) at(i int) *Benchmark {
	t.once[i].Do(func() { t.built[i] = Build(t.specs[i]) })
	return t.built[i]
}

func (t *table) byName(name string) *Benchmark {
	i, ok := t.index[name]
	if !ok {
		return nil
	}
	return t.at(i)
}

func (t *table) suite() []*Benchmark {
	out := make([]*Benchmark, len(t.specs))
	for i := range out {
		out[i] = t.at(i)
	}
	return out
}

// suite is the process-wide table. Building one benchmark walks its
// program to the end on both inputs to size the simulation windows, so
// a process builds only the benchmarks it names.
var suite = newTable(Specs())

// Suite builds (each once) and returns all 19 benchmarks, in suite
// order.
func Suite() []*Benchmark { return suite.suite() }

// ByName returns one benchmark, building it on first use, or nil if the
// name is unknown.
func ByName(name string) *Benchmark { return suite.byName(name) }

// Known reports whether name is a benchmark, without building it.
func Known(name string) bool {
	_, ok := suite.index[name]
	return ok
}

// Names lists the benchmark names in suite order, without building any.
func Names() []string {
	out := make([]string, len(suite.specs))
	for i, s := range suite.specs {
		out[i] = s.Name
	}
	return out
}
