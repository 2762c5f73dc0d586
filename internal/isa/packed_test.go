package isa

import (
	"reflect"
	"testing"
)

// tapeConsumer records everything it sees, tagging order.
type tapeConsumer struct {
	instrs  []Instr
	markers []Marker
	order   []byte // 'i' or 'm'
	stopAt  int    // stop after this many instructions; 0 = never
}

func (c *tapeConsumer) Instr(ins *Instr) bool {
	c.instrs = append(c.instrs, *ins)
	c.order = append(c.order, 'i')
	return c.stopAt == 0 || len(c.instrs) < c.stopAt
}

func (c *tapeConsumer) Marker(m Marker) bool {
	c.markers = append(c.markers, m)
	c.order = append(c.order, 'm')
	return true
}

func streamProg() *Program {
	b := NewBuilder("streamtest")
	inner := b.Subroutine("inner")
	b.SetBody(inner, b.Block(Branchy, 40))
	main := b.Subroutine("main")
	b.SetBody(main,
		b.Block(Balanced, 25),
		b.Loop(FixedTrips(3), b.Block(MemBound, 10), b.Call(inner)),
		b.Block(FPHeavy, 15),
	)
	return b.Finish(main)
}

// TestPackedReplayIdentical is the packed stream's contract: replay
// must be item-for-item identical to a generating walk — simulation
// results and sweep cache keys depend on the two sources being
// indistinguishable.
func TestPackedReplayIdentical(t *testing.T) {
	prog := streamProg()
	in := Input{Name: "train"}

	var walked tapeConsumer
	prog.Walk(in, &walked)

	for name, s := range map[string]*PackedStream{
		"recorded": RecordPacked(prog, in),
		"sized":    RecordPackedSized(prog, in, int64(len(walked.instrs))),
	} {
		var replayed tapeConsumer
		s.Feed(&replayed)
		if !reflect.DeepEqual(walked.instrs, replayed.instrs) {
			t.Fatalf("%s: replayed instructions differ from generated walk", name)
		}
		if !reflect.DeepEqual(walked.markers, replayed.markers) {
			t.Fatalf("%s: replayed markers differ from generated walk", name)
		}
		if !reflect.DeepEqual(walked.order, replayed.order) {
			t.Fatalf("%s: replayed interleaving differs from generated walk", name)
		}
		if s.Instructions() != int64(len(walked.instrs)) {
			t.Fatalf("%s: Instructions() = %d, want %d", name, s.Instructions(), len(walked.instrs))
		}
	}
}

// TestPackedFeedBudget checks packed replay through a CountingConsumer
// (which Feed unwraps) against a generating walk through the same
// wrapper, including Seen counts and trailing-marker behavior at exact
// stream length.
func TestPackedFeedBudget(t *testing.T) {
	prog := streamProg()
	in := Input{Name: "train"}
	s := RecordPacked(prog, in)
	total := s.Instructions()

	for _, budget := range []int64{1, 37, total, total + 1, 1 << 30} {
		var walked tapeConsumer
		wcc := &CountingConsumer{Inner: &walked, Budget: budget}
		prog.Walk(in, wcc)

		var replayed tapeConsumer
		rcc := &CountingConsumer{Inner: &replayed, Budget: budget}
		s.Feed(rcc)

		if !reflect.DeepEqual(walked.order, replayed.order) {
			t.Fatalf("budget %d: interleaving diverged", budget)
		}
		if !reflect.DeepEqual(walked.instrs, replayed.instrs) {
			t.Fatalf("budget %d: instructions diverged", budget)
		}
		if !reflect.DeepEqual(walked.markers, replayed.markers) {
			t.Fatalf("budget %d: markers diverged", budget)
		}
		if wcc.Seen != rcc.Seen {
			t.Fatalf("budget %d: Seen %d (walk) vs %d (packed replay)", budget, wcc.Seen, rcc.Seen)
		}
	}
}

// TestPackedFeedEarlyStop checks that an inner consumer returning false
// stops packed replay at the same item a generating walk stops at.
func TestPackedFeedEarlyStop(t *testing.T) {
	prog := streamProg()
	in := Input{Name: "train"}
	s := RecordPacked(prog, in)

	for _, stopAt := range []int{1, 13, 60} {
		walked := tapeConsumer{stopAt: stopAt}
		prog.Walk(in, &walked)
		replayed := tapeConsumer{stopAt: stopAt}
		s.Feed(&replayed)
		if !reflect.DeepEqual(walked.order, replayed.order) {
			t.Fatalf("stopAt %d: interleaving diverged", stopAt)
		}
		if !reflect.DeepEqual(walked.instrs, replayed.instrs) {
			t.Fatalf("stopAt %d: instructions diverged", stopAt)
		}
	}
}

// TestPackedFreqsRoundTrip checks that the rare frequency-carrying
// instructions survive packing (they never appear in program walks, but
// capture must not silently drop them).
func TestPackedFreqsRoundTrip(t *testing.T) {
	s := &PackedStream{}
	w := (*packedRecorder)(s)
	w.Instr(&Instr{Class: IntALU, PC: 4})
	w.Instr(&Instr{Class: Reconfig, PC: 8, Freqs: []uint16{600, 1000}})
	w.Instr(&Instr{Class: Load, PC: 12, Addr: 64})

	var got tapeConsumer
	s.Feed(&got)
	want := []Instr{
		{Class: IntALU, PC: 4},
		{Class: Reconfig, PC: 8, Freqs: []uint16{600, 1000}},
		{Class: Load, PC: 12, Addr: 64},
	}
	if !reflect.DeepEqual(got.instrs, want) {
		t.Fatalf("freq round-trip: got %+v, want %+v", got.instrs, want)
	}
}

// TestPackedLockstepMatchesSequential is the lockstep contract: N lanes
// driven by one FeedLockstep pass must each see exactly the sequence a
// budgeted sequential Feed would deliver, for heterogeneous budgets and
// early-stopping lanes.
func TestPackedLockstepMatchesSequential(t *testing.T) {
	prog := streamProg()
	in := Input{Name: "train"}
	s := RecordPacked(prog, in)
	total := s.Instructions()

	budgets := []int64{1, 37, total, 0, total + 5}
	stops := []int{0, 0, 25, 0, 3}

	want := make([]tapeConsumer, len(budgets))
	wantSeen := make([]int64, len(budgets))
	for i := range budgets {
		want[i].stopAt = stops[i]
		b := budgets[i]
		if b <= 0 {
			b = 1 << 62
		}
		cc := &CountingConsumer{Inner: &want[i], Budget: b}
		s.Feed(cc)
		wantSeen[i] = cc.Seen
	}

	got := make([]tapeConsumer, len(budgets))
	lanes := make([]StreamLane, len(budgets))
	for i := range budgets {
		got[i].stopAt = stops[i]
		lanes[i] = StreamLane{Consumer: &got[i], Budget: budgets[i]}
	}
	s.FeedLockstep(lanes)

	for i := range budgets {
		if !reflect.DeepEqual(want[i].order, got[i].order) {
			t.Fatalf("lane %d: interleaving diverged from sequential feed", i)
		}
		if !reflect.DeepEqual(want[i].instrs, got[i].instrs) {
			t.Fatalf("lane %d: instructions diverged from sequential feed", i)
		}
		if !reflect.DeepEqual(want[i].markers, got[i].markers) {
			t.Fatalf("lane %d: markers diverged from sequential feed", i)
		}
		if lanes[i].Seen != wantSeen[i] {
			t.Fatalf("lane %d: Seen %d, want %d", i, lanes[i].Seen, wantSeen[i])
		}
	}
}

// countOnly consumes without recording, for the allocation assert.
type countOnly struct{ n, m int64 }

func (c *countOnly) Instr(*Instr) bool  { c.n++; return true }
func (c *countOnly) Marker(Marker) bool { c.m++; return true }

// TestLockstepSteadyStateAllocFree asserts lockstep delivery allocates
// nothing per instruction: the only allocations are two per pass
// (the active-lane index list, and the scratch Instr that escapes
// through the Consumer interface call), independent of stream length
// and lane count. The assert runs the same lanes over a short and a
// long stream and requires identical per-pass counts — any per-item
// allocation would scale with the 8x longer stream.
func TestLockstepSteadyStateAllocFree(t *testing.T) {
	prog := streamProg()
	short := RecordPacked(prog, Input{Name: "train"})
	long := &PackedStream{}
	for i := int64(0); i < 8*short.Instructions(); i++ {
		(*packedRecorder)(long).Instr(&Instr{})
	}

	sinks := [4]countOnly{}
	lanes := make([]StreamLane, len(sinks))
	for i := range sinks {
		lanes[i] = StreamLane{Consumer: &sinks[i]}
	}
	short.FeedLockstep(lanes) // warm up (method tables)

	perPassShort := testing.AllocsPerRun(10, func() { short.FeedLockstep(lanes) })
	perPassLong := testing.AllocsPerRun(10, func() { long.FeedLockstep(lanes) })
	if perPassShort > 2 || perPassLong > 2 {
		t.Fatalf("FeedLockstep allocates %.1f/%.1f times per pass, want <= 2 setup allocations", perPassShort, perPassLong)
	}
	if perPassShort != perPassLong {
		t.Fatalf("per-pass allocations scale with stream length (%.1f vs %.1f): stepping is not alloc-free", perPassShort, perPassLong)
	}
	if sinks[0].n == 0 || sinks[0].n != sinks[3].n {
		t.Fatalf("lanes saw %d and %d instructions, want equal and nonzero", sinks[0].n, sinks[3].n)
	}
}
