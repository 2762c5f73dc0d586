package core

import (
	"bytes"
	"reflect"
	"testing"

	"repro/internal/calltree"
	"repro/internal/isa"
	"repro/internal/workload"
)

// TestTrainFeedBatchMatchesSequential is the batched-training contract:
// a multi-scheme batch must produce profiles whose portable encodings
// are byte-identical to one-scheme batches trained scheme by scheme
// (which shake every segment directly, without the cross-scheme memo)
// — the sweep layer persists these bytes as artifacts, so any drift
// would poison the artifact store.
func TestTrainFeedBatchMatchesSequential(t *testing.T) {
	b := workload.ByName("g721_decode")
	cfg := DefaultConfig()
	schemes := []calltree.Scheme{calltree.LF, calltree.LFCP}
	src := isa.RecordPacked(b.Prog, b.Train)

	batch := TrainFeedBatch(cfg, src, b.TrainWindow, schemes)
	if len(batch) != len(schemes) {
		t.Fatalf("TrainFeedBatch returned %d profiles, want %d", len(batch), len(schemes))
	}
	for i, scheme := range schemes {
		seq := TrainFeedBatch(cfg, src, b.TrainWindow, []calltree.Scheme{scheme})[0]
		want, err := EncodeProfile(seq)
		if err != nil {
			t.Fatal(err)
		}
		got, err := EncodeProfile(batch[i])
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(want, got) {
			t.Errorf("scheme %s: batched profile encoding differs from sequential training", scheme.Name)
		}
	}
}

// TestLanesLockstepMatchSequentialRuns checks the production side of
// batching: every lane kind, stepped in lockstep from one packed
// stream, must produce exactly the result a sequential feed of the same
// lane kind produces.
func TestLanesLockstepMatchSequentialRuns(t *testing.T) {
	b := workload.ByName("g721_decode")
	cfg := DefaultConfig()
	src := isa.RecordPacked(b.Prog, b.Ref)

	prof := TrainFeed(cfg, isa.RecordPacked(b.Prog, b.Train), b.TrainWindow, calltree.LF)

	wantBase := RunBaselineFeed(cfg, src, b.RefWindow)
	wantSC, _ := feedLane(NewSingleClockLane(cfg, cfg.Sim.BaseMHz), src, b.RefWindow)
	wantOn, _ := feedLane(NewOnlineLane(cfg), src, b.RefWindow)
	wantEd, wantSt := RunEditedFeed(cfg, src, b.RefWindow, prof.Plan, false)
	wantOr, _ := RunEditedFeed(cfg, src, b.RefWindow, prof.Plan, true)

	lanes := []*Lane{
		NewBaselineLane(cfg),
		NewSingleClockLane(cfg, cfg.Sim.BaseMHz),
		NewOnlineLane(cfg),
		NewEditedLane(cfg, prof.Plan, false),
		NewEditedLane(cfg, prof.Plan, true),
	}
	sl := make([]isa.StreamLane, len(lanes))
	for i, l := range lanes {
		sl[i] = isa.StreamLane{Consumer: l.Consumer, Budget: b.RefWindow}
	}
	src.FeedLockstep(sl)

	gotBase, _ := lanes[0].Finish()
	gotSC, _ := lanes[1].Finish()
	gotOn, _ := lanes[2].Finish()
	gotEd, gotSt := lanes[3].Finish()
	gotOr, _ := lanes[4].Finish()

	if !reflect.DeepEqual(gotBase, wantBase) {
		t.Errorf("baseline lane: lockstep %+v != sequential %+v", gotBase, wantBase)
	}
	if !reflect.DeepEqual(gotSC, wantSC) {
		t.Errorf("single-clock lane: lockstep %+v != sequential %+v", gotSC, wantSC)
	}
	if !reflect.DeepEqual(gotOn, wantOn) {
		t.Errorf("online lane: lockstep %+v != sequential %+v", gotOn, wantOn)
	}
	if !reflect.DeepEqual(gotEd, wantEd) || gotSt != wantSt {
		t.Errorf("edited lane: lockstep (%+v, %+v) != sequential (%+v, %+v)", gotEd, gotSt, wantEd, wantSt)
	}
	if !reflect.DeepEqual(gotOr, wantOr) {
		t.Errorf("oracle lane: lockstep %+v != sequential %+v", gotOr, wantOr)
	}
}
