package sweep

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"

	"repro/internal/colseg"
	"repro/internal/core"
)

// segTestRows builds merged rows with representative field shapes
// (negative values, nil vs empty float lists, empty strings).
func segTestRows(t *testing.T, n int) []Merged {
	t.Helper()
	cfg := core.DefaultConfig()
	rows := make([]Merged, n)
	for i := range rows {
		j := Job{Bench: fmt.Sprintf("bench%02d", i), Policy: PolicyOffline, Delta: float64(i) / 4}
		out := &Outcome{GlobalMHz: 600 + i, StaticReconfig: i, StaticInstr: i * 7}
		out.Res.Instructions = int64(i * 1000)
		out.Res.TimePs = int64(i) * 1_000_003
		out.Res.EnergyPJ = 0.25 * float64(i)
		switch i % 3 {
		case 0:
			out.Res.DomainPJ = nil
		case 1:
			out.Res.DomainPJ = []float64{}
		default:
			out.Res.DomainPJ = []float64{1.5, -2.25, float64(i)}
		}
		out.Res.AvgMHz = []float64{float64(600 + i)}
		out.Res.SyncCrossings = int64(-i)
		out.Res.MispredictRate = 0.01 * float64(i)
		out.Stats.DynReconfig = int64(i * 3)
		out.Stats.OverheadPct = float64(i) * 0.125
		rows[i] = Merged{Key: Key(cfg, j), Job: j, Outcome: out}
	}
	return rows
}

func sortedByKey(rows []Merged) []Merged {
	s := append([]Merged(nil), rows...)
	for i := 1; i < len(s); i++ {
		for j := i; j > 0 && s[j].Key < s[j-1].Key; j-- {
			s[j], s[j-1] = s[j-1], s[j]
		}
	}
	return s
}

func TestSegmentCodecRoundTrip(t *testing.T) {
	rows := segTestRows(t, 9)
	b, err := EncodeSegment(rows)
	if err != nil {
		t.Fatal(err)
	}
	got, err := DecodeSegmentRows(b)
	if err != nil {
		t.Fatal(err)
	}
	want := sortedByKey(rows)
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("round trip mismatch:\n got %+v\nwant %+v", got, want)
	}
	// Encoding is deterministic and order-independent.
	rev := append([]Merged(nil), rows...)
	for i, j := 0, len(rev)-1; i < j; i, j = i+1, j-1 {
		rev[i], rev[j] = rev[j], rev[i]
	}
	b2, err := EncodeSegment(rev)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(b, b2) {
		t.Fatal("segment bytes depend on row order")
	}
}

// fillStruct sets every field of a struct (recursively) to a distinct
// non-zero value, so a field added to Job/Outcome but forgotten in the
// segment codec fails the completeness test below instead of silently
// decoding to zero.
func fillStruct(v reflect.Value, seed *int) {
	for i := 0; i < v.NumField(); i++ {
		f := v.Field(i)
		*seed++
		switch f.Kind() {
		case reflect.Struct:
			*seed--
			fillStruct(f, seed)
		case reflect.String:
			f.SetString(fmt.Sprintf("v%d", *seed))
		case reflect.Int, reflect.Int64:
			f.SetInt(int64(*seed * 11))
		case reflect.Float64:
			f.SetFloat(float64(*seed) + 0.5)
		case reflect.Slice:
			if f.Type().Elem().Kind() == reflect.Float64 {
				f.Set(reflect.ValueOf([]float64{float64(*seed), float64(*seed) + 0.25}))
			}
		case reflect.Ptr:
			// handled by the caller
		default:
			panic(fmt.Sprintf("fillStruct: unhandled kind %s for field %s", f.Kind(), v.Type().Field(i).Name))
		}
	}
}

func TestSegmentCodecCompleteness(t *testing.T) {
	// Every Job and Outcome field, set via reflection, must survive the
	// codec — this is the tripwire for future fields missing a column.
	var job Job
	var out Outcome
	seed := 0
	fillStruct(reflect.ValueOf(&job).Elem(), &seed)
	fillStruct(reflect.ValueOf(&out).Elem(), &seed)
	key := strings.Repeat("ab", 32)
	rows := []Merged{{Key: key, Job: job, Outcome: &out}}
	b, err := EncodeSegment(rows)
	if err != nil {
		t.Fatal(err)
	}
	got, err := DecodeSegmentRows(b)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 || !reflect.DeepEqual(got[0], rows[0]) {
		t.Fatalf("codec drops data:\n got %+v\nwant %+v", got, rows)
	}
}

func TestSegmentStoreAppendGetScan(t *testing.T) {
	dir := t.TempDir()
	rows := segTestRows(t, 6)
	s := SegmentStoreFor(dir)
	if err := s.Append(rows[:4]); err != nil {
		t.Fatal(err)
	}
	// Overlapping append only seals the genuinely new rows.
	if err := s.Append(rows[2:]); err != nil {
		t.Fatal(err)
	}
	if got := s.Rows(); got != len(rows) {
		t.Fatalf("indexed %d rows, want %d", got, len(rows))
	}
	// A fresh store over the same directory (another process) sees all
	// rows by scanning.
	s2 := SegmentStoreFor(dir)
	for _, m := range rows {
		out, ok := s2.Get(m.Key)
		if !ok {
			t.Fatalf("row %.12s missing after scan", m.Key)
		}
		if !reflect.DeepEqual(out, m.Outcome) {
			t.Fatalf("row %.12s outcome mismatch", m.Key)
		}
	}
	// Fully redundant append writes no new file.
	files0 := segFiles(t, dir)
	if err := s2.Append(rows); err != nil {
		t.Fatal(err)
	}
	if files1 := segFiles(t, dir); len(files1) != len(files0) {
		t.Fatalf("redundant append grew %d -> %d files", len(files0), len(files1))
	}
}

func segFiles(t *testing.T, cacheDir string) []string {
	t.Helper()
	entries, err := os.ReadDir(filepath.Join(cacheDir, SegmentSubdir))
	if err != nil {
		if os.IsNotExist(err) {
			return nil
		}
		t.Fatal(err)
	}
	var names []string
	for _, e := range entries {
		names = append(names, e.Name())
	}
	return names
}

func TestSegmentStoreCorruptQuarantine(t *testing.T) {
	dir := t.TempDir()
	rows := segTestRows(t, 5)
	s := SegmentStoreFor(dir)
	if err := s.Append(rows[:3]); err != nil {
		t.Fatal(err)
	}
	if err := s.Append(rows[3:]); err != nil {
		t.Fatal(err)
	}
	// Corrupt the first segment file (flip one payload byte).
	names := segFiles(t, dir)
	if len(names) != 2 {
		t.Fatalf("expected 2 segment files, got %v", names)
	}
	victim := filepath.Join(dir, SegmentSubdir, names[0])
	b, err := os.ReadFile(victim)
	if err != nil {
		t.Fatal(err)
	}
	b[len(b)/2] ^= 0x40
	if err := os.WriteFile(victim, b, 0o644); err != nil {
		t.Fatal(err)
	}

	fresh := SegmentStoreFor(dir)
	served := 0
	for _, m := range rows {
		if _, ok := fresh.Get(m.Key); ok {
			served++
		}
	}
	// One file is quarantined, the other still serves.
	if served == len(rows) || served == 0 {
		t.Fatalf("served %d of %d rows with one corrupt segment", served, len(rows))
	}
	if got := fresh.CorruptRows(); got == 0 {
		t.Fatalf("corrupt rows not counted: %d", got)
	}
}

// TestDecodeSegmentRowsBoundsDeclaredRows sends an upload-sized lie
// through the fleet's segment decoder: a 44-byte segment with valid
// checksums declaring 2^31 rows. It must be rejected as corrupt without
// allocating anything near what the row count implies.
func TestDecodeSegmentRowsBoundsDeclaredRows(t *testing.T) {
	w := colseg.NewWriter(segmentSchema, 1<<31)
	w.Column("id", nil)
	b := w.Bytes()
	if len(b) != 44 {
		t.Fatalf("segment is %d bytes, want 44", len(b))
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err := DecodeSegmentRows(b)
	runtime.ReadMemStats(&after)
	if !errors.Is(err, colseg.ErrCorrupt) {
		t.Fatalf("err = %v, want ErrCorrupt", err)
	}
	if n := after.TotalAlloc - before.TotalAlloc; n > 1<<20 {
		t.Fatalf("rejecting a 44-byte segment allocated %d bytes", n)
	}
}

func TestSegmentStoreTruncatedRecovery(t *testing.T) {
	dir := t.TempDir()
	rows := segTestRows(t, 4)
	s := SegmentStoreFor(dir)
	if err := s.Append(rows); err != nil {
		t.Fatal(err)
	}
	names := segFiles(t, dir)
	victim := filepath.Join(dir, SegmentSubdir, names[0])
	b, err := os.ReadFile(victim)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(victim, b[:len(b)/3], 0o644); err != nil {
		t.Fatal(err)
	}
	fresh := SegmentStoreFor(dir)
	if _, ok := fresh.Get(rows[0].Key); ok {
		t.Fatal("truncated segment served a row")
	}
	// The damaged-row count uses the header row count when readable.
	if got := fresh.CorruptRows(); got != int64(len(rows)) {
		t.Fatalf("corrupt rows = %d, want %d", got, len(rows))
	}
	// Appending after quarantine re-seals the rows into a good segment.
	if err := fresh.Append(rows); err != nil {
		t.Fatal(err)
	}
	again := SegmentStoreFor(dir)
	for _, m := range rows {
		if _, ok := again.Get(m.Key); !ok {
			t.Fatalf("row %.12s not recovered", m.Key)
		}
	}
}

func TestEngineSegmentFastPathAndBackfill(t *testing.T) {
	cfg := core.DefaultConfig()
	dir := t.TempDir()
	jobs := testJobs()

	// Cold run with a JSON-only cache (no segments).
	var execs atomic.Int64
	e1 := New(cfg)
	e1.Cache = &Cache{Dir: dir}
	e1.ExecFn = fakeExec(&execs)
	if _, sum, err := e1.Run(context.Background(), jobs); err != nil || sum.Executed != len(jobs) {
		t.Fatalf("cold run: %v %+v", err, sum)
	}
	if files := segFiles(t, dir); len(files) != 0 {
		t.Fatalf("segment files without a store: %v", files)
	}

	// Warm run with segments enabled: served from JSON, backfills one
	// segment.
	e2 := New(cfg)
	e2.Cache = &Cache{Dir: dir}
	e2.Segments = SegmentStoreFor(dir)
	e2.ExecFn = fakeExec(&execs)
	_, sum2, err := e2.Run(context.Background(), jobs)
	if err != nil {
		t.Fatal(err)
	}
	if sum2.Executed != 0 || sum2.DiskHits != len(jobs) || sum2.SegmentHits != 0 {
		t.Fatalf("backfill run summary: %+v", sum2)
	}
	if files := segFiles(t, dir); len(files) != 1 {
		t.Fatalf("backfill did not seal one segment: %v", files)
	}

	// Third run: all hits come from the segment layer, and they still
	// count as disk hits.
	e3 := New(cfg)
	e3.Cache = &Cache{Dir: dir}
	e3.Segments = SegmentStoreFor(dir)
	e3.ExecFn = fakeExec(&execs)
	_, sum3, err := e3.Run(context.Background(), jobs)
	if err != nil {
		t.Fatal(err)
	}
	if sum3.SegmentHits != len(jobs) || sum3.DiskHits != len(jobs) || sum3.Executed != 0 {
		t.Fatalf("segment run summary: %+v", sum3)
	}

	// Segment outcomes are value-identical to the JSON entries.
	c := &Cache{Dir: dir}
	st := SegmentStoreFor(dir)
	for _, j := range jobs {
		key := Key(cfg, j)
		fromJSON, ok1 := c.Get(key)
		fromSeg, ok2 := st.Get(key)
		if !ok1 || !ok2 || !reflect.DeepEqual(fromJSON, fromSeg) {
			t.Fatalf("layer mismatch for %s", j)
		}
	}

	// Truncate the segment: the engine falls back to JSON and surfaces
	// the damage in CorruptEntries.
	names := segFiles(t, dir)
	victim := filepath.Join(dir, SegmentSubdir, names[0])
	b, err := os.ReadFile(victim)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(victim, b[:len(b)-7], 0o644); err != nil {
		t.Fatal(err)
	}
	e4 := New(cfg)
	e4.Cache = &Cache{Dir: dir}
	e4.Segments = SegmentStoreFor(dir)
	e4.ExecFn = fakeExec(&execs)
	_, sum4, err := e4.Run(context.Background(), jobs)
	if err != nil {
		t.Fatal(err)
	}
	if sum4.SegmentHits != 0 || sum4.DiskHits != len(jobs) || sum4.Executed != 0 {
		t.Fatalf("fallback run summary: %+v", sum4)
	}
	if sum4.CorruptEntries == 0 {
		t.Fatalf("truncated segment not surfaced: %+v", sum4)
	}
}
