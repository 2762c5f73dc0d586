package colseg

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"math"
	"reflect"
	"runtime"
	"testing"
)

func sampleSegment(t testing.TB) ([]byte, []int64, []float64, []string, [][]float64) {
	t.Helper()
	ints := []int64{0, 1, -1, 63, -64, math.MaxInt64, math.MinInt64, 42}
	floats := []float64{0, math.Copysign(0, -1), 1.5, -2.25, math.Inf(1), math.Inf(-1), math.NaN(), 3.14159}
	strs := []string{"adpcm", "gzip", "adpcm", "adpcm", "", "gzip", "mcf", "mcf"}
	lists := [][]float64{nil, {}, {1, 2, 3}, {-0.5}, nil, {math.MaxFloat64}, {}, {7, 8}}

	w := NewWriter(3, len(ints))
	w.Column("i", PutInt64s(ints))
	w.Column("f", PutFloat64s(floats))
	w.Column("s", PutStrings(strs))
	w.Column("l", PutFloatLists(lists))
	return w.Bytes(), ints, floats, strs, lists
}

func TestRoundTrip(t *testing.T) {
	b, ints, floats, strs, lists := sampleSegment(t)
	s, err := Decode(b)
	if err != nil {
		t.Fatalf("Decode: %v", err)
	}
	if s.Schema != 3 || s.Rows != len(ints) {
		t.Fatalf("header: schema %d rows %d", s.Schema, s.Rows)
	}
	if got := s.Names(); !reflect.DeepEqual(got, []string{"f", "i", "l", "s"}) {
		t.Fatalf("names: %v", got)
	}

	ip, _ := s.Column("i")
	gotInts, err := Int64s(ip, s.Rows)
	if err != nil || !reflect.DeepEqual(gotInts, ints) {
		t.Fatalf("ints: %v %v", gotInts, err)
	}
	fp, _ := s.Column("f")
	gotFloats, err := Float64s(fp, s.Rows)
	if err != nil {
		t.Fatalf("floats: %v", err)
	}
	for i := range floats {
		if math.Float64bits(gotFloats[i]) != math.Float64bits(floats[i]) {
			t.Fatalf("float row %d: %x != %x", i, gotFloats[i], floats[i])
		}
	}
	sp, _ := s.Column("s")
	gotStrs, err := Strings(sp, s.Rows)
	if err != nil || !reflect.DeepEqual(gotStrs, strs) {
		t.Fatalf("strings: %v %v", gotStrs, err)
	}
	lp, _ := s.Column("l")
	gotLists, err := FloatLists(lp, s.Rows)
	if err != nil {
		t.Fatalf("lists: %v", err)
	}
	for i := range lists {
		if (lists[i] == nil) != (gotLists[i] == nil) {
			t.Fatalf("list row %d: nil-ness lost (%v vs %v)", i, lists[i], gotLists[i])
		}
		if !reflect.DeepEqual(append([]float64{}, lists[i]...), append([]float64{}, gotLists[i]...)) {
			t.Fatalf("list row %d: %v != %v", i, gotLists[i], lists[i])
		}
	}
}

func TestDeterministic(t *testing.T) {
	a, _, _, _, _ := sampleSegment(t)
	b, _, _, _, _ := sampleSegment(t)
	if !bytes.Equal(a, b) {
		t.Fatal("same content encoded to different bytes")
	}
}

func TestCorruptionDetected(t *testing.T) {
	b, _, _, _, _ := sampleSegment(t)
	// Flip one byte everywhere in turn: every single-byte corruption
	// must be caught by magic, length, checksum, or end-marker checks.
	for i := range b {
		mut := append([]byte(nil), b...)
		mut[i] ^= 0x40
		if _, err := Decode(mut); err == nil {
			t.Fatalf("byte %d flip not detected", i)
		} else if !errors.Is(err, ErrCorrupt) {
			t.Fatalf("byte %d flip: error not tagged ErrCorrupt: %v", i, err)
		}
	}
}

func TestTruncationDetected(t *testing.T) {
	b, _, _, _, _ := sampleSegment(t)
	for n := 0; n < len(b); n++ {
		if _, err := Decode(b[:n]); !errors.Is(err, ErrCorrupt) {
			t.Fatalf("truncation at %d bytes not detected: %v", n, err)
		}
	}
	// The row count survives any truncation that keeps the header.
	rows, ok := PeekRows(b[:headerSize])
	if !ok || rows != 8 {
		t.Fatalf("PeekRows on truncated segment: %d %v", rows, ok)
	}
	if _, ok := PeekRows(b[:4]); ok {
		t.Fatal("PeekRows accepted a headerless prefix")
	}
}

func TestTrailingGarbageDetected(t *testing.T) {
	b, _, _, _, _ := sampleSegment(t)
	if _, err := Decode(append(append([]byte(nil), b...), 0)); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("trailing garbage not detected: %v", err)
	}
}

func TestEmptySegment(t *testing.T) {
	w := NewWriter(1, 0)
	w.Column("i", PutInt64s(nil))
	s, err := Decode(w.Bytes())
	if err != nil || s.Rows != 0 {
		t.Fatalf("empty segment: %v %v", s, err)
	}
	vals, err := Int64s(mustCol(t, s, "i"), 0)
	if err != nil || len(vals) != 0 {
		t.Fatalf("empty column: %v %v", vals, err)
	}
}

func mustCol(t *testing.T, s *Segment, name string) []byte {
	t.Helper()
	p, ok := s.Column(name)
	if !ok {
		t.Fatalf("missing column %q", name)
	}
	return p
}

// allocBytes reports how many heap bytes fn allocates.
func allocBytes(fn func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	fn()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// TestDeclaredRowsBoundedByPayload feeds every typed codec a 44-byte
// segment with valid checksums that declares 2^31 rows over an empty
// column. The container decodes — its checksums hold — but each codec
// must reject the row count before sizing any allocation by it.
func TestDeclaredRowsBoundedByPayload(t *testing.T) {
	w := NewWriter(1, 1<<31)
	w.Column("xy", nil)
	b := w.Bytes()
	if len(b) != 44 {
		t.Fatalf("segment is %d bytes, want 44", len(b))
	}
	s, err := Decode(b)
	if err != nil || s.Rows != 1<<31 {
		t.Fatalf("Decode: rows %d, err %v", s.Rows, err)
	}
	p := mustCol(t, s, "xy")
	codecs := map[string]func() error{
		"int64":      func() error { _, err := Int64s(p, s.Rows); return err },
		"float64":    func() error { _, err := Float64s(p, s.Rows); return err },
		"string":     func() error { _, err := Strings(p, s.Rows); return err },
		"float-list": func() error { _, err := FloatLists(p, s.Rows); return err },
	}
	for name, decode := range codecs {
		var err error
		n := allocBytes(func() { err = decode() })
		if !errors.Is(err, ErrCorrupt) {
			t.Errorf("%s: err = %v, want ErrCorrupt", name, err)
		}
		if n > 1<<20 {
			t.Errorf("%s: allocated %d bytes rejecting a 44-byte segment", name, n)
		}
	}
}

// TestFloatListLengthsBounded checks per-row float-list lengths against
// the payload: a length past len(p)/8, or lengths whose sum wraps to a
// value that matches the payload, must be rejected, not sliced.
func TestFloatListLengthsBounded(t *testing.T) {
	huge := binary.AppendUvarint(nil, 1<<40)
	wrap := binary.AppendUvarint(nil, 1<<63+1)
	wrap = binary.AppendUvarint(wrap, 1<<63+1)
	for name, tc := range map[string]struct {
		p    []byte
		rows int
	}{
		"huge length":  {huge, 1},
		"wrapping sum": {wrap, 2},
	} {
		if _, err := FloatLists(tc.p, tc.rows); !errors.Is(err, ErrCorrupt) {
			t.Errorf("%s: err = %v, want ErrCorrupt", name, err)
		}
	}
}

// emptyNameSegment is a sealed segment whose one column has an empty
// name, which the writer cannot produce.
func emptyNameSegment() []byte {
	w := NewWriter(1, 0)
	w.Column("x", nil)
	b := w.Bytes()
	// Drop the name byte, zero its length, and re-seal the file.
	b = append(b[:headerSize+2:headerSize+2], b[headerSize+3:]...)
	binary.LittleEndian.PutUint16(b[headerSize:], 0)
	return reseal(b)
}

// reseal recomputes the file checksum, so a mutation of the header or
// the column framing reaches the parser behind it.
func reseal(b []byte) []byte {
	r := bytes.Clone(b)
	end := len(r) - trailerSize
	binary.LittleEndian.PutUint32(r[end:], crc32.ChecksumIEEE(r[:end]))
	return r
}

// FuzzDecode checks that no input panics the container or the typed
// codecs, that a decoded segment re-encodes to the bytes it came from,
// and that a codec either fails with ErrCorrupt or returns exactly the
// rows asked for.
func FuzzDecode(f *testing.F) {
	b, _, _, _, _ := sampleSegment(f)
	f.Add(b)
	for i := range b {
		mut := bytes.Clone(b)
		mut[i] ^= 0x40
		f.Add(mut)
		f.Add(b[:i])
	}
	f.Add(append(bytes.Clone(b), 0))
	empty := NewWriter(1, 0)
	empty.Column("i", PutInt64s(nil))
	f.Add(empty.Bytes())
	huge := NewWriter(1, 1<<31)
	huge.Column("xy", nil)
	f.Add(huge.Bytes())
	// TestFloatListLengthsBounded's payloads, as float-list columns.
	wrap := binary.AppendUvarint(nil, 1<<63+1)
	for _, tc := range []struct {
		rows int
		p    []byte
	}{
		{1, binary.AppendUvarint(nil, 1<<40)},
		{2, binary.AppendUvarint(wrap, 1<<63+1)},
	} {
		w := NewWriter(1, tc.rows)
		w.Column("l", tc.p)
		f.Add(w.Bytes())
	}
	f.Add(emptyNameSegment())

	f.Fuzz(func(t *testing.T, b []byte) {
		fuzzSegment(t, b)
		if len(b) >= trailerSize {
			fuzzSegment(t, reseal(b))
		}
		// Column checksums stop nearly every payload mutation at Decode,
		// so the codecs also take the raw input: its first byte is the
		// row count, the rest the payload.
		if len(b) > 0 {
			fuzzCodecs(t, b[1:], int(b[0]))
		}
	})
}

func fuzzSegment(t *testing.T, b []byte) {
	s, err := Decode(b)
	if err != nil {
		if !errors.Is(err, ErrCorrupt) {
			t.Fatalf("Decode error not tagged ErrCorrupt: %v", err)
		}
		return
	}
	w := NewWriter(s.Schema, s.Rows)
	for _, n := range s.names {
		w.Column(n, s.cols[n])
	}
	if !bytes.Equal(w.Bytes(), b) {
		t.Fatalf("decoded segment re-encodes to different bytes")
	}
	for _, n := range s.names {
		fuzzCodecs(t, s.cols[n], s.Rows)
	}
}

func fuzzCodecs(t *testing.T, p []byte, rows int) {
	check := func(kind string, n int, err error) {
		if err != nil {
			if !errors.Is(err, ErrCorrupt) {
				t.Fatalf("%s: error not tagged ErrCorrupt: %v", kind, err)
			}
			return
		}
		if n != rows {
			t.Fatalf("%s: decoded %d values for %d rows", kind, n, rows)
		}
	}
	ints, err := Int64s(p, rows)
	check("int64", len(ints), err)
	floats, err := Float64s(p, rows)
	check("float64", len(floats), err)
	strs, err := Strings(p, rows)
	check("string", len(strs), err)
	lists, err := FloatLists(p, rows)
	check("float-list", len(lists), err)
}
