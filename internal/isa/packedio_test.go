package isa

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"reflect"
	"testing"
)

// freqStream builds a packed stream containing everything the codec
// must carry: all instruction classes, markers, and the rare Freqs side
// table (reconfig instructions) at several positions.
func freqStream() *PackedStream {
	s := &PackedStream{}
	rec := (*packedRecorder)(s)
	rec.Marker(Marker{Kind: SubEnter, ID: 3, Site: 1})
	for i := 0; i < 300; i++ {
		ins := Instr{
			Class: Class(i % int(NumClasses)),
			PC:    uint32(i * 4),
			Addr:  uint32(i * 64),
			Src1:  uint16(i % 31),
			Src2:  uint16(i % 17),
			Taken: i%3 == 0,
		}
		if i%97 == 0 {
			ins.Freqs = []uint16{1000, 750, uint16(500 + i), 250}
		}
		rec.Instr(&ins)
		if i%50 == 25 {
			rec.Marker(Marker{Kind: LoopEnter, ID: int32(i), Site: int32(i % 5)})
		}
	}
	rec.Marker(Marker{Kind: SubExit, ID: 3})
	return s
}

// replay captures a stream's full replay for comparison.
func replay(s *PackedStream) *tapeConsumer {
	var c tapeConsumer
	s.Feed(&c)
	return &c
}

// TestPackedCodecRoundtrip is the stream cache's contract: a decoded
// stream must replay item-for-item identically to the one encoded —
// instructions, markers, interleaving, and the Freqs side table — and
// encoding must be deterministic (the cache is content-addressed, so
// the same stream must always produce the same bytes).
func TestPackedCodecRoundtrip(t *testing.T) {
	streams := map[string]*PackedStream{
		"walked": RecordPacked(streamProg(), Input{Name: "train"}),
		"freqs":  freqStream(),
		"empty":  {},
	}
	for name, s := range streams {
		enc := EncodePacked(s)
		if !bytes.Equal(enc, EncodePacked(s)) {
			t.Fatalf("%s: encoding is not deterministic", name)
		}
		dec, err := DecodePacked(enc)
		if err != nil {
			t.Fatalf("%s: decode: %v", name, err)
		}
		want, got := replay(s), replay(dec)
		if !reflect.DeepEqual(want.instrs, got.instrs) {
			t.Fatalf("%s: decoded stream replays different instructions", name)
		}
		if !reflect.DeepEqual(want.markers, got.markers) {
			t.Fatalf("%s: decoded stream replays different markers", name)
		}
		if !reflect.DeepEqual(want.order, got.order) {
			t.Fatalf("%s: decoded stream replays a different interleaving", name)
		}
		if !bytes.Equal(enc, EncodePacked(dec)) {
			t.Fatalf("%s: re-encoding the decoded stream changes bytes", name)
		}
	}
}

// TestPackedCodecRejectsCorruption: any truncation or bit flip must
// fail DecodePacked with an error, never replay garbage — the on-disk
// cache treats a decode error as a corrupt entry and rewrites it.
func TestPackedCodecRejectsCorruption(t *testing.T) {
	enc := EncodePacked(freqStream())

	for _, cut := range []int{0, 1, len(packedMagic), len(packedMagic) + 7, len(enc) / 2, len(enc) - 1} {
		if _, err := DecodePacked(enc[:cut]); err == nil {
			t.Errorf("truncation to %d bytes decoded successfully", cut)
		}
	}
	for _, off := range []int{0, len(packedMagic), len(packedMagic) + 8, len(enc) / 3, len(enc) / 2, len(enc) - 5, len(enc) - 1} {
		bad := bytes.Clone(enc)
		bad[off] ^= 0x40
		if _, err := DecodePacked(bad); err == nil {
			t.Errorf("bit flip at offset %d decoded successfully", off)
		}
	}
	if _, err := DecodePacked(append(bytes.Clone(enc), 0xee)); err == nil {
		t.Error("trailing garbage decoded successfully")
	}
}

// reseal recomputes the CRC after a body mutation, so only the
// structural validation stands between the corruption and a replay.
func reseal(b []byte) []byte {
	body := b[:len(b)-4]
	return binary.LittleEndian.AppendUint32(bytes.Clone(body), crc32.ChecksumIEEE(body))
}

// TestPackedCodecRejectsBadContent: corruption that keeps the checksum
// valid (a rewritten entry) must still fail the structural checks —
// class range, marker-position monotonicity, freqs index order.
func TestPackedCodecRejectsBadContent(t *testing.T) {
	enc := EncodePacked(freqStream())

	bad := bytes.Clone(enc)
	bad[len(packedMagic)+8] = 0xff // first class byte
	if _, err := DecodePacked(reseal(bad)); err == nil {
		t.Error("out-of-range instruction class decoded successfully")
	}

	bad = bytes.Clone(enc)
	binary.LittleEndian.PutUint64(bad[len(packedMagic):], 1<<60) // instruction count
	if _, err := DecodePacked(reseal(bad)); err == nil {
		t.Error("absurd instruction count decoded successfully")
	}
}

// FuzzDecodePacked checks that no input panics DecodePacked and that a
// stream it accepts re-encodes to the bytes it came from. Each input is
// also tried resealed, so mutations reach the structural checks behind
// the checksum.
func FuzzDecodePacked(f *testing.F) {
	enc := EncodePacked(freqStream())
	for _, b := range [][]byte{
		enc,
		EncodePacked(RecordPacked(streamProg(), Input{Name: "train"})),
		EncodePacked(&PackedStream{}),
		append(bytes.Clone(enc), 0xee),
	} {
		f.Add(b)
	}
	for _, cut := range []int{0, 1, len(packedMagic), len(packedMagic) + 7, len(enc) / 2, len(enc) - 1} {
		f.Add(enc[:cut])
	}
	for _, off := range []int{0, len(packedMagic), len(packedMagic) + 8, len(enc) / 3, len(enc) / 2, len(enc) - 5, len(enc) - 1} {
		bad := bytes.Clone(enc)
		bad[off] ^= 0x40
		f.Add(bad)
	}
	bad := bytes.Clone(enc)
	bad[len(packedMagic)+8] = 0xff
	f.Add(reseal(bad))
	bad = bytes.Clone(enc)
	binary.LittleEndian.PutUint64(bad[len(packedMagic):], 1<<60)
	f.Add(reseal(bad))

	f.Fuzz(func(t *testing.T, b []byte) {
		fuzzPacked(t, b)
		if len(b) >= 4 {
			fuzzPacked(t, reseal(b))
		}
	})
}

func fuzzPacked(t *testing.T, b []byte) {
	s, err := DecodePacked(b)
	if err != nil {
		return
	}
	if !bytes.Equal(EncodePacked(s), b) {
		t.Fatalf("decoded stream re-encodes to different bytes")
	}
}
