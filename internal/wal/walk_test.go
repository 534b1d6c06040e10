package wal

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

// decodeRecord is parseRecord building the whole record, demand vector
// included: the decoder FuzzDecodeRecord and walkWhole call.
func decodeRecord(buf []byte) (Record, int, error) { return parseRecord(buf, true) }

// walkWhole is the segment reader as it was before walkSegment
// streamed: one os.ReadFile of the whole segment, then a decode of
// every frame. It is kept as the reference the streaming walker is
// held to; fn also receives each frame's offset.
func walkWhole(s *segInfo, torn bool, fn func(seq uint64, off int64, r Record) error) (records uint64, validBytes int64, err error) {
	data, err := os.ReadFile(s.path)
	if err != nil {
		return 0, 0, err
	}
	if len(data) < segHeaderLen || string(data[:len(segMagic)]) != segMagic {
		return 0, 0, fmt.Errorf("wal: %s: bad segment header", filepath.Base(s.path))
	}
	if seq := binary.LittleEndian.Uint64(data[len(segMagic):]); seq != s.firstSeq {
		return 0, 0, fmt.Errorf("wal: %s: header seq %d != name", filepath.Base(s.path), seq)
	}
	off := segHeaderLen
	for off < len(data) {
		r, n, err := decodeRecord(data[off:])
		if err != nil {
			if torn {
				return records, int64(off), nil
			}
			return 0, 0, fmt.Errorf("wal: %s: record %d at offset %d: %w",
				filepath.Base(s.path), records, off, err)
		}
		if fn != nil {
			if err := fn(s.firstSeq+records, int64(off), r); err != nil {
				return 0, 0, err
			}
		}
		off += n
		records++
	}
	return records, int64(off), nil
}

// walked is what one walk of a segment returned.
type walked struct {
	recs       []Record
	offs       []int64 // each record's frame offset
	records    uint64
	validBytes int64
	err        string
}

// segmentFile encodes recs as a segment whose first record carries
// firstSeq.
func segmentFile(firstSeq uint64, recs []Record) []byte {
	buf := make([]byte, segHeaderLen)
	copy(buf, segMagic)
	binary.LittleEndian.PutUint64(buf[len(segMagic):], firstSeq)
	for i := range recs {
		var err error
		if buf, err = appendRecord(buf, &recs[i]); err != nil {
			panic(err)
		}
	}
	return buf
}

// checkWalks holds walkSegment to walkWhole on the segment file at
// path, with and without the torn-tail rule: the same records (demand
// vectors included), record count, valid byte count and error. It also
// checks the validate-only walk (no fn), and that a walk resumed at the
// frame of a record from the resume-th on, at the offset the reference
// found it, yields exactly the rest of the segment: at every such
// record, or with every false at the resume-th, the middle one and the
// end alone.
func checkWalks(t *testing.T, label, path string, firstSeq uint64, resume int, every bool) {
	t.Helper()
	s := &segInfo{firstSeq: firstSeq, path: path}
	errText := func(err error) string {
		if err == nil {
			return ""
		}
		return err.Error()
	}
	for _, torn := range []bool{false, true} {
		var want walked
		n, vb, err := walkWhole(s, torn, func(_ uint64, off int64, r Record) error {
			want.recs, want.offs = append(want.recs, r), append(want.offs, off)
			return nil
		})
		want.records, want.validBytes, want.err = n, vb, errText(err)
		if err != nil {
			want.recs = nil
		}
		offs := want.offs
		want.offs = nil

		var got walked
		next := firstSeq
		end, err := walkSegment(s, segWalk{torn: torn, fn: func(seq uint64, r Record) error {
			if seq != next {
				t.Fatalf("%s: record seq %d, want %d", label, seq, next)
			}
			next++
			got.recs = append(got.recs, r)
			return nil
		}})
		got.records, got.validBytes, got.err = end.seq-firstSeq, end.off, errText(err)
		if err != nil {
			got.recs, got.records = nil, 0
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%s (torn %v): streaming walk differs from the whole-file walk:\n got  %d records, %d bytes, err %q\n want %d records, %d bytes, err %q",
				label, torn, got.records, got.validBytes, got.err, want.records, want.validBytes, want.err)
		}

		end, err = walkSegment(s, segWalk{torn: torn})
		if err != nil {
			end = segPos{seq: firstSeq}
		}
		if e := errText(err); end.seq-firstSeq != want.records || end.off != want.validBytes || e != want.err {
			t.Fatalf("%s (torn %v): validate-only walk: %d records, %d bytes, err %q; want %d, %d, %q",
				label, torn, end.seq-firstSeq, end.off, e, want.records, want.validBytes, want.err)
		}

		if want.err != "" {
			continue
		}
		// From each resume point: a validate-only walk ends where the
		// reference does, and a walk that decodes starts at that record;
		// from three of them, it yields exactly the rest of the segment.
		errStop := errors.New("stop")
		mid := (resume + len(offs)) / 2
		for k := resume; k <= len(offs); k++ {
			full := k == resume || k == mid || k == len(offs)
			if !every && !full {
				continue
			}
			from := segPos{seq: firstSeq + uint64(k), off: want.validBytes}
			if k < len(offs) {
				from.off = offs[k]
			}
			end, err := walkSegment(s, segWalk{torn: torn, from: from})
			if err != nil || end.seq-firstSeq != want.records || end.off != want.validBytes {
				t.Fatalf("%s (torn %v): validate-only walk resumed at record %d: to %+v, err %v; want %d records to offset %d",
					label, torn, k, end, err, want.records, want.validBytes)
			}
			next := k
			_, err = walkSegment(s, segWalk{torn: torn, from: from, fn: func(seq uint64, r Record) error {
				if seq != firstSeq+uint64(next) || !reflect.DeepEqual(r, want.recs[next]) {
					return fmt.Errorf("record %d differs from the reference's record %d", seq-firstSeq, next)
				}
				if next++; !full {
					return errStop
				}
				return nil
			}})
			if err != nil && err != errStop || next != len(offs) && (full || next != k+1) {
				t.Fatalf("%s (torn %v): walk resumed at record %d yielded up to record %d, err %v",
					label, torn, k, next, err)
			}
		}
	}
}

// walkRecords is a segment's worth of every kind, with one d = 1024
// arrival in seven: frames from 30 to 8,232 bytes, so a segment of a few
// hundred of them has frames straddling each 64 KiB buffer boundary.
func walkRecords(n int, seed int64) []Record {
	rng := rand.New(rand.NewSource(seed))
	recs := sampleRecords(n)
	for i := range recs {
		if i%7 == 3 {
			sizes := make([]float64, maxDim)
			for j := range sizes {
				sizes[j] = rng.Float64()
			}
			recs[i] = Record{Kind: KindArrive, ID: int64(i), Time: recs[i].Time, Server: int32(i % 11), Size: sizes[0], Sizes: sizes}
		}
	}
	return recs
}

// TestWalkSegmentMatchesWholeFile holds the streaming walker to the
// whole-file reference on generated segments: intact, cut short at
// random points and around each 64 KiB boundary, bit-flipped, with
// garbage appended, and with bad headers.
func TestWalkSegmentMatchesWholeFile(t *testing.T) {
	const firstSeq = 1000
	recs := walkRecords(240, 1)
	seg := segmentFile(firstSeq, recs)
	// The walk must cross the buffer with frames cut by its boundary.
	straddles := 0
	for off, i := segHeaderLen, 0; i < len(recs); i++ {
		n := frameLen + fixedLen
		if recs[i].Kind == KindArrive {
			n += arriveExtra + 8*len(recs[i].Sizes)
		}
		if off/walkBuffer != (off+n-1)/walkBuffer {
			straddles++
		}
		off += n
	}
	if len(seg) < 3*walkBuffer || straddles < 3 {
		t.Fatalf("segment of %d bytes with %d frames straddling a buffer boundary; want >= %d bytes and 3 frames", len(seg), straddles, 3*walkBuffer)
	}

	dir := t.TempDir()
	path := filepath.Join(dir, fmt.Sprintf("%020d%s", firstSeq, segSuffix))
	// Every record is a resume point of the intact segment, of one cut
	// or with garbage appended at each boundary; three are of the others.
	check := func(label string, data []byte, every bool) {
		t.Helper()
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		checkWalks(t, label, path, firstSeq, 0, every)
	}
	clone := func() []byte { return append([]byte(nil), seg...) }

	check("intact", seg, true)
	check("empty file", nil, true)
	check("short header", seg[:segHeaderLen-1], true)
	check("header only", seg[:segHeaderLen], true)
	wrongSeq := clone()
	binary.LittleEndian.PutUint64(wrongSeq[len(segMagic):], firstSeq+1)
	check("header seq differs from name", wrongSeq, true)

	rng := rand.New(rand.NewSource(2))
	var cuts []int
	for b := walkBuffer; b < len(seg); b += walkBuffer {
		cuts = append(cuts, b-frameLen-1, b-1, b, b+1, b+frameLen)
		check(fmt.Sprintf("cut at %d", b), seg[:b], true)
	}
	for range 24 {
		cuts = append(cuts, segHeaderLen+rng.Intn(len(seg)-segHeaderLen))
	}
	for _, c := range cuts {
		check(fmt.Sprintf("cut at %d", c), seg[:c], false)
	}

	flips := []int{0, len(segMagic), segHeaderLen, segHeaderLen + 4, walkBuffer - 1, walkBuffer, len(seg) - 1}
	for range 24 {
		flips = append(flips, rng.Intn(len(seg)))
	}
	for _, p := range flips {
		data := clone()
		data[p] ^= 1 << rng.Intn(8)
		check(fmt.Sprintf("bit flip at %d", p), data, false)
	}

	huge := binary.LittleEndian.AppendUint32(nil, maxBody+1)
	for _, tail := range [][]byte{{0}, make([]byte, frameLen), huge, {0x1e, 0, 0, 0, 1, 2, 3, 4, 5}} {
		check(fmt.Sprintf("garbage %x appended", tail), append(clone(), tail...), true)
	}
}

// TestWalkSegmentAbortsOnFnError checks a callback's error ends the
// walk with that error, as it did from the whole-file reader.
func TestWalkSegmentAbortsOnFnError(t *testing.T) {
	path := filepath.Join(t.TempDir(), fmt.Sprintf("%020d%s", 0, segSuffix))
	if err := os.WriteFile(path, segmentFile(0, sampleRecords(10)), 0o644); err != nil {
		t.Fatal(err)
	}
	stop := errors.New("stop")
	calls := 0
	_, err := walkSegment(&segInfo{path: path}, segWalk{fn: func(seq uint64, _ Record) error {
		if calls++; seq == 4 {
			return stop
		}
		return nil
	}})
	if err != stop || calls != 5 {
		t.Fatalf("walk ended with %v after %d records, want the callback's error after 5", err, calls)
	}
}

// TestReplayFromSnapshotSkipsCoveredFrames pins the one decode of a
// recovered tail: Open notes where the snapshot's first uncovered frame
// begins, and a Replay from the snapshot starts there, so damage to a
// frame the snapshot covers no longer stops it. A Replay from 0 (the
// service's ShardEvents) still checks every frame.
func TestReplayFromSnapshotSkipsCoveredFrames(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	recs := sampleRecords(100)
	appendAll(t, l, recs[:60])
	if err := l.SaveSnapshot(60, 1, []byte("state")); err != nil {
		t.Fatal(err)
	}
	appendAll(t, l, recs[60:])
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	if l, err = Open(dir, Options{}); err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	segs, err := filepath.Glob(filepath.Join(dir, "*"+segSuffix))
	if err != nil || len(segs) != 1 {
		t.Fatalf("want one segment, got %v (%v)", segs, err)
	}
	data, err := os.ReadFile(segs[0])
	if err != nil {
		t.Fatal(err)
	}
	data[segHeaderLen+frameLen+2] ^= 0xff // the first frame's job ID
	if err := os.WriteFile(segs[0], data, 0o644); err != nil {
		t.Fatal(err)
	}
	if got := replayAll(t, l, 60); !reflect.DeepEqual(got, recs[60:]) {
		t.Fatalf("replay from the snapshot returned %d records, want the %d after it", len(got), len(recs[60:]))
	}
	if err := l.Replay(0, func(uint64, Record) error { return nil }); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("replay from 0 over a damaged frame: %v, want ErrCorrupt", err)
	}
}

// FuzzWalkSegment holds the streaming walker to the whole-file
// reference on arbitrary segment bytes. With lead 0 the input is the
// whole file; otherwise it follows a valid header and lead % 4096 tick
// frames (30 bytes each), so the fuzzed frames can sit across the
// 64 KiB read-buffer boundary (lead 2,184 starts them on it). Every
// fuzzed frame is a resume point.
func FuzzWalkSegment(f *testing.F) {
	const firstSeq = 7
	seg := segmentFile(firstSeq, sampleRecords(12))
	vec := segmentFile(firstSeq, walkRecords(8, 3))
	f.Add(uint16(0), seg)
	f.Add(uint16(0), seg[:len(seg)-5])
	f.Add(uint16(0), vec)
	f.Add(uint16(2183), seg[segHeaderLen:])
	f.Add(uint16(2184), vec[segHeaderLen:])
	f.Add(uint16(2000), vec[segHeaderLen:len(vec)-9])
	tick := Record{Kind: KindTick, ID: 1, Time: 1, Server: -1}
	f.Fuzz(func(t *testing.T, lead uint16, data []byte) {
		file := data
		if lead %= 4096; lead > 0 {
			ticks := make([]Record, lead)
			for i := range ticks {
				ticks[i] = tick
			}
			file = append(segmentFile(firstSeq, ticks), data...)
		}
		path := filepath.Join(t.TempDir(), fmt.Sprintf("%020d%s", firstSeq, segSuffix))
		if err := os.WriteFile(path, file, 0o644); err != nil {
			t.Fatal(err)
		}
		checkWalks(t, "fuzzed segment", path, firstSeq, int(lead), true)
	})
}
