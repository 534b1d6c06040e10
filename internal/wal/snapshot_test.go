package wal

import (
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

// frameOffsets returns the byte offset of each of recs' frames in a
// segment that holds them from its first frame on.
func frameOffsets(t *testing.T, recs []Record) []int64 {
	t.Helper()
	offs := make([]int64, len(recs))
	off := int64(segHeaderLen)
	for i := range recs {
		frame, err := appendRecord(nil, &recs[i])
		if err != nil {
			t.Fatal(err)
		}
		offs[i] = off
		off += int64(len(frame))
	}
	return offs
}

// flipByte XORs the byte at off of the file at path with 0xff.
func flipByte(t *testing.T, path string, off int64) {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[off] ^= 0xff
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
}

// snapshotLog writes recs to a fresh log in dir with a snapshot at
// snapAt, closes it and returns the path of its one segment.
func snapshotLog(t *testing.T, dir string, recs []Record, snapAt int) string {
	t.Helper()
	l, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	appendAll(t, l, recs[:snapAt])
	if err := l.SaveSnapshot(uint64(snapAt), 1, []byte("state")); err != nil {
		t.Fatal(err)
	}
	appendAll(t, l, recs[snapAt:])
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	segs, err := filepath.Glob(filepath.Join(dir, "*"+segSuffix))
	if err != nil || len(segs) != 1 {
		t.Fatalf("want one segment, got %v (%v)", segs, err)
	}
	return segs[0]
}

// TestCoveredFrameDamageKeepsTail damages a frame of the tail segment
// that the snapshot covers. Open starts at the snapshot's frame, so the
// records synced after the snapshot all survive: NextSeq stays at the
// journal's true end and a Replay from the snapshot yields each of them.
// Reading the covered frame (a Replay from 0) still fails on its CRC.
func TestCoveredFrameDamageKeepsTail(t *testing.T) {
	recs := sampleRecords(100)
	for _, k := range []int{0, 7, 59} {
		dir := t.TempDir()
		seg := snapshotLog(t, dir, recs, 60)
		flipByte(t, seg, frameOffsets(t, recs)[k]+frameLen+2) // frame k's job ID
		l, err := Open(dir, Options{})
		if err != nil {
			t.Fatalf("frame %d damaged: reopen: %v", k, err)
		}
		if got := l.NextSeq(); got != 100 {
			t.Fatalf("frame %d damaged: NextSeq = %d, want 100", k, got)
		}
		if got := replayAll(t, l, 60); !reflect.DeepEqual(got, recs[60:]) {
			t.Fatalf("frame %d damaged: replay from the snapshot returned %d records, want the %d after it", k, len(got), len(recs[60:]))
		}
		if err := l.Replay(0, func(uint64, Record) error { return nil }); !errors.Is(err, ErrCorrupt) {
			t.Fatalf("frame %d damaged: replay from 0: %v, want ErrCorrupt", k, err)
		}
		l.Close()
	}
}

// TestSnapshotPositionMustHold: the snapshot records where its frame
// lies, and a journal that contradicts it is refused with both files
// named, never truncated to fit. The segment is cut below the recorded
// offset in one case and is missing in the other.
func TestSnapshotPositionMustHold(t *testing.T) {
	recs := sampleRecords(100)
	t.Run("offset past the segment's end", func(t *testing.T) {
		dir := t.TempDir()
		seg := snapshotLog(t, dir, recs, 100)
		data, err := os.ReadFile(seg)
		if err != nil {
			t.Fatal(err)
		}
		cut := data[:frameOffsets(t, recs)[90]]
		if err := os.WriteFile(seg, cut, 0o644); err != nil {
			t.Fatal(err)
		}
		_, err = Open(dir, Options{})
		if err == nil || !strings.Contains(err.Error(), "snap-00000000000000000100.snap") ||
			!strings.Contains(err.Error(), filepath.Base(seg)) {
			t.Fatalf("Open of a segment cut below the snapshot's offset: %v; want a refusal naming both files", err)
		}
		if after, err := os.ReadFile(seg); err != nil || !reflect.DeepEqual(after, cut) {
			t.Fatalf("the refused segment changed: %d bytes, want %d (%v)", len(after), len(cut), err)
		}
	})
	t.Run("segment missing", func(t *testing.T) {
		dir := t.TempDir()
		l, err := Open(dir, Options{SegmentBytes: 256})
		if err != nil {
			t.Fatal(err)
		}
		appendAll(t, l, recs[:60])
		if err := l.SaveSnapshot(60, 1, []byte("state")); err != nil {
			t.Fatal(err)
		}
		holding := l.Stats()
		appendAll(t, l, recs[60:])
		if err := l.Close(); err != nil {
			t.Fatal(err)
		}
		if holding.Segments != 1 {
			t.Fatalf("%d segments after the snapshot, want 1", holding.Segments)
		}
		segs, err := filepath.Glob(filepath.Join(dir, "*"+segSuffix))
		if err != nil || len(segs) < 2 {
			t.Fatalf("want rotation after the snapshot, got %v (%v)", segs, err)
		}
		if err := os.Remove(segs[0]); err != nil {
			t.Fatal(err)
		}
		if _, err := Open(dir, Options{SegmentBytes: 256}); err == nil || !strings.Contains(err.Error(), filepath.Base(segs[0])) {
			t.Fatalf("Open without the snapshot's segment: %v; want a refusal naming %s", err, filepath.Base(segs[0]))
		}
	})
}

// TestCoveredSegmentsNotWalked: a sealed segment wholly below the
// snapshot (one a crash kept from being pruned) is not walked by Open,
// so damage to it does not refuse the log; it stays on the books, and
// reading it (a Replay from 0) reports the damage.
func TestCoveredSegmentsNotWalked(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, Options{SegmentBytes: 256})
	if err != nil {
		t.Fatal(err)
	}
	recs := sampleRecords(200)
	appendAll(t, l, recs[:150])
	segs, err := filepath.Glob(filepath.Join(dir, "*"+segSuffix))
	if err != nil || len(segs) < 3 {
		t.Fatalf("want rotation, got %v (%v)", segs, err)
	}
	first, err := os.ReadFile(segs[0])
	if err != nil {
		t.Fatal(err)
	}
	if err := l.SaveSnapshot(150, 1, []byte("state")); err != nil {
		t.Fatal(err)
	}
	appendAll(t, l, recs[150:])
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	first[len(first)-5] ^= 0xff
	if err := os.WriteFile(segs[0], first, 0o644); err != nil {
		t.Fatal(err)
	}
	if l, err = Open(dir, Options{SegmentBytes: 256}); err != nil {
		t.Fatalf("Open with a damaged covered segment: %v", err)
	}
	defer l.Close()
	if got := l.NextSeq(); got != 200 {
		t.Fatalf("NextSeq = %d, want 200", got)
	}
	if got := replayAll(t, l, 150); !reflect.DeepEqual(got, recs[150:]) {
		t.Fatalf("replay from the snapshot returned %d records, want %d", len(got), len(recs[150:]))
	}
	if err := l.Replay(0, func(uint64, Record) error { return nil }); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("replay from 0 over the damaged covered segment: %v, want ErrCorrupt", err)
	}
}

// TestSnapshotBelowJournalEnd: a snapshot of a seq below the journal's
// end records no position, so Open walks every segment; it still
// reopens at the journal's end, and refuses a journal whose valid
// frames end below the snapshot.
func TestSnapshotBelowJournalEnd(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	recs := sampleRecords(100)
	appendAll(t, l, recs)
	if err := l.SaveSnapshot(50, 1, []byte("state")); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	if l, err = Open(dir, Options{}); err != nil {
		t.Fatal(err)
	}
	if got := l.NextSeq(); got != 100 {
		t.Fatalf("NextSeq = %d, want 100", got)
	}
	if got := replayAll(t, l, 50); !reflect.DeepEqual(got, recs[50:]) {
		t.Fatalf("replay from the snapshot returned %d records, want %d", len(got), len(recs[50:]))
	}
	l.Close()
	segs, err := filepath.Glob(filepath.Join(dir, "*"+segSuffix))
	if err != nil || len(segs) != 1 {
		t.Fatalf("want one segment, got %v (%v)", segs, err)
	}
	flipByte(t, segs[0], frameOffsets(t, recs)[7]+frameLen+2)
	if _, err := Open(dir, Options{}); err == nil || !strings.Contains(err.Error(), "below the seq 50") {
		t.Fatalf("Open of a journal ending at 7 under a snapshot at 50: %v; want a refusal", err)
	}
}

// TestOpenRemovesSnapshotTemp: a snapshot temp file, which a crash
// before its rename leaves behind, is removed by Open.
func TestOpenRemovesSnapshotTemp(t *testing.T) {
	dir := t.TempDir()
	snapshotLog(t, dir, sampleRecords(10), 5)
	tmp := filepath.Join(dir, "snap-00000000000000000010.snap.tmp")
	if err := os.WriteFile(tmp, []byte("a snapshot cut short"), 0o644); err != nil {
		t.Fatal(err)
	}
	l, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	if _, err := os.Stat(tmp); !os.IsNotExist(err) {
		t.Fatalf("the snapshot temp file survived Open: %v", err)
	}
	if st := l.Stats(); !st.HasSnapshot || st.SnapshotSeq != 5 {
		t.Fatalf("adopted snapshot %+v, want the one at 5", st)
	}
}

// TestLoadSnapshotReadsOnce: the first LoadSnapshot after Open returns
// the payload Open read and checked, without reading the file again;
// it then drops it, so a later call reads the file.
func TestLoadSnapshotReadsOnce(t *testing.T) {
	dir := t.TempDir()
	snapshotLog(t, dir, sampleRecords(10), 5)
	l, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	if err := os.Remove(filepath.Join(dir, "snap-00000000000000000005.snap")); err != nil {
		t.Fatal(err)
	}
	payload, seq, ok, err := l.LoadSnapshot()
	if err != nil || !ok || seq != 5 || string(payload) != "state" {
		t.Fatalf("first LoadSnapshot = %q, %d, %v, %v; want the payload Open read", payload, seq, ok, err)
	}
	if _, _, _, err := l.LoadSnapshot(); !os.IsNotExist(err) {
		t.Fatalf("second LoadSnapshot after the file went: %v, want a read of the missing file", err)
	}
}
