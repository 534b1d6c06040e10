package wal

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"strconv"
	"strings"
	"syscall"
	"testing"
	"time"
)

// sampleRecords covers every kind and both demand shapes.
func sampleRecords(n int) []Record {
	recs := make([]Record, 0, n)
	for i := 0; len(recs) < n; i++ {
		t := float64(i) * 0.25
		switch i % 4 {
		case 0:
			recs = append(recs, Record{Kind: KindArrive, ID: int64(i), Time: t, Server: int32(i % 7), Size: 0.25 + float64(i%3)*0.125})
		case 1:
			recs = append(recs, Record{Kind: KindArrive, ID: int64(i), Time: t, Server: 2, Size: 0.5, Sizes: []float64{0.5, 0.125, 0.0625}})
		case 2:
			recs = append(recs, Record{Kind: KindDepart, ID: int64(i - 2), Time: t, Server: int32(i % 5)})
		default:
			recs = append(recs, Record{Kind: KindTick, ID: int64(i), Time: t, Server: -1})
		}
	}
	return recs
}

func appendAll(t *testing.T, l *Log, recs []Record) {
	t.Helper()
	for i := range recs {
		if err := l.Append(&recs[i]); err != nil {
			t.Fatalf("append %d: %v", i, err)
		}
	}
}

// appendGroups journals recs with AppendGroup, size records a group
// (the last group may be shorter).
func appendGroups(t *testing.T, l *Log, recs []Record, size int) {
	t.Helper()
	for i := 0; i < len(recs); i += size {
		if err := l.AppendGroup(recs[i:min(i+size, len(recs))]); err != nil {
			t.Fatalf("group at %d: %v", i, err)
		}
	}
}

func replayAll(t *testing.T, l *Log, from uint64) []Record {
	t.Helper()
	var got []Record
	next := from
	if err := l.Replay(from, func(seq uint64, r Record) error {
		if seq != next {
			t.Fatalf("replay seq %d, want %d", seq, next)
		}
		next++
		got = append(got, r)
		return nil
	}); err != nil {
		t.Fatalf("replay: %v", err)
	}
	return got
}

// TestAppendReplayRoundTrip pins the basic property: what goes in comes
// back, in order, with exact float bits, across a close/reopen.
func TestAppendReplayRoundTrip(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, Options{Fsync: fsyncAlways})
	if err != nil {
		t.Fatal(err)
	}
	recs := sampleRecords(100)
	appendAll(t, l, recs)
	if got := replayAll(t, l, 0); !reflect.DeepEqual(got, recs) {
		t.Fatalf("live replay differs") //nolint
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	l2, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	if l2.NextSeq() != 100 {
		t.Fatalf("reopened NextSeq = %d, want 100", l2.NextSeq())
	}
	if got := replayAll(t, l2, 0); !reflect.DeepEqual(got, recs) {
		t.Fatal("reopened replay differs")
	}
	if got := replayAll(t, l2, 60); !reflect.DeepEqual(got, recs[60:]) {
		t.Fatal("tail replay differs")
	}
}

// TestAppendGroupMatchesAppends holds AppendGroup to Append: a log
// written in groups replays the same records under the same sequence
// numbers as one written a record at a time, and holds the same bytes.
func TestAppendGroupMatchesAppends(t *testing.T) {
	recs := sampleRecords(200)
	singleDir := t.TempDir()
	single, err := Open(singleDir, Options{Fsync: fsyncAlways})
	if err != nil {
		t.Fatal(err)
	}
	appendAll(t, single, recs)
	if err := single.Close(); err != nil {
		t.Fatal(err)
	}
	want, err := os.ReadFile(filepath.Join(singleDir, fmt.Sprintf("%020d%s", 0, segSuffix)))
	if err != nil {
		t.Fatal(err)
	}
	for _, size := range []int{1, 7, 64, 200} {
		dir := t.TempDir()
		l, err := Open(dir, Options{Fsync: fsyncAlways})
		if err != nil {
			t.Fatal(err)
		}
		appendGroups(t, l, recs, size)
		if err := l.AppendGroup(nil); err != nil || l.NextSeq() != uint64(len(recs)) {
			t.Fatalf("group %d: empty group: err %v, NextSeq %d, want %d", size, err, l.NextSeq(), len(recs))
		}
		if got := replayAll(t, l, 0); !reflect.DeepEqual(got, recs) {
			t.Fatalf("group %d: replay differs from the appended records", size)
		}
		if err := l.Close(); err != nil {
			t.Fatal(err)
		}
		got, err := os.ReadFile(filepath.Join(dir, fmt.Sprintf("%020d%s", 0, segSuffix)))
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("group %d: segment bytes differ from a record-at-a-time log", size)
		}
	}
}

// TestGroupNotSplitAcrossSegments: rotation is checked after a group,
// never inside it, so every segment starts at a group boundary even
// when one group outgrows the segment size.
func TestGroupNotSplitAcrossSegments(t *testing.T) {
	const size = 10
	dir := t.TempDir()
	l, err := Open(dir, Options{SegmentBytes: 256})
	if err != nil {
		t.Fatal(err)
	}
	recs := sampleRecords(200)
	appendGroups(t, l, recs, size)
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	segs, _ := filepath.Glob(filepath.Join(dir, "*"+segSuffix))
	if len(segs) < 3 {
		t.Fatalf("got %d segments, wanted rotation", len(segs))
	}
	for _, seg := range segs {
		first, err := strconv.ParseUint(strings.TrimSuffix(filepath.Base(seg), segSuffix), 10, 64)
		if err != nil {
			t.Fatal(err)
		}
		if first%size != 0 {
			t.Fatalf("segment %s starts inside a group of %d", filepath.Base(seg), size)
		}
	}
	l2, err := Open(dir, Options{SegmentBytes: 256})
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	if got := replayAll(t, l2, 0); !reflect.DeepEqual(got, recs) {
		t.Fatal("replay across segments differs")
	}
}

// TestTornGroupTruncated cuts the segment inside a frame of the last
// group: recovery keeps the group's whole frames before the cut, drops
// the torn one and everything after it, and appends from there.
func TestTornGroupTruncated(t *testing.T) {
	recs := sampleRecords(30)
	src := t.TempDir()
	l, err := Open(src, Options{})
	if err != nil {
		t.Fatal(err)
	}
	appendGroups(t, l, recs, 20) // groups [0, 20) and [20, 30)
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	name := fmt.Sprintf("%020d%s", 0, segSuffix)
	data, err := os.ReadFile(filepath.Join(src, name))
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range []int{20, 23, 29} {
		// Frame k starts at off; cut 3 bytes into it.
		off := segHeaderLen
		for i := range recs[:k] {
			frame, err := appendRecord(nil, &recs[i])
			if err != nil {
				t.Fatal(err)
			}
			off += len(frame)
		}
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, name), data[:off+3], 0o644); err != nil {
			t.Fatal(err)
		}
		l2, err := Open(dir, Options{})
		if err != nil {
			t.Fatalf("cut in frame %d: reopen: %v", k, err)
		}
		if l2.NextSeq() != uint64(k) {
			t.Fatalf("cut in frame %d: NextSeq = %d, want %d", k, l2.NextSeq(), k)
		}
		if got := replayAll(t, l2, 0); !reflect.DeepEqual(got, recs[:k]) {
			t.Fatalf("cut in frame %d: torn replay differs", k)
		}
		appendGroups(t, l2, recs[k:], 64)
		if got := replayAll(t, l2, 0); !reflect.DeepEqual(got, recs) {
			t.Fatalf("cut in frame %d: append-after-truncate replay differs", k)
		}
		l2.Close()
	}
}

// TestRotationAndChain forces tiny segments and checks the chain
// reopens contiguously.
func TestRotationAndChain(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, Options{SegmentBytes: 256})
	if err != nil {
		t.Fatal(err)
	}
	recs := sampleRecords(200)
	appendAll(t, l, recs)
	st := l.Stats()
	if st.Segments < 3 {
		t.Fatalf("got %d segments, wanted rotation", st.Segments)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	l2, err := Open(dir, Options{SegmentBytes: 256})
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	if got := replayAll(t, l2, 0); !reflect.DeepEqual(got, recs) {
		t.Fatal("replay across segments differs")
	}
	appendAll(t, l2, recs[:10]) // the reopened tail must accept appends
	if l2.NextSeq() != 210 {
		t.Fatalf("NextSeq = %d, want 210", l2.NextSeq())
	}
}

// TestSnapshotCoversAndTruncates saves a snapshot mid-log and checks
// covered sealed segments are deleted while replay from the snapshot
// seq still works.
func TestSnapshotCoversAndTruncates(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, Options{SegmentBytes: 256})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	recs := sampleRecords(200)
	appendAll(t, l, recs)
	before := l.Stats()
	seq := l.NextSeq()
	if err := l.SaveSnapshot(seq, 12345, []byte(`{"state":"s"}`)); err != nil {
		t.Fatal(err)
	}
	after := l.Stats()
	if after.Segments >= before.Segments {
		t.Fatalf("segments %d -> %d: snapshot did not truncate", before.Segments, after.Segments)
	}
	if !after.HasSnapshot || after.SnapshotSeq != seq || after.SnapshotTime != 12345 {
		t.Fatalf("snapshot stats = %+v", after)
	}
	payload, gotSeq, ok, err := l.LoadSnapshot()
	if err != nil || !ok || gotSeq != seq || string(payload) != `{"state":"s"}` {
		t.Fatalf("LoadSnapshot = %q seq %d ok %v err %v", payload, gotSeq, ok, err)
	}
	appendAll(t, l, recs[:20])
	if got := replayAll(t, l, seq); !reflect.DeepEqual(got, recs[:20]) {
		t.Fatal("tail after snapshot differs")
	}
	// Snapshot regression is refused.
	if err := l.SaveSnapshot(seq-1, 1, nil); err == nil {
		t.Fatal("regressing snapshot accepted")
	}
	// Reopen adopts the snapshot and the remaining chain.
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	l2, err := Open(dir, Options{SegmentBytes: 256})
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	if st := l2.Stats(); !st.HasSnapshot || st.SnapshotSeq != seq {
		t.Fatalf("reopened snapshot stats = %+v", st)
	}
	if got := replayAll(t, l2, seq); !reflect.DeepEqual(got, recs[:20]) {
		t.Fatal("reopened tail differs")
	}
}

// TestTornWriteTruncated chops bytes off the final record and expects
// recovery to stop cleanly at the last whole frame — and to accept new
// appends from there.
func TestTornWriteTruncated(t *testing.T) {
	recs := sampleRecords(50)
	for _, cut := range []int64{1, 3, 7} {
		dir := t.TempDir()
		l, err := Open(dir, Options{})
		if err != nil {
			t.Fatal(err)
		}
		appendAll(t, l, recs)
		if err := l.Close(); err != nil {
			t.Fatal(err)
		}
		segs, _ := filepath.Glob(filepath.Join(dir, "*"+segSuffix))
		if len(segs) != 1 {
			t.Fatalf("got %d segments", len(segs))
		}
		fi, err := os.Stat(segs[0])
		if err != nil {
			t.Fatal(err)
		}
		if err := os.Truncate(segs[0], fi.Size()-cut); err != nil {
			t.Fatal(err)
		}
		l2, err := Open(dir, Options{})
		if err != nil {
			t.Fatalf("cut %d: reopen: %v", cut, err)
		}
		if l2.NextSeq() != uint64(len(recs)-1) {
			t.Fatalf("cut %d: NextSeq = %d, want %d", cut, l2.NextSeq(), len(recs)-1)
		}
		if got := replayAll(t, l2, 0); !reflect.DeepEqual(got, recs[:len(recs)-1]) {
			t.Fatalf("cut %d: torn replay differs", cut)
		}
		appendAll(t, l2, recs[len(recs)-1:])
		if got := replayAll(t, l2, 0); !reflect.DeepEqual(got, recs) {
			t.Fatalf("cut %d: append-after-truncate replay differs", cut)
		}
		l2.Close()
	}
}

// TestCorruptBitFlipTruncatesTail flips a byte inside the final record:
// the CRC must catch it and recovery discards that record.
func TestCorruptBitFlipTruncatesTail(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	recs := sampleRecords(10)
	appendAll(t, l, recs)
	l.Close()
	segs, _ := filepath.Glob(filepath.Join(dir, "*"+segSuffix))
	data, err := os.ReadFile(segs[0])
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)-5] ^= 0x40
	if err := os.WriteFile(segs[0], data, 0o644); err != nil {
		t.Fatal(err)
	}
	l2, err := Open(dir, Options{})
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer l2.Close()
	if l2.NextSeq() != 9 {
		t.Fatalf("NextSeq = %d, want 9", l2.NextSeq())
	}
}

// TestCorruptSealedSegmentIsFatal: damage in a non-final segment is not
// a torn tail and must refuse to open rather than silently drop data.
func TestCorruptSealedSegmentIsFatal(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, Options{SegmentBytes: 256})
	if err != nil {
		t.Fatal(err)
	}
	appendAll(t, l, sampleRecords(200))
	if l.Stats().Segments < 2 {
		t.Fatal("wanted at least two segments")
	}
	l.Close()
	segs, _ := filepath.Glob(filepath.Join(dir, "*"+segSuffix))
	data, err := os.ReadFile(segs[0])
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)-5] ^= 0x40
	if err := os.WriteFile(segs[0], data, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(dir, Options{SegmentBytes: 256}); err == nil {
		t.Fatal("corrupt sealed segment accepted")
	}
}

// TestIntervalAndObserver exercises the background syncer and the
// latency observer hook.
func TestIntervalAndObserver(t *testing.T) {
	var syncs int
	done := make(chan struct{})
	l, err := Open(t.TempDir(), Options{
		Fsync: fsyncInterval,
		SyncObserver: func(time.Duration) {
			syncs++
			if syncs == 2 {
				close(done)
			}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	appendAll(t, l, sampleRecords(4))
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("interval syncer never fired")
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestStoreMetaGuard pins the satellite bugfix: reopening a data dir
// under different shard count / dim / policy flags is refused with a
// descriptive error.
func TestStoreMetaGuard(t *testing.T) {
	dir := t.TempDir()
	meta := Meta{Shards: 4, Dim: 2, Capacity: 1, KeepAlive: 0.5, Algorithm: "firstfit"}
	st, err := OpenStore(dir, meta, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	// Matching flags reopen fine.
	st, err = OpenStore(dir, meta, Options{})
	if err != nil {
		t.Fatal(err)
	}
	st.Close()
	for _, tc := range []struct {
		mutate func(*Meta)
		want   string
	}{
		{func(m *Meta) { m.Shards = 8 }, "shard count"},
		{func(m *Meta) { m.Dim = 1 }, "dimension"},
		{func(m *Meta) { m.Capacity = 2 }, "capacity"},
		{func(m *Meta) { m.KeepAlive = 0 }, "keep-alive"},
		{func(m *Meta) { m.Algorithm = "bestfit" }, "algorithm"},
	} {
		bad := meta
		tc.mutate(&bad)
		if _, err := OpenStore(dir, bad, Options{}); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Fatalf("mismatched %s: err = %v", tc.want, err)
		}
	}
}

// TestStoreObserverRoutesShards checks that the store gives its
// SyncObserver to every shard's log: one observer sees each shard's
// fsync.
func TestStoreObserverRoutesShards(t *testing.T) {
	var syncs int
	st, err := OpenStore(t.TempDir(), Meta{Shards: 2, Dim: 1, Capacity: 1, Algorithm: "firstfit"},
		Options{Fsync: fsyncAlways, SyncObserver: func(time.Duration) { syncs++ }})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	r := Record{Kind: KindTick, ID: 1, Time: 1, Server: -1}
	for i := 0; i < 2; i++ {
		if err := st.logs[i].Append(&r); err != nil {
			t.Fatal(err)
		}
		if syncs != i+1 {
			t.Fatalf("after shard %d's append the observer saw %d fsyncs", i, syncs)
		}
	}
}

// TestAppendZeroAlloc is the acceptance pin: with fsync=off, appending
// a scalar or vector record, alone or as a group, from the shard owner
// hot path performs no allocations (mirrors wire's TestCodecZeroAlloc).
func TestAppendZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("alloc accounting is unreliable under -race")
	}
	l, err := Open(t.TempDir(), Options{Fsync: fsyncOff})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	scalar := Record{Kind: KindArrive, ID: 42, Time: 1.5, Server: 3, Size: 0.375}
	vector := Record{Kind: KindArrive, ID: 43, Time: 1.75, Server: 4, Size: 0.5, Sizes: []float64{0.5, 0.25}}
	depart := Record{Kind: KindDepart, ID: 42, Time: 2, Server: 3}
	tick := Record{Kind: KindTick, ID: 0, Time: 2.5, Server: -1}
	group := make([]Record, 0, 64)
	for len(group) < cap(group) {
		group = append(group, scalar, vector, depart, tick)
	}
	// Warm up the scratch buffer and the bufio writer.
	for _, r := range []*Record{&scalar, &vector, &depart, &tick} {
		if err := l.Append(r); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.AppendGroup(group); err != nil {
		t.Fatal(err)
	}
	if n := mallocs(1000, func() {
		l.Append(&scalar)
		l.Append(&vector)
		l.Append(&depart)
		l.Append(&tick)
	}); n != 0 {
		t.Fatalf("1000 runs of four Appends allocate %d times, want 0", n)
	}
	if n := mallocs(1000, func() { l.AppendGroup(group) }); n != 0 {
		t.Fatalf("1000 AppendGroups of %d allocate %d times, want 0", len(group), n)
	}
}

// mallocs counts the heap allocations of runs calls of f, after one
// warm-up call, at GOMAXPROCS(1) so no other goroutine's allocation is
// counted. Unlike testing.AllocsPerRun, whose integer quotient reads 0
// for an allocation rarer than once per run, it misses none. f writes
// to a file, and while it waits in a write the scheduler may hand its P
// to another thread that runs the runtime's own goroutines: the first
// such handoff allocates the thread, and the background scavenger the
// GC wakes may grow the P's timer heap. A 50 ms sleep in a syscall
// after the GC lets both happen before the count starts, so the count
// is f's alone.
func mallocs(runs int, f func()) uint64 {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	runtime.GC()
	syscall.Nanosleep(&syscall.Timespec{Nsec: 50e6}, nil)
	f()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		f()
	}
	runtime.ReadMemStats(&after)
	return after.Mallocs - before.Mallocs
}

// BenchmarkAppend reports the per-record append cost per fsync policy,
// one Append per record and in AppendGroup groups of 64 (group64).
func BenchmarkAppend(b *testing.B) {
	for _, pol := range []FsyncPolicy{fsyncOff, fsyncInterval, fsyncAlways} {
		b.Run(string(pol), func(b *testing.B) {
			l, err := Open(b.TempDir(), Options{Fsync: pol})
			if err != nil {
				b.Fatal(err)
			}
			defer l.Close()
			r := Record{Kind: KindArrive, ID: 1, Time: 1, Server: 0, Size: 0.5}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				r.ID = int64(i)
				if err := l.Append(&r); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
	b.Run("group64", func(b *testing.B) {
		l, err := Open(b.TempDir(), Options{Fsync: fsyncAlways})
		if err != nil {
			b.Fatal(err)
		}
		defer l.Close()
		group := make([]Record, 64)
		for i := range group {
			group[i] = Record{Kind: KindArrive, ID: int64(i), Time: 1, Server: 0, Size: 0.5}
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i += len(group) {
			if err := l.AppendGroup(group[:min(len(group), b.N-i)]); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// TestParseFsyncPolicy covers the flag parser.
func TestParseFsyncPolicy(t *testing.T) {
	for in, want := range map[string]FsyncPolicy{
		"always": fsyncAlways, "Interval": fsyncInterval, "off": fsyncOff, "": fsyncOff,
	} {
		got, err := ParseFsyncPolicy(in)
		if err != nil || got != want {
			t.Fatalf("ParseFsyncPolicy(%q) = %v, %v", in, got, err)
		}
	}
	if _, err := ParseFsyncPolicy("sometimes"); err == nil {
		t.Fatal("bad policy accepted")
	}
}

// TestFailStop pins the sticky-failure contract: once the underlying
// file is gone, the first failing sync poisons the log and every later
// append reports the same error.
func TestFailStop(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, Options{Fsync: fsyncAlways})
	if err != nil {
		t.Fatal(err)
	}
	r := Record{Kind: KindTick, ID: 1, Time: 1, Server: -1}
	if err := l.Append(&r); err != nil {
		t.Fatal(err)
	}
	// Yank the file out from under the writer.
	l.mu.Lock()
	l.f.Close()
	l.mu.Unlock()
	var first error
	for i := 0; i < 3 && first == nil; i++ {
		first = l.Append(&r) // bufio may absorb one write before flushing
	}
	if first == nil {
		t.Fatal("append kept succeeding on a closed file")
	}
	if err := l.Append(&r); !errors.Is(err, first) && err.Error() != first.Error() {
		t.Fatalf("sticky error changed: %v then %v", first, err)
	}
}

// TestRecordEncodingStable pins the on-disk byte layout so format
// drift is caught (the durable format is a compatibility surface).
func TestRecordEncodingStable(t *testing.T) {
	buf, err := appendRecord(nil, &Record{Kind: KindDepart, ID: 0x0102030405060708, Time: 1.0, Server: 9})
	if err != nil {
		t.Fatal(err)
	}
	const wantHex = "16000000" // depart body = fixedLen = 22 = 0x16
	got := fmt.Sprintf("%x", buf[:4])
	if got != wantHex {
		t.Fatalf("length prefix %s, want %s", got, wantHex)
	}
	if buf[8] != byte(KindDepart) || buf[9] != 0 {
		t.Fatalf("kind/flags = %x %x", buf[8], buf[9])
	}
	// id little-endian
	if fmt.Sprintf("%x", buf[10:18]) != "0807060504030201" {
		t.Fatalf("id bytes = %x", buf[10:18])
	}
	// time 1.0 = 0x3ff0000000000000 LE
	if fmt.Sprintf("%x", buf[18:26]) != "000000000000f03f" {
		t.Fatalf("time bytes = %x", buf[18:26])
	}
	if fmt.Sprintf("%x", buf[26:30]) != "09000000" {
		t.Fatalf("server bytes = %x", buf[26:30])
	}
}
