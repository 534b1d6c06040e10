package wal

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"
)

// FsyncPolicy selects when appended records reach stable storage.
type FsyncPolicy string

const (
	// fsyncAlways syncs after every append, before the caller replies:
	// an acknowledged event is on disk. Highest latency, zero loss.
	fsyncAlways FsyncPolicy = "always"
	// fsyncInterval flushes and syncs every fsyncPeriod on a
	// background timer: a crash loses at most the last period's
	// acknowledged events (replay still recovers a consistent prefix).
	fsyncInterval FsyncPolicy = "interval"
	// fsyncOff leaves durability to the kernel (flush on rotation and
	// close only): fastest, loses whatever the page cache held.
	fsyncOff FsyncPolicy = "off"
)

// ParseFsyncPolicy validates a -fsync flag value.
func ParseFsyncPolicy(s string) (FsyncPolicy, error) {
	switch FsyncPolicy(strings.ToLower(s)) {
	case fsyncAlways:
		return fsyncAlways, nil
	case fsyncInterval:
		return fsyncInterval, nil
	case fsyncOff, "":
		return fsyncOff, nil
	}
	return "", fmt.Errorf("wal: unknown fsync policy %q (valid: %s, %s, %s)", s, fsyncAlways, fsyncInterval, fsyncOff)
}

// Options configures one shard log.
type Options struct {
	// Fsync is the durability policy; empty means fsyncOff.
	Fsync FsyncPolicy
	// SegmentBytes rotates the active segment once it exceeds this size
	// (default 64 MiB).
	SegmentBytes int64
	// SyncObserver, when set, receives the duration of every fsync on
	// the append path (the service feeds its fsync latency histogram).
	SyncObserver func(time.Duration)
}

// fsyncPeriod is the background sync period under fsyncInterval.
const fsyncPeriod = 50 * time.Millisecond

const (
	segSuffix      = ".wal"
	snapSuffix     = ".snap"
	snapPrefix     = "snap-"
	defaultSegment = 64 << 20
	segMagic       = "DBPWAL01"
	snapMagic      = "DBPSNAP1"
	segHeaderLen   = len(segMagic) + 8 // magic + firstSeq u64
)

// segInfo is one closed (or active) segment on disk.
type segInfo struct {
	firstSeq uint64
	records  uint64
	bytes    int64 // including header
	path     string
}

// Stats is a point-in-time durability gauge for one shard log.
type Stats struct {
	// Segments and Bytes cover every live segment file (active included).
	Segments int   `json:"segments"`
	Bytes    int64 `json:"bytes"`
	// NextSeq is the sequence number the next append will take — equal
	// to the owning stream's event count.
	NextSeq uint64 `json:"next_seq"`
	// SnapshotSeq is the event count the newest durable snapshot covers
	// (records with seq < SnapshotSeq are restorable without replay);
	// HasSnapshot distinguishes "no snapshot yet" from seq 0.
	SnapshotSeq  uint64 `json:"snapshot_seq"`
	HasSnapshot  bool   `json:"has_snapshot"`
	SnapshotTime int64  `json:"snapshot_unix_nano,omitempty"`
}

// Log is one shard's write-ahead log: an append-only sequence of
// records split across segment files, plus at most one durable snapshot
// covering a prefix of it. Appends are serialized by an internal mutex
// (the owner goroutine is the only appender; the background interval
// syncer shares the flush path).
type Log struct {
	dir  string
	opts Options

	mu       sync.Mutex
	f        *os.File
	w        *bufio.Writer
	buf      []byte // append scratch: one encoded frame
	nextSeq  uint64
	segStart uint64 // firstSeq of the active segment
	segBytes int64
	sealed   []segInfo // older segments, ascending firstSeq
	snapSeq  uint64
	hasSnap  bool
	snapTime int64
	// snapPos is where Open found the frame of sequence snapSeq (zero
	// if it found none): a Replay from there on starts at it instead of
	// decoding the frames the snapshot covers a second time.
	snapPos segPos
	err     error // sticky: first write/sync failure fails the log

	stop chan struct{} // interval syncer shutdown
	done chan struct{}
}

// Open opens (or creates) the shard log in dir, recovering the segment
// chain: every sealed segment must decode cleanly end to end, while a
// torn frame at the tail of the last segment — the footprint of a crash
// mid-write — is truncated away.
func Open(dir string, opts Options) (*Log, error) {
	if opts.Fsync == "" {
		opts.Fsync = fsyncOff
	}
	if opts.SegmentBytes <= 0 {
		opts.SegmentBytes = defaultSegment
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	l := &Log{dir: dir, opts: opts}
	segs, err := l.scanDir()
	if err != nil {
		return nil, err
	}
	if err := l.recoverSegments(segs); err != nil {
		return nil, err
	}
	if l.opts.Fsync == fsyncInterval {
		l.stop = make(chan struct{})
		l.done = make(chan struct{})
		go l.syncLoop()
	}
	return l, nil
}

// scanDir inventories segment files (sorted by first sequence) and the
// newest valid snapshot.
func (l *Log) scanDir() ([]segInfo, error) {
	entries, err := os.ReadDir(l.dir)
	if err != nil {
		return nil, err
	}
	var segs []segInfo
	var snaps []string
	for _, e := range entries {
		name := e.Name()
		switch {
		case strings.HasSuffix(name, segSuffix):
			seq, err := strconv.ParseUint(strings.TrimSuffix(name, segSuffix), 10, 64)
			if err != nil {
				return nil, fmt.Errorf("wal: alien segment file %s", name)
			}
			segs = append(segs, segInfo{firstSeq: seq, path: filepath.Join(l.dir, name)})
		case strings.HasPrefix(name, snapPrefix) && strings.HasSuffix(name, snapSuffix):
			snaps = append(snaps, filepath.Join(l.dir, name))
		}
	}
	sort.Slice(segs, func(i, j int) bool { return segs[i].firstSeq < segs[j].firstSeq })
	sort.Strings(snaps) // ascending seq: the zero-padded name sorts numerically
	// Adopt the newest structurally valid snapshot; drop the rest (a
	// crash between writing a new snapshot and pruning old ones leaves
	// extras behind).
	for i := len(snaps) - 1; i >= 0; i-- {
		seq, tm, _, err := readSnapshotFile(snaps[i], false)
		if err != nil {
			continue
		}
		l.snapSeq, l.snapTime, l.hasSnap = seq, tm, true
		for j := 0; j < i; j++ {
			os.Remove(snaps[j])
		}
		break
	}
	return segs, nil
}

// recoverSegments verifies the chain and opens the tail for append.
func (l *Log) recoverSegments(segs []segInfo) error {
	if len(segs) == 0 {
		first := uint64(0)
		if l.hasSnap {
			first = l.snapSeq
		}
		return l.createSegment(first)
	}
	for i := range segs {
		end, mark, err := walkSegment(&segs[i], segWalk{torn: i == len(segs)-1, mark: l.snapSeq})
		if err != nil {
			return err
		}
		segs[i].records, segs[i].bytes = end.seq-segs[i].firstSeq, end.off
		if mark.off != 0 {
			l.snapPos = mark
		}
		if i > 0 {
			if want := segs[i-1].firstSeq + segs[i-1].records; segs[i].firstSeq != want {
				return fmt.Errorf("wal: segment chain gap: %s starts at seq %d, want %d",
					filepath.Base(segs[i].path), segs[i].firstSeq, want)
			}
		}
	}
	tail := segs[len(segs)-1]
	l.sealed = segs[:len(segs)-1]
	l.segStart = tail.firstSeq
	l.segBytes = tail.bytes
	l.nextSeq = tail.firstSeq + tail.records
	f, err := os.OpenFile(tail.path, os.O_RDWR, 0o644)
	if err != nil {
		return err
	}
	// Truncate any torn tail found by walkSegment, then append after
	// the last valid frame.
	if err := f.Truncate(tail.bytes); err != nil {
		f.Close()
		return err
	}
	if _, err := f.Seek(tail.bytes, io.SeekStart); err != nil {
		f.Close()
		return err
	}
	l.f = f
	l.w = bufio.NewWriter(f)
	return nil
}

// segPos is a place in one segment file: the frame of the record with
// sequence seq begins at byte off.
type segPos struct {
	seq uint64
	off int64
}

// segWalk is one pass of walkSegment over a segment file.
type segWalk struct {
	// from is where the pass starts; the zero value means the first
	// frame. The header is checked either way.
	from segPos
	// torn is set for the last segment in recovery: an undecodable
	// frame there is the footprint of a crash mid-write, so the pass
	// stops at it and the returned end is where the caller truncates.
	// Otherwise every frame must decode.
	torn bool
	// mark is a sequence number whose frame position the pass reports.
	mark uint64
	// fn receives every record in order with its sequence number; nil
	// checks the frames but builds no demand vector. fn returning an
	// error aborts the walk with it.
	fn func(seq uint64, r Record) error
}

// walkBuffer is the read buffer of one segment walk. The largest frame
// (frameLen+maxBody bytes) fits in it, and a walk holds no more than
// it, whatever the segment's size.
const walkBuffer = 64 << 10

// walkSegment is the one reader of a segment file: it validates the
// header against s.firstSeq, then streams the frames from w.from on
// through one walkBuffer, decoding each in order. It returns the
// position after the last valid frame and, when the pass met it, the
// position of w.mark's frame (the zero segPos if not).
func walkSegment(s *segInfo, w segWalk) (end, mark segPos, err error) {
	f, err := os.Open(s.path)
	if err != nil {
		return segPos{}, segPos{}, err
	}
	defer f.Close()
	r := bufio.NewReaderSize(f, walkBuffer)
	hdr, err := r.Peek(segHeaderLen)
	if err != nil && err != io.EOF {
		return segPos{}, segPos{}, err
	}
	if len(hdr) < segHeaderLen || string(hdr[:len(segMagic)]) != segMagic {
		return segPos{}, segPos{}, fmt.Errorf("wal: %s: bad segment header", filepath.Base(s.path))
	}
	if seq := binary.LittleEndian.Uint64(hdr[len(segMagic):]); seq != s.firstSeq {
		return segPos{}, segPos{}, fmt.Errorf("wal: %s: header seq %d != name", filepath.Base(s.path), seq)
	}
	at := segPos{seq: s.firstSeq, off: int64(segHeaderLen)}
	if w.from.off > at.off {
		if _, err := f.Seek(w.from.off, io.SeekStart); err != nil {
			return segPos{}, segPos{}, err
		}
		r.Reset(f)
		at = w.from
	} else {
		r.Discard(segHeaderLen)
	}
	for {
		// Decode the frames the buffer holds whole; a frame cut by its
		// end is read again from its start once the buffer is refilled.
		window, err := r.Peek(walkBuffer)
		if err != nil && err != io.EOF {
			return segPos{}, segPos{}, err
		}
		eof, used := err == io.EOF, 0
		for {
			if at.seq == w.mark {
				mark = at
			}
			if eof && used == len(window) {
				return at, mark, nil
			}
			rec, n, err := parseRecord(window[used:], w.fn != nil)
			if err == errShortFrame && !eof {
				break
			}
			if err != nil {
				if w.torn {
					return at, mark, nil
				}
				return segPos{}, segPos{}, fmt.Errorf("wal: %s: record %d at offset %d: %w",
					filepath.Base(s.path), at.seq-s.firstSeq, at.off, err)
			}
			if w.fn != nil {
				if err := w.fn(at.seq, rec); err != nil {
					return segPos{}, segPos{}, err
				}
			}
			used += n
			at.seq++
			at.off += int64(n)
		}
		r.Discard(used)
	}
}

// createSegment starts a fresh active segment whose first record will
// carry firstSeq.
func (l *Log) createSegment(firstSeq uint64) error {
	path := filepath.Join(l.dir, fmt.Sprintf("%020d%s", firstSeq, segSuffix))
	f, err := os.OpenFile(path, os.O_CREATE|os.O_EXCL|os.O_RDWR, 0o644)
	if err != nil {
		return err
	}
	var hdr [segHeaderLen]byte
	copy(hdr[:], segMagic)
	binary.LittleEndian.PutUint64(hdr[len(segMagic):], firstSeq)
	if _, err := f.Write(hdr[:]); err != nil {
		f.Close()
		return err
	}
	if l.opts.Fsync != fsyncOff {
		if err := f.Sync(); err != nil {
			f.Close()
			return err
		}
		if err := syncDir(l.dir); err != nil {
			f.Close()
			return err
		}
	}
	l.f = f
	if l.w == nil {
		l.w = bufio.NewWriter(f)
	} else {
		l.w.Reset(f)
	}
	l.segStart = firstSeq
	l.segBytes = int64(segHeaderLen)
	if firstSeq > l.nextSeq {
		l.nextSeq = firstSeq
	}
	return nil
}

// Append journals one record, assigning it the next sequence number:
// the group of one (see AppendGroup).
func (l *Log) Append(r *Record) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.err != nil {
		return l.err
	}
	var err error
	if l.buf, err = appendRecord(l.buf[:0], r); err != nil {
		return err // encoding error: nothing written, log still healthy
	}
	return l.commit(1)
}

// AppendGroup journals recs as one group, assigning them consecutive
// sequence numbers: one buffered write, under fsyncAlways one fsync
// before it returns, and a rotation check only after the whole group,
// so a group never spans two segments. A write or sync failure is
// sticky: the log refuses further appends, keeping the divergence
// between disk and memory bounded at the first failed group. An empty
// group writes nothing.
func (l *Log) AppendGroup(recs []Record) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.err != nil || len(recs) == 0 {
		return l.err
	}
	buf := l.buf[:0]
	for i := range recs {
		var err error
		if buf, err = appendRecord(buf, &recs[i]); err != nil {
			l.buf = buf
			return err // encoding error: nothing written, log still healthy
		}
	}
	l.buf = buf
	return l.commit(len(recs))
}

// commit writes the n frames encoded in l.buf, syncs them under
// fsyncAlways and rotates a full segment: the one write path of Append
// and AppendGroup. l.mu is held.
func (l *Log) commit(n int) error {
	if _, err := l.w.Write(l.buf); err != nil {
		return l.fail(err)
	}
	l.segBytes += int64(len(l.buf))
	l.nextSeq += uint64(n)
	if l.opts.Fsync == fsyncAlways {
		if err := l.syncLocked(); err != nil {
			return err
		}
	}
	if l.segBytes >= l.opts.SegmentBytes {
		if err := l.rotate(); err != nil {
			return l.fail(err)
		}
	}
	return nil
}

// fail records the first hard failure and poisons the log.
func (l *Log) fail(err error) error {
	if l.err == nil {
		l.err = fmt.Errorf("wal: log failed: %w", err)
	}
	return l.err
}

// rotate seals the active segment and starts the next one.
func (l *Log) rotate() error {
	if err := l.w.Flush(); err != nil {
		return err
	}
	if err := l.f.Sync(); err != nil { // a sealed segment is always durable
		return err
	}
	if err := l.f.Close(); err != nil {
		return err
	}
	l.sealed = append(l.sealed, segInfo{
		firstSeq: l.segStart,
		records:  l.nextSeq - l.segStart,
		bytes:    l.segBytes,
		path:     filepath.Join(l.dir, fmt.Sprintf("%020d%s", l.segStart, segSuffix)),
	})
	return l.createSegment(l.nextSeq)
}

// NextSeq returns the sequence number the next append will take.
func (l *Log) NextSeq() uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.nextSeq
}

// Stats returns the current durability gauges.
func (l *Log) Stats() Stats {
	l.mu.Lock()
	defer l.mu.Unlock()
	st := Stats{
		Segments:     len(l.sealed) + 1,
		Bytes:        l.segBytes,
		NextSeq:      l.nextSeq,
		SnapshotSeq:  l.snapSeq,
		HasSnapshot:  l.hasSnap,
		SnapshotTime: l.snapTime,
	}
	for _, s := range l.sealed {
		st.Bytes += s.bytes
	}
	return st
}

// Replay streams every record with sequence >= from, in order, to fn.
// It flushes buffered appends first so the tail is visible. fn
// returning an error aborts the replay with that error.
func (l *Log) Replay(from uint64, fn func(seq uint64, r Record) error) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.w != nil {
		if err := l.w.Flush(); err != nil {
			return l.fail(err)
		}
	}
	segs := append(append([]segInfo(nil), l.sealed...), segInfo{
		firstSeq: l.segStart,
		records:  l.nextSeq - l.segStart,
		path:     filepath.Join(l.dir, fmt.Sprintf("%020d%s", l.segStart, segSuffix)),
	})
	w := segWalk{fn: func(seq uint64, r Record) error {
		if seq < from {
			return nil
		}
		return fn(seq, r)
	}}
	for i := range segs {
		s := &segs[i]
		if s.firstSeq+s.records <= from && s.records > 0 {
			continue // fully below the requested tail
		}
		w.from = segPos{}
		if p := l.snapPos; p.seq <= from && s.firstSeq <= p.seq && p.seq < s.firstSeq+s.records {
			w.from = p // the frames before p were checked by Open
		}
		if _, _, err := walkSegment(s, w); err != nil {
			return err
		}
	}
	return nil
}

// SaveSnapshot durably stores payload as the state snapshot covering
// every record with sequence < seq, then prunes older snapshots and
// deletes sealed segments the snapshot fully covers. The write is
// atomic: tmp file, fsync, rename, directory fsync — a crash at any
// point leaves either the old snapshot or the new one, never a torn
// mix. takenUnixNano stamps the snapshot for the stats endpoint's
// snapshot-age gauge.
func (l *Log) SaveSnapshot(seq uint64, takenUnixNano int64, payload []byte) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.err != nil {
		return l.err
	}
	if seq > l.nextSeq {
		return fmt.Errorf("wal: snapshot seq %d beyond journal end %d", seq, l.nextSeq)
	}
	if l.hasSnap && seq < l.snapSeq {
		return fmt.Errorf("wal: snapshot seq %d regresses below %d", seq, l.snapSeq)
	}
	// The snapshot must not get ahead of durable records: sync the
	// journal up to seq first, so "snapshot covers seq" holds on disk.
	if err := l.w.Flush(); err != nil {
		return l.fail(err)
	}
	if err := l.f.Sync(); err != nil {
		return l.fail(err)
	}
	final := filepath.Join(l.dir, fmt.Sprintf("%s%020d%s", snapPrefix, seq, snapSuffix))
	tmp := final + ".tmp"
	if err := writeSnapshotFile(tmp, seq, takenUnixNano, payload); err != nil {
		os.Remove(tmp)
		return err
	}
	if err := os.Rename(tmp, final); err != nil {
		os.Remove(tmp)
		return err
	}
	if err := syncDir(l.dir); err != nil {
		return err
	}
	prevSeq, hadPrev := l.snapSeq, l.hasSnap
	l.snapSeq, l.snapTime, l.hasSnap = seq, takenUnixNano, true
	if hadPrev && prevSeq != seq {
		os.Remove(filepath.Join(l.dir, fmt.Sprintf("%s%020d%s", snapPrefix, prevSeq, snapSuffix)))
	}
	// Drop sealed segments whose every record is below the snapshot.
	kept := l.sealed[:0]
	for i, s := range l.sealed {
		if s.firstSeq+s.records <= seq {
			if err := os.Remove(s.path); err != nil {
				// Keep it on the books; a later snapshot retries.
				kept = append(kept, l.sealed[i])
				continue
			}
			continue
		}
		kept = append(kept, l.sealed[i])
	}
	l.sealed = append([]segInfo(nil), kept...)
	return nil
}

// LoadSnapshot returns the newest durable snapshot's payload and the
// sequence it covers, or ok=false when none exists.
func (l *Log) LoadSnapshot() (payload []byte, seq uint64, ok bool, err error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if !l.hasSnap {
		return nil, 0, false, nil
	}
	path := filepath.Join(l.dir, fmt.Sprintf("%s%020d%s", snapPrefix, l.snapSeq, snapSuffix))
	_, _, payload, err = readSnapshotFile(path, true)
	if err != nil {
		return nil, 0, false, err
	}
	return payload, l.snapSeq, true, nil
}

// Sync forces buffered appends to stable storage (used by the interval
// syncer and by Close).
func (l *Log) Sync() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.syncLocked()
}

func (l *Log) syncLocked() error {
	if l.err != nil {
		return l.err
	}
	start := time.Now()
	if err := l.w.Flush(); err != nil {
		return l.fail(err)
	}
	if err := l.f.Sync(); err != nil {
		return l.fail(err)
	}
	if l.opts.SyncObserver != nil {
		l.opts.SyncObserver(time.Since(start))
	}
	return nil
}

func (l *Log) syncLoop() {
	defer close(l.done)
	t := time.NewTicker(fsyncPeriod)
	defer t.Stop()
	for {
		select {
		case <-t.C:
			l.Sync()
		case <-l.stop:
			return
		}
	}
}

// Close flushes, syncs, and closes the log. The log is unusable after.
func (l *Log) Close() error {
	if l.stop != nil {
		close(l.stop)
		<-l.done
		l.stop = nil
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.f == nil {
		return l.err
	}
	err := l.err
	if err == nil {
		if ferr := l.w.Flush(); ferr != nil {
			err = ferr
		} else if serr := l.f.Sync(); serr != nil {
			err = serr
		}
	}
	if cerr := l.f.Close(); cerr != nil && err == nil {
		err = cerr
	}
	l.f = nil
	if l.err == nil {
		l.err = errors.New("wal: log closed")
	}
	return err
}

// writeSnapshotFile writes magic, seq, timestamp, CRC-framed payload,
// and syncs the file.
func writeSnapshotFile(path string, seq uint64, takenUnixNano int64, payload []byte) error {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_TRUNC|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	hdr := make([]byte, len(snapMagic)+8+8+4+4)
	copy(hdr, snapMagic)
	binary.LittleEndian.PutUint64(hdr[len(snapMagic):], seq)
	binary.LittleEndian.PutUint64(hdr[len(snapMagic)+8:], uint64(takenUnixNano))
	binary.LittleEndian.PutUint32(hdr[len(snapMagic)+16:], uint32(len(payload)))
	binary.LittleEndian.PutUint32(hdr[len(snapMagic)+20:], crc32.Checksum(payload, castagnoli))
	if _, err := f.Write(hdr); err != nil {
		f.Close()
		return err
	}
	if _, err := f.Write(payload); err != nil {
		f.Close()
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// readSnapshotFile validates a snapshot file; withPayload selects
// whether the payload is returned or only verified.
func readSnapshotFile(path string, withPayload bool) (seq uint64, takenUnixNano int64, payload []byte, err error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return 0, 0, nil, err
	}
	hdrLen := len(snapMagic) + 24
	if len(data) < hdrLen || string(data[:len(snapMagic)]) != snapMagic {
		return 0, 0, nil, fmt.Errorf("wal: %s: bad snapshot header", filepath.Base(path))
	}
	seq = binary.LittleEndian.Uint64(data[len(snapMagic):])
	takenUnixNano = int64(binary.LittleEndian.Uint64(data[len(snapMagic)+8:]))
	plen := int(binary.LittleEndian.Uint32(data[len(snapMagic)+16:]))
	crc := binary.LittleEndian.Uint32(data[len(snapMagic)+20:])
	if len(data) != hdrLen+plen {
		return 0, 0, nil, fmt.Errorf("wal: %s: snapshot length %d, want %d", filepath.Base(path), len(data), hdrLen+plen)
	}
	payload = data[hdrLen:]
	if crc32.Checksum(payload, castagnoli) != crc {
		return 0, 0, nil, fmt.Errorf("wal: %s: snapshot crc mismatch", filepath.Base(path))
	}
	if !withPayload {
		payload = nil
	}
	return seq, takenUnixNano, payload, nil
}

// syncDir fsyncs a directory, making renames and creations durable.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	err = d.Sync()
	if cerr := d.Close(); err == nil {
		err = cerr
	}
	return err
}
