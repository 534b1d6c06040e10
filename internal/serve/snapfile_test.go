package serve_test

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"dbp/internal/item"
	"dbp/internal/packing"
	"dbp/internal/serve"
)

// TestCoveredFrameDamageCrashedShard damages a frame that the shard's
// snapshot covers, in the segment its tail is in, and recovers the
// crashed shard. Recovery starts at the snapshot's own frame, so it
// replays every record synced after the snapshot and rebuilds the state
// before the crash bit for bit; ShardEvents, which reads every frame,
// reports the damaged one instead of returning a shortened journal.
func TestCoveredFrameDamageCrashedShard(t *testing.T) {
	cfg := serve.Config{Algorithm: "firstfit", Shards: 1, DataDir: t.TempDir(), Fsync: "always", SnapshotEvery: 60}
	d, err := serve.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= 100; i++ {
		at := float64(i)
		if _, err := d.Arrive(item.ID(i), 0.01, nil, &at); err != nil {
			t.Fatal(err)
		}
	}
	wantSnaps, wantStats := shardState(d)
	if st := wantStats[0]; st.SnapshotSeq != 60 || st.JournalSeq != 100 {
		t.Fatalf("snapshot at %d of %d events, want 60 of 100", st.SnapshotSeq, st.JournalSeq)
	}
	// Crash, then damage record 7: a scalar arrival's frame is 40 bytes
	// after the 16-byte segment header; byte 10 of a frame is in its job ID.
	segs, err := filepath.Glob(filepath.Join(cfg.DataDir, "shard-0000", "*.wal"))
	if err != nil || len(segs) != 1 {
		t.Fatalf("want one segment, got %v (%v)", segs, err)
	}
	data, err := os.ReadFile(segs[0])
	if err != nil {
		t.Fatal(err)
	}
	if len(data) != 16+100*40 {
		t.Fatalf("segment of %d bytes, want %d", len(data), 16+100*40)
	}
	data[16+7*40+10] ^= 0xff
	if err := os.WriteFile(segs[0], data, 0o644); err != nil {
		t.Fatal(err)
	}
	d2, err := serve.New(cfg)
	if err != nil {
		t.Fatalf("recovering after the crash: %v", err)
	}
	defer d2.Close()
	gotSnaps, gotStats := shardState(d2)
	if !reflect.DeepEqual(gotSnaps, wantSnaps) || !reflect.DeepEqual(gotStats, wantStats) {
		t.Fatalf("recovered shard differs from the one before the crash:\n got  %+v\n want %+v", gotStats, wantStats)
	}
	if evs, err := d2.ShardEvents(0); err == nil || !strings.Contains(err.Error(), "crc") {
		t.Fatalf("ShardEvents over the damaged frame: %d events, err %v; want the CRC error", len(evs), err)
	}
}

// TestRecoverV1DataDir recovers testdata/v1dir, a data directory that a
// build from before binary snapshots wrote and then crashed: 2 shards of
// Hybrid First Fit at d = 2 with a keep-alive, each with a JSON snapshot
// (a DBPSNAP1 file) and a tail of records after it. Recovery must reach
// the state committed in v1dir.golden.json, which that build read from
// the live dispatcher before the crash: every shard's snapshot and
// journal. The snapshot Close then writes is binary (DBPSNAP2), and a
// restart from it reaches the same state; its journal is what that
// snapshot's pruning left, the end of the committed one.
func TestRecoverV1DataDir(t *testing.T) {
	cfg := serve.Config{
		Algorithm: "hybridff", Shards: 2, Dim: 2, KeepAlive: 0.05,
		DataDir: filepath.Join(t.TempDir(), "v1dir"), Fsync: "always", SnapshotEvery: 100, SegmentBytes: 2048,
	}
	if err := copyDir(cfg.DataDir, filepath.Join("testdata", "v1dir")); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(filepath.Join("testdata", "v1dir.golden.json"))
	if err != nil {
		t.Fatal(err)
	}
	var golden struct {
		Snapshots []packing.Snapshot `json:"snapshots"`
		Journals  [][]serve.Event    `json:"journals"`
	}
	if err := json.Unmarshal(raw, &golden); err != nil {
		t.Fatal(err)
	}
	snapMagics := func() []string {
		files, err := filepath.Glob(filepath.Join(cfg.DataDir, "shard-*", "snap-*.snap"))
		if err != nil || len(files) != cfg.Shards {
			t.Fatalf("want one snapshot a shard, got %v (%v)", files, err)
		}
		var magics []string
		for _, f := range files {
			data, err := os.ReadFile(f)
			if err != nil {
				t.Fatal(err)
			}
			magics = append(magics, string(data[:8]))
		}
		return magics
	}
	// The state is compared as JSON, the form the golden file holds.
	same := func(a, b any) bool {
		ja, errA := json.Marshal(a)
		jb, errB := json.Marshal(b)
		return errA == nil && errB == nil && bytes.Equal(ja, jb)
	}
	check := func(label string, wantMagic string, pruned bool) {
		t.Helper()
		for i, m := range snapMagics() {
			if m != wantMagic {
				t.Fatalf("%s: shard %d's snapshot file is %q, want %q", label, i, m, wantMagic)
			}
		}
		d, err := serve.New(cfg)
		if err != nil {
			t.Fatalf("%s: %v", label, err)
		}
		defer d.Close()
		for i := range cfg.Shards {
			if got := d.Snapshot(i); !same(got, golden.Snapshots[i]) {
				t.Errorf("%s: shard %d recovered\n %+v\nwant\n %+v", label, i, got, golden.Snapshots[i])
			}
			evs, err := d.ShardEvents(i)
			want := golden.Journals[i]
			if pruned && len(evs) > 0 && len(evs) < len(want) {
				want = want[len(want)-len(evs):]
			}
			if err != nil || !same(evs, want) {
				t.Errorf("%s: shard %d journal of %d events (%v), want the %d committed", label, i, len(evs), err, len(golden.Journals[i]))
			}
		}
	}
	check("the v1 directory", "DBPSNAP1", false)
	check("after its first Close", "DBPSNAP2", true)
}
