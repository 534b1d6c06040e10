package serve_test

import (
	"fmt"
	"io/fs"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"time"

	"dbp/internal/item"
	"dbp/internal/packing"
	"dbp/internal/serve"
	"dbp/internal/wal"
)

// steadyOps scripts n batch ops with explicit, non-decreasing times:
// job i arrives, and departs once live more jobs have arrived, so the
// live set (and so a snapshot) stays near live jobs however long the
// script runs.
func steadyOps(n, live int, seed int64) []serve.BatchOp {
	rng := rand.New(rand.NewSource(seed))
	ops := make([]serve.BatchOp, 0, n)
	now := 0.0
	for id := item.ID(1); len(ops) < n; id++ {
		now += 0.01 * rng.Float64()
		ops = append(ops, serve.BatchOp{ID: id, Size: 0.05 + 0.4*rng.Float64(), HasTime: true, Time: now})
		if id > item.ID(live) && len(ops) < n {
			ops = append(ops, serve.BatchOp{Depart: true, ID: id - item.ID(live), HasTime: true, Time: now})
		}
	}
	return ops
}

// applyOps feeds ops to d in ApplyBatch calls of batch ops and fails on
// any refused op.
func applyOps(tb testing.TB, d *serve.Dispatcher, ops []serve.BatchOp, batch int) {
	tb.Helper()
	results := make([]serve.BatchResult, batch)
	for i := 0; i < len(ops); i += batch {
		part := ops[i:min(i+batch, len(ops))]
		d.ApplyBatch(part, results[:len(part)])
		for j, r := range results[:len(part)] {
			if r.Err != nil {
				tb.Fatalf("op %d (job %d): %v", i+j, part[j].ID, r.Err)
			}
		}
	}
}

// shardState is everything a recovery must reproduce of one
// dispatcher: each shard's stream snapshot and its stats gauge (the
// snapshot's age, which is wall time, aside).
func shardState(d *serve.Dispatcher) ([]packing.Snapshot, []serve.ShardStats) {
	snaps := make([]packing.Snapshot, d.NumShards())
	for i := range snaps {
		snaps[i] = d.Snapshot(i)
	}
	per := d.Stats().PerShard
	for i := range per {
		per[i].SnapshotAgeSeconds = 0
	}
	return snaps, per
}

// TestParallelRecoveryMatchesCrash recovers eight shards at once from
// a crash — no Close, so no final snapshot: each shard restores a
// snapshot taken mid-stream and replays a non-empty tail across rotated
// segments. Every shard's snapshot and stats must equal the values
// before the crash.
func TestParallelRecoveryMatchesCrash(t *testing.T) {
	cfg := serve.Config{
		Algorithm: "bestfit", Shards: 8, KeepAlive: 0.02,
		DataDir: t.TempDir(), Fsync: "always", SnapshotEvery: 150, SegmentBytes: 2048,
	}
	d, err := serve.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	applyOps(t, d, steadyOps(4100, 200, 1), 256)
	wantSnaps, wantStats := shardState(d)
	for _, st := range wantStats {
		if st.SnapshotSeq == 0 || st.JournalSeq <= st.SnapshotSeq {
			t.Fatalf("shard %d: snapshot at %d of %d events; want a snapshot mid-stream and a tail after it", st.Shard, st.SnapshotSeq, st.JournalSeq)
		}
	}
	// Crash: d is abandoned, not closed; fsync=always has put every
	// acknowledged record on disk.
	d2, err := serve.New(cfg)
	if err != nil {
		t.Fatalf("recovering after the crash: %v", err)
	}
	defer d2.Close()
	gotSnaps, gotStats := shardState(d2)
	for i := range wantSnaps {
		if !reflect.DeepEqual(gotSnaps[i], wantSnaps[i]) {
			t.Errorf("shard %d: recovered snapshot differs from the one before the crash", i)
		}
	}
	if !reflect.DeepEqual(gotStats, wantStats) {
		t.Errorf("recovered per-shard stats differ:\n got  %+v\n want %+v", gotStats, wantStats)
	}
}

// TestParallelRecoveryLowestShardError damages shards 5 and 2 of an
// eight-shard directory, once so that opening their logs fails (a
// corrupt sealed segment) and once so that rebuilding their streams
// fails (a corrupt snapshot, whose covered segments are gone). New must
// name shard 2 either way, as a loop over the shards in order would,
// and leave no goroutine behind: no recovery worker and no interval
// syncer of a log it opened.
func TestParallelRecoveryLowestShardError(t *testing.T) {
	for _, tc := range []struct {
		name    string
		glob    string // the file of a shard to damage: the first match
		at      func(size int) int
		snapped int // Config.SnapshotEvery
		want    string
	}{
		{"sealed segment", "*.wal", func(size int) int { return size / 2 }, 0, "wal: shard 2: "},
		{"snapshot", "snap-*.snap", func(size int) int { return size - 1 }, 150, "serve: recovering shard 2: "},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := serve.Config{
				Algorithm: "firstfit", Shards: 8,
				DataDir: t.TempDir(), Fsync: "always", SnapshotEvery: tc.snapped, SegmentBytes: 1024,
			}
			d, err := serve.New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			applyOps(t, d, steadyOps(4000, 100, 2), 256)
			// Crash (no Close, so no final snapshot prunes the segments),
			// then damage the two shards.
			for _, shard := range []int{5, 2} {
				files, err := filepath.Glob(filepath.Join(cfg.DataDir, fmt.Sprintf("shard-%04d", shard), tc.glob))
				if err != nil || len(files) == 0 || tc.glob == "*.wal" && len(files) < 2 {
					t.Fatalf("shard %d: want a sealed segment and a snapshot or the active segment, got %v (%v)", shard, files, err)
				}
				data, err := os.ReadFile(files[0])
				if err != nil {
					t.Fatal(err)
				}
				data[tc.at(len(data))] ^= 0xff
				if err := os.WriteFile(files[0], data, 0o644); err != nil {
					t.Fatal(err)
				}
			}
			cfg.Fsync = "interval" // every log New opens starts a syncer
			base := runtime.NumGoroutine()
			d2, err := serve.New(cfg)
			if err == nil {
				d2.Close()
				t.Fatal("New recovered a directory with two damaged shards")
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("New failed with %q, want the error of shard 2 (%q)", err, tc.want)
			}
			deadline := time.Now().Add(5 * time.Second)
			for runtime.NumGoroutine() > base {
				if time.Now().After(deadline) {
					t.Fatalf("%d goroutines after the failed New, %d before", runtime.NumGoroutine(), base)
				}
				time.Sleep(time.Millisecond)
			}
		})
	}
}

// TestRecoverWalkMemoryBounded opens a shard log whose tail segment
// holds over 16 MiB of records, scalar and 2-dimensional, with no
// snapshot, so Open walks all of it: the walk streams it through one
// fixed buffer and builds no demand vector, so Open allocates well under
// 1 MiB in all, whatever the segment's size.
func TestRecoverWalkMemoryBounded(t *testing.T) {
	for _, dim := range []int{1, 2} {
		t.Run(fmt.Sprintf("d=%d", dim), func(t *testing.T) {
			dir := t.TempDir()
			d, err := serve.New(serve.Config{Algorithm: "firstfit", Shards: 1, Dim: dim, DataDir: dir})
			if err != nil {
				t.Fatal(err)
			}
			ops := steadyOps(500_000, 50, 3)
			if dim == 2 {
				for i := range ops {
					ops[i].Sizes = []float64{ops[i].Size, ops[i].Size / 2}
				}
			}
			applyOps(t, d, ops, 4096)
			d.Close()
			// Close's snapshot covers the whole tail, and Open would walk
			// none of it.
			snaps, err := filepath.Glob(filepath.Join(dir, "shard-0000", "snap-*.snap"))
			if err != nil || len(snaps) != 1 || os.Remove(snaps[0]) != nil {
				t.Fatalf("want Close's snapshot to remove, got %v (%v)", snaps, err)
			}
			segs, err := filepath.Glob(filepath.Join(dir, "shard-0000", "*.wal"))
			if err != nil || len(segs) != 1 {
				t.Fatalf("want one segment, got %v (%v)", segs, err)
			}
			if fi, err := os.Stat(segs[0]); err != nil || fi.Size() < 16<<20 {
				t.Fatalf("tail segment: %v, %v; want at least 16 MiB", fi, err)
			}
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			l, err := wal.Open(filepath.Dir(segs[0]), wal.Options{})
			runtime.ReadMemStats(&after)
			if err != nil {
				t.Fatal(err)
			}
			defer l.Close()
			if n := after.TotalAlloc - before.TotalAlloc; n >= 1<<20 {
				t.Fatalf("opening the shard log allocated %d bytes, want < 1 MiB", n)
			}
		})
	}
}

// BenchmarkRecover times serve.New alone on a populated data directory
// — the restart pause, in which no arrival can be placed — at 2 and 8
// shards. The directory is either closed cleanly (the final snapshot
// covers every event, so Open walks no frame and nothing replays) or a crash
// image copied while the dispatcher was live (each shard restores a
// snapshot taken mid-stream, then replays the tail after it). Each
// shard holds 60k events in 4 MiB segments, with a snapshot every 25k.
func BenchmarkRecover(b *testing.B) {
	for _, shards := range []int{2, 8} {
		root := b.TempDir()
		cfg := serve.Config{
			Algorithm: "firstfit", Shards: shards,
			DataDir: filepath.Join(root, "clean"), Fsync: "off", SnapshotEvery: 25_000, SegmentBytes: 4 << 20,
		}
		d, err := serve.New(cfg)
		if err != nil {
			b.Fatal(err)
		}
		applyOps(b, d, steadyOps(60_000*shards, 1000, 4), 1024)
		crash := filepath.Join(root, "crash")
		if err := copyDir(crash, cfg.DataDir); err != nil {
			b.Fatal(err)
		}
		d.Close()
		for _, variant := range []string{"clean", "crash"} {
			b.Run(fmt.Sprintf("shards=%d/%s", shards, variant), func(b *testing.B) {
				run := cfg
				for i := 0; i < b.N; i++ {
					// A recovered crash image is changed by its Close (a
					// final snapshot), so each restart gets a fresh copy.
					b.StopTimer()
					run.DataDir = filepath.Join(root, fmt.Sprintf("run-%d", i))
					if err := copyDir(run.DataDir, filepath.Join(root, variant)); err != nil {
						b.Fatal(err)
					}
					b.StartTimer()
					d, err := serve.New(run)
					b.StopTimer()
					if err != nil {
						b.Fatal(err)
					}
					d.Close()
					os.RemoveAll(run.DataDir)
					b.StartTimer()
				}
			})
		}
	}
}

// copyDir copies the directory tree src to dst.
func copyDir(dst, src string) error {
	return filepath.WalkDir(src, func(path string, e fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(src, path)
		if err != nil {
			return err
		}
		if e.IsDir() {
			return os.MkdirAll(filepath.Join(dst, rel), 0o755)
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		return os.WriteFile(filepath.Join(dst, rel), data, 0o644)
	})
}
