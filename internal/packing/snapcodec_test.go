package packing_test

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"dbp/internal/packing"
)

// generatedSnapshots are the snapshots of every streamable registered
// policy at d = 1, 2 and 4 with a keep-alive, every 20 events of a
// scripted run: lingering servers, vector demands and each PolicyState
// field among them.
func generatedSnapshots(t *testing.T) []packing.Snapshot {
	t.Helper()
	var snaps []packing.Snapshot
	for _, d := range []int{1, 2, 4} {
		ops := scaleScript(d, 200)
		for _, name := range packing.Names() {
			algo, err := packing.ByName(name)
			if err != nil {
				t.Fatal(err)
			}
			s, err := packing.NewStreamEngine(algo, 1, d, 0.5, packing.EngineIndexed)
			if err != nil {
				continue // departure-aware: no stream
			}
			for i, op := range ops {
				if op.depart {
					_, _, err = s.Depart(op.id, op.at)
				} else {
					size, sizes := op.sizes[0], op.sizes
					for _, c := range sizes {
						size = max(size, c)
					}
					if d == 1 {
						sizes = nil
					}
					_, _, err = s.Arrive(op.id, size, sizes, op.at)
				}
				if err != nil {
					break // a scalar-only policy at d > 1
				}
				if i%20 == 19 {
					snaps = append(snaps, s.Snapshot())
				}
			}
		}
	}
	return snaps
}

// TestSnapshotBinaryRoundTrip holds the binary encoding to the snapshot
// it came from and to the JSON encoding recovery read before it: a
// generated snapshot decodes to itself, to what its JSON decodes to,
// and re-encodes to the same bytes. The generated set must cover
// d = 1, 2 and 4, lingering servers, vector jobs and each PolicyState
// field.
func TestSnapshotBinaryRoundTrip(t *testing.T) {
	seen := map[string]bool{}
	for i, snap := range generatedSnapshots(t) {
		enc, err := snap.AppendBinary(nil)
		if err != nil {
			t.Fatal(err)
		}
		var got packing.Snapshot
		if err := got.UnmarshalBinary(enc); err != nil {
			t.Fatalf("snapshot %d (%s, d=%d): %v", i, snap.Policy, snap.Dim, err)
		}
		if !reflect.DeepEqual(got, snap) {
			t.Fatalf("snapshot %d (%s, d=%d): decoded\n %+v\nwant\n %+v", i, snap.Policy, snap.Dim, got, snap)
		}
		raw, err := json.Marshal(snap)
		if err != nil {
			t.Fatal(err)
		}
		var fromJSON packing.Snapshot
		if err := json.Unmarshal(raw, &fromJSON); err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, fromJSON) {
			t.Fatalf("snapshot %d (%s, d=%d): the binary decoding differs from the JSON one", i, snap.Policy, snap.Dim)
		}
		if again, _ := got.AppendBinary(nil); !bytes.Equal(again, enc) {
			t.Fatalf("snapshot %d (%s, d=%d): re-encoding differs", i, snap.Policy, snap.Dim)
		}
		seen[map[int]string{1: "d=1", 2: "d=2", 4: "d=4"}[snap.Dim]] = true
		for _, sv := range snap.Servers {
			seen["lingering"] = seen["lingering"] || sv.Lingering
			for _, job := range sv.Active {
				seen["vector job"] = seen["vector job"] || len(job.Sizes) > 1
			}
		}
		if ps := snap.PolicyState; ps != nil {
			seen["bins"] = seen["bins"] || len(ps.Bins) > 0
			seen["class"] = seen["class"] || len(ps.Class) > 0
			seen["draws"] = seen["draws"] || ps.Draws > 0
		}
	}
	for _, want := range []string{"d=1", "d=2", "d=4", "lingering", "vector job", "bins", "class", "draws"} {
		if !seen[want] {
			t.Errorf("no generated snapshot has %s", want)
		}
	}
}

// TestSnapshotBinaryRefusesDamage: every strict prefix of an encoding,
// the encoding with a byte appended, a bad version, a flag byte other
// than 0 or 1 and a Class with keys out of order are refused, and the
// target is left as it was.
func TestSnapshotBinaryRefusesDamage(t *testing.T) {
	snap := packing.Snapshot{
		Now: 3, Events: 9, Policy: "p", Dim: 1,
		PolicyState: &packing.PolicyState{Class: map[int]int{2: 1, 5: 0}},
	}
	enc, err := snap.AppendBinary(nil)
	if err != nil {
		t.Fatal(err)
	}
	bad := [][]byte{append(append([]byte(nil), enc...), 0)}
	for n := range enc {
		bad = append(bad, enc[:n])
	}
	version := append([]byte(nil), enc...)
	version[0] = '{'
	// Without a PolicyState the encoding ends in its presence byte and
	// the servers' count; with one, Bins' and Class's lengths and then
	// Class's first key follow that byte.
	bare := snap
	bare.PolicyState = nil
	at, _ := bare.AppendBinary(nil)
	flag := append([]byte(nil), enc...)
	flag[len(at)-5] = 2
	order := append([]byte(nil), enc...)
	order[len(at)-5+1+4+4] = 7 // the first key becomes 7, above the second
	bad = append(bad, version, flag, order)
	for i, b := range bad {
		got := packing.Snapshot{Events: -1}
		if err := got.UnmarshalBinary(b); err == nil || got.Events != -1 {
			t.Fatalf("damaged encoding %d (%d bytes) decoded: err %v, snapshot %+v", i, len(b), err, got)
		}
	}
}

// FuzzSnapshotBinary: an input the decoder accepts re-encodes byte for
// byte, so a snapshot has one encoding. The seeds are the frozen
// fixtures' snapshots.
func FuzzSnapshotBinary(f *testing.F) {
	fixtures, err := filepath.Glob(filepath.Join("testdata", "frozen", "*.json"))
	if err != nil || len(fixtures) == 0 {
		f.Fatalf("no frozen fixtures (%v)", err)
	}
	for _, path := range fixtures {
		raw, err := os.ReadFile(path)
		if err != nil {
			f.Fatal(err)
		}
		var fx frozenFixture
		if err := json.Unmarshal(raw, &fx); err != nil {
			f.Fatal(err)
		}
		enc, err := fx.Snapshot.AppendBinary(nil)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(enc)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		var s packing.Snapshot
		if s.UnmarshalBinary(data) != nil {
			return
		}
		enc, err := s.AppendBinary(nil)
		if err != nil || !bytes.Equal(enc, data) {
			t.Fatalf("accepted %d bytes re-encode to %d bytes (err %v):\n in  %x\n out %x", len(data), len(enc), err, data, enc)
		}
	})
}
