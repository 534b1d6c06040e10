package packing_test

import (
	"bytes"
	"encoding/json"
	"flag"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"testing"

	"dbp/internal/item"
	"dbp/internal/packing"
)

var updateFrozen = flag.Bool("update-frozen", false, "rewrite testdata/frozen/*.json from the current code")

// frozenPolicies are the registered policies that carry policy_state in
// a snapshot.
var frozenPolicies = []string{"nextfit", "next2fit", "next4fit", "hybridff", "hybridff3", "hybridnextfit", "randomfit"}

// frozenFixture is one policy's committed snapshot, taken after the
// prefix of frozenScript, and the servers the uninterrupted stream
// assigned over the suffix.
type frozenFixture struct {
	Snapshot packing.Snapshot `json:"snapshot"`
	Suffix   []int            `json:"suffix_servers"`
}

// frozenScript is a fixed scalar arrive/depart sequence: sizes on the
// 1/8 grid, times in steps of 1/4, a keep-alive of 1/2 leaves some
// servers lingering at the cut.
func frozenScript() []scaleOp {
	rng := rand.New(rand.NewSource(34))
	var ops []scaleOp
	var resident []item.ID
	at := 0.0
	for i := 1; len(ops) < 240; i++ {
		at += float64(rng.Intn(3)) / 4
		if len(resident) > 0 && rng.Intn(5) < 2 {
			k := rng.Intn(len(resident))
			ops = append(ops, scaleOp{depart: true, id: resident[k], at: at})
			resident = append(resident[:k], resident[k+1:]...)
			continue
		}
		ops = append(ops, scaleOp{id: item.ID(i), sizes: []float64{float64(1+rng.Intn(6)) / 8}, at: at})
		resident = append(resident, item.ID(i))
	}
	return ops
}

// TestFrozenSnapshotsRestore pins every stateful policy's snapshot
// format across versions: a snapshot an earlier build wrote (what a
// durable data dir holds) must restore, and the restored stream must
// assign the suffix's jobs exactly as the earlier build's uninterrupted
// stream did. It also holds the current build's policy_state after the
// prefix to the committed bytes.
func TestFrozenSnapshotsRestore(t *testing.T) {
	ops := frozenScript()
	prefix, suffix := ops[:120], ops[120:]
	for _, name := range frozenPolicies {
		path := filepath.Join("testdata", "frozen", name+".json")
		fresh := func() packing.Algorithm {
			algo, err := packing.ByName(name)
			if err != nil {
				t.Fatal(err)
			}
			return algo
		}
		if *updateFrozen {
			s := packing.NewStreamKeepAlive(fresh(), 1, 1, 0.5)
			play(t, s, prefix, 1)
			fx := frozenFixture{Snapshot: s.Snapshot(), Suffix: play(t, s, suffix, 1)}
			raw, err := json.MarshalIndent(fx, "", " ")
			if err != nil {
				t.Fatal(err)
			}
			if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(path, append(raw, '\n'), 0o644); err != nil {
				t.Fatal(err)
			}
			continue
		}
		raw, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		var fx frozenFixture
		if err := json.Unmarshal(raw, &fx); err != nil {
			t.Fatalf("%s: %v", path, err)
		}
		if fx.Snapshot.PolicyState == nil {
			t.Fatalf("%s: the fixture carries no policy_state", path)
		}
		restored, err := packing.RestoreStream(fresh(), fx.Snapshot)
		if err != nil {
			t.Fatalf("%s: restore: %v", name, err)
		}
		if got := play(t, restored, suffix, 1); !slices.Equal(got, fx.Suffix) {
			t.Errorf("%s: the restored stream assigns the suffix %v, the recorded stream %v", name, got, fx.Suffix)
		}

		s := packing.NewStreamKeepAlive(fresh(), 1, 1, 0.5)
		play(t, s, prefix, 1)
		want, _ := json.Marshal(fx.Snapshot.PolicyState)
		if got, _ := json.Marshal(s.Snapshot().PolicyState); !bytes.Equal(got, want) {
			t.Errorf("%s: policy_state after the prefix is %s, the fixture's %s", name, got, want)
		}
	}
}
