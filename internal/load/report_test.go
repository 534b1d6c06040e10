package load

import (
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"dbp/internal/serve"
)

// statsWithEvents fabricates per-shard stats with the given event
// counts.
func statsWithEvents(events ...int) serve.Stats {
	s := serve.Stats{Shards: len(events)}
	for i, n := range events {
		s.PerShard = append(s.PerShard, serve.ShardStats{Shard: i, Events: n})
	}
	return s
}

// baseReport builds a plausible report for the round-trip test.
func baseReport() *Report {
	r := &Report{
		Phases: map[string]PhaseReport{
			"measure": {DurationSec: 10, Ops: 50000, Throughput: 5000},
		},
		Ops: map[string]OpReport{
			"arrive": {},
			"depart": {},
		},
	}
	a := r.Ops["arrive"]
	a.Latency.Count = 25000
	a.Latency.P50US = 100
	a.Latency.P99US = 1000
	r.Ops["arrive"] = a
	d := r.Ops["depart"]
	d.Latency.Count = 25000
	d.Latency.P50US = 80
	d.Latency.P99US = 800
	r.Ops["depart"] = d
	return r
}

func TestReportRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "run.json")
	r := baseReport()
	r.Config.Target = "inproc"
	if err := r.WriteFile(path); err != nil {
		t.Fatal(err)
	}
	buf, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var got Report
	if err := json.Unmarshal(buf, &got); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(&got, r) {
		t.Fatalf("round trip mangled report:\n got %+v\nwant %+v", got, *r)
	}
}

// TestSkewOf checks the shard-skew arithmetic on a hand-built Stats.
func TestSkewOf(t *testing.T) {
	s := statsWithEvents(100, 200, 300)
	sk := skewOf(s)
	if sk.Shards != 3 || sk.MinEvents != 100 || sk.MaxEvents != 300 || sk.MeanEvents != 200 {
		t.Fatalf("skew = %+v", sk)
	}
	if sk.Imbalance != 1.5 {
		t.Fatalf("imbalance = %g, want 1.5", sk.Imbalance)
	}
	if sk.CV <= 0.40 || sk.CV >= 0.41 { // stddev sqrt(20000/3)/200 ≈ 0.408
		t.Fatalf("cv = %g", sk.CV)
	}
	if skewOf(statsWithEvents()) != nil {
		t.Fatal("empty stats must yield nil skew")
	}
}
