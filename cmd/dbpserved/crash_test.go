package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"reflect"
	"sync"
	"syscall"
	"testing"
	"time"

	"dbp/internal/item"
	"dbp/internal/packing"
	"dbp/internal/serve"
)

// The crash-injection suite builds the real daemon, SIGKILLs it at a
// randomized point mid-barrage, restarts it on the same -data-dir, and
// holds recovery to the books:
//
//   - triple-entry accounting: every client-acknowledged op appears in
//     the recovered journal, the journal's surplus over acknowledged
//     ops is bounded by the number of in-flight clients (fsync=always:
//     a record can hit disk the instant before the ack is lost), and
//     the recovered streams' event counts equal the journal's row count;
//   - bit-identical replay: each shard's recovered snapshot equals a
//     fresh packing.Stream fed the journal, float for float;
//   - the restarted daemon accepts new traffic.

// buildDaemon compiles dbpserved once per test binary, with the race
// detector when the test itself runs with it, so a restart's parallel
// shard recovery is race-checked in a real process after SIGKILL.
var buildDaemon = sync.OnceValues(func() (string, error) {
	bin := filepath.Join(os.TempDir(), fmt.Sprintf("dbpserved-crashtest-%d", os.Getpid()))
	args := []string{"build", "-o", bin}
	if raceEnabled {
		args = append(args, "-race")
	}
	cmd := exec.Command("go", append(args, ".")...)
	daemonBin = bin
	if out, err := cmd.CombinedOutput(); err != nil {
		return "", fmt.Errorf("go build: %v\n%s", err, out)
	}
	return bin, nil
})

// daemonBin is the binary buildDaemon wrote, if it ran.
var daemonBin string

// TestMain removes the daemon binary once the tests are done.
func TestMain(m *testing.M) {
	code := m.Run()
	if daemonBin != "" {
		os.Remove(daemonBin)
	}
	os.Exit(code)
}

// freePort grabs an ephemeral loopback port (a benign race: the daemon
// rebinds it an instant later).
func freePort(t *testing.T) int {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	port := ln.Addr().(*net.TCPAddr).Port
	ln.Close()
	return port
}

// daemon is one running dbpserved subprocess.
type daemon struct {
	cmd  *exec.Cmd
	base string // http://127.0.0.1:port
	logs *bytes.Buffer
}

func startDaemon(t *testing.T, bin, dataDir string, extra ...string) *daemon {
	t.Helper()
	port := freePort(t)
	args := append([]string{
		"-addr", fmt.Sprintf("127.0.0.1:%d", port),
		"-algo", "firstfit", "-shards", "3", "-keepalive", "0.2",
		"-data-dir", dataDir, "-fsync", "always",
	}, extra...)
	d := &daemon{
		cmd:  exec.Command(bin, args...),
		base: fmt.Sprintf("http://127.0.0.1:%d", port),
		logs: &bytes.Buffer{},
	}
	d.cmd.Stdout, d.cmd.Stderr = d.logs, d.logs
	if err := d.cmd.Start(); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		res, err := http.Get(d.base + "/healthz")
		if err == nil {
			res.Body.Close()
			if res.StatusCode == http.StatusOK {
				return d
			}
		}
		if d.cmd.ProcessState != nil {
			break
		}
		time.Sleep(20 * time.Millisecond)
	}
	d.cmd.Process.Kill()
	d.cmd.Wait()
	t.Fatalf("daemon never became healthy; logs:\n%s", d.logs)
	return nil
}

func (d *daemon) kill(t *testing.T) {
	t.Helper()
	d.cmd.Process.Signal(syscall.SIGKILL)
	d.cmd.Wait()
}

func (d *daemon) drain(t *testing.T) {
	t.Helper()
	d.cmd.Process.Signal(syscall.SIGTERM)
	done := make(chan error, 1)
	go func() { done <- d.cmd.Wait() }()
	select {
	case <-done:
	case <-time.After(15 * time.Second):
		d.cmd.Process.Kill()
		t.Fatalf("daemon did not drain on SIGTERM; logs:\n%s", d.logs)
	}
}

func getJSON(t *testing.T, url string, into any) {
	t.Helper()
	res, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer res.Body.Close()
	if res.StatusCode != http.StatusOK {
		body, _ := io.ReadAll(res.Body)
		t.Fatalf("GET %s: %d: %s", url, res.StatusCode, body)
	}
	if err := json.NewDecoder(res.Body).Decode(into); err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
}

// ack is one client-acknowledged operation.
type ack struct {
	depart bool
	id     item.ID
	server int
}

// barrage hammers the daemon with nOps unique-ID arrives (each client
// departs some of its own accepted jobs) from C goroutines, and kills
// the daemon once killAfter ops have been acknowledged. Returns every
// acknowledged op. No op is ever rejectable (unique IDs, service-clock
// times, fitting sizes), so the journal holds no tick records and the
// accounting below is exact. dim > 1 sends vector demands ("sizes"),
// exercising WAL round-trips of per-dimension vectors.
func barrage(t *testing.T, d *daemon, nOps, killAfter int, seed int64, dim int) []ack {
	t.Helper()
	const clients = 8
	var (
		mu    sync.Mutex
		acks  []ack
		total int
	)
	killed := make(chan struct{})
	var killOnce sync.Once
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed + int64(c)))
			var mine []item.ID
			for i := 0; i < nOps/clients; i++ {
				var (
					body []byte
					path string
					dep  bool
					id   item.ID
				)
				if len(mine) > 4 && rng.Float64() < 0.3 {
					dep = true
					id = mine[0]
					mine = mine[1:]
					body, _ = json.Marshal(map[string]any{"id": id})
					path = "/v1/depart"
				} else {
					id = item.ID(int64(c)*1_000_000 + int64(i) + 1)
					size := 0.05 + 0.4*rng.Float64()
					req := map[string]any{"id": id, "size": size}
					if dim > 1 {
						sizes := make([]float64, dim)
						sizes[0] = size
						for k := 1; k < dim; k++ {
							sizes[k] = size * rng.Float64()
						}
						req["sizes"] = sizes
					}
					body, _ = json.Marshal(req)
					path = "/v1/arrive"
				}
				res, err := http.Post(d.base+path, "application/json", bytes.NewReader(body))
				if err != nil {
					return // daemon killed mid-flight
				}
				var out struct {
					Server int `json:"server"`
				}
				ok := res.StatusCode == http.StatusOK && json.NewDecoder(res.Body).Decode(&out) == nil
				res.Body.Close()
				if !ok {
					return
				}
				if !dep {
					mine = append(mine, id)
				}
				mu.Lock()
				acks = append(acks, ack{depart: dep, id: id, server: out.Server})
				total++
				hit := total >= killAfter
				mu.Unlock()
				if hit {
					killOnce.Do(func() {
						d.kill(t)
						close(killed)
					})
					return
				}
				select {
				case <-killed:
					return
				default:
				}
			}
		}(c)
	}
	wg.Wait()
	killOnce.Do(func() { d.kill(t); close(killed) })
	return acks
}

// fetchShardState pulls every shard's journal and snapshot from a
// running daemon.
func fetchShardState(t *testing.T, d *daemon, shards int) ([][]serve.Event, []packing.Snapshot) {
	t.Helper()
	journals := make([][]serve.Event, shards)
	snaps := make([]packing.Snapshot, shards)
	for i := 0; i < shards; i++ {
		getJSON(t, fmt.Sprintf("%s/v1/journal?shard=%d", d.base, i), &journals[i])
		getJSON(t, fmt.Sprintf("%s/v1/snapshot?shard=%d", d.base, i), &snaps[i])
	}
	return journals, snaps
}

func TestCrashRecoverySIGKILL(t *testing.T) {
	if testing.Short() {
		t.Skip("subprocess crash-injection suite; skipped with -short")
	}
	bin, err := buildDaemon()
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(time.Now().UnixNano()))
	for round := 0; round < 2; round++ {
		round := round
		// Round 0 is the scalar daemon; round 1 runs 2-dimensional,
		// covering WAL persistence and crash recovery of vector demands.
		dim := round + 1
		t.Run(fmt.Sprintf("round%d", round), func(t *testing.T) {
			dataDir := filepath.Join(t.TempDir(), "data")
			const nOps = 10000
			killAfter := 1000 + rng.Intn(8000) // randomized crash point
			t.Logf("killing daemon after %d acknowledged ops (dim %d)", killAfter, dim)

			// -snapshot-every 0: no mid-run snapshot, so the recovered
			// journal endpoint exposes every record ever written and the
			// accounting below can be exact. Round 1 below covers the
			// snapshotting path.
			dimArg := fmt.Sprintf("%d", dim)
			d1 := startDaemon(t, bin, dataDir, "-snapshot-every", "0", "-dim", dimArg)
			acks := barrage(t, d1, nOps, killAfter, int64(round)*7919+1, dim)
			if len(acks) == 0 {
				t.Fatal("barrage acknowledged nothing before the kill")
			}

			d2 := startDaemon(t, bin, dataDir, "-snapshot-every", "0", "-dim", dimArg)
			defer func() { d2.kill(t) }()
			journals, snaps := fetchShardState(t, d2, 3)

			// Triple entry, part 1: every acknowledged op is in the
			// recovered journal, with the acknowledged placement.
			type key struct {
				depart bool
				id     item.ID
			}
			journaled := make(map[key]int)
			var rows int
			for _, j := range journals {
				rows += len(j)
				for _, ev := range j {
					journaled[key{ev.Kind == "depart", ev.ID}] = ev.Server
				}
			}
			for _, a := range acks {
				srv, ok := journaled[key{a.depart, a.id}]
				if !ok {
					t.Fatalf("acknowledged op (depart=%v id=%d) missing from recovered journal", a.depart, a.id)
				}
				if srv != a.server {
					t.Fatalf("op id=%d acknowledged on server %d but journaled on %d", a.id, a.server, srv)
				}
			}
			// Part 2: the journal's surplus over acknowledgments is at
			// most the 8 clients' in-flight ops at the kill.
			if surplus := rows - len(acks); surplus < 0 || surplus > 8 {
				t.Fatalf("journal has %d rows for %d acks (surplus %d, want 0..8)", rows, len(acks), surplus)
			}
			// Part 3: recovered stream event counts equal journal rows
			// (no rejectable ops were sent, so there are no tick records).
			var events int
			for i, s := range snaps {
				if s.Events != len(journals[i]) {
					t.Fatalf("shard %d recovered %d events but journal has %d rows", i, s.Events, len(journals[i]))
				}
				events += s.Events
			}
			t.Logf("recovered %d events across shards for %d acks", events, len(acks))

			// Bit-identical replay: a fresh stream fed the journal must
			// reproduce the recovered snapshot exactly — same floats,
			// same servers, same open-server levels.
			for i, j := range journals {
				algo, err := packing.ByName("firstfit")
				if err != nil {
					t.Fatal(err)
				}
				ref := packing.NewStreamKeepAlive(algo, 1, dim, 0.2)
				for _, ev := range j {
					if ev.Kind == "depart" {
						if _, _, err := ref.Depart(ev.ID, ev.Time); err != nil {
							t.Fatalf("shard %d: journal replay depart id=%d: %v", i, ev.ID, err)
						}
					} else if srv, _, err := ref.Arrive(ev.ID, ev.Size, ev.Sizes, ev.Time); err != nil {
						t.Fatalf("shard %d: journal replay arrive id=%d: %v", i, ev.ID, err)
					} else if srv != ev.Server {
						t.Fatalf("shard %d: replay placed id=%d on server %d, journal says %d", i, ev.ID, srv, ev.Server)
					}
				}
				if want := ref.Snapshot(); !reflect.DeepEqual(snaps[i], want) {
					t.Errorf("shard %d: recovered snapshot is not bit-identical to journal replay:\n got  %+v\n want %+v", i, snaps[i], want)
				}
			}

			// The recovered daemon accepts new traffic.
			probe := map[string]any{"id": 99_000_000 + round, "size": 0.1}
			if dim > 1 {
				sizes := make([]float64, dim)
				for k := range sizes {
					sizes[k] = 0.1
				}
				probe["sizes"] = sizes
			}
			body, _ := json.Marshal(probe)
			res, err := http.Post(d2.base+"/v1/arrive", "application/json", bytes.NewReader(body))
			if err != nil {
				t.Fatal(err)
			}
			res.Body.Close()
			if res.StatusCode != http.StatusOK {
				t.Fatalf("post-recovery arrive: status %d", res.StatusCode)
			}
		})
	}
}

// TestCrashRecoveryWithSnapshots crashes a daemon that has been rolling
// periodic snapshots (so recovery is snapshot + tail replay, not a full
// journal replay), then proves restart idempotence: draining the
// recovered daemon and starting a third must reproduce the identical
// shard snapshots — the drain-time snapshot captures the pre-shutdown
// state exactly.
func TestCrashRecoveryWithSnapshots(t *testing.T) {
	if testing.Short() {
		t.Skip("subprocess crash-injection suite; skipped with -short")
	}
	bin, err := buildDaemon()
	if err != nil {
		t.Fatal(err)
	}
	dataDir := filepath.Join(t.TempDir(), "data")
	rng := rand.New(rand.NewSource(time.Now().UnixNano()))
	killAfter := 2000 + rng.Intn(6000)
	t.Logf("killing daemon after %d acknowledged ops", killAfter)

	d1 := startDaemon(t, bin, dataDir, "-snapshot-every", "256")
	acks := barrage(t, d1, 10000, killAfter, 42, 1)

	d2 := startDaemon(t, bin, dataDir, "-snapshot-every", "256")
	var stats serve.Stats
	getJSON(t, d2.base+"/v1/stats", &stats)
	var events, acked int
	for _, ps := range stats.PerShard {
		events += ps.Events
		if ps.JournalSeq != uint64(ps.Events) {
			t.Fatalf("shard %d: journal seq %d != recovered events %d", ps.Shard, ps.JournalSeq, ps.Events)
		}
	}
	acked = len(acks)
	if events < acked || events > acked+8 {
		t.Fatalf("recovered %d events for %d acks (want within [acks, acks+8])", events, acked)
	}
	_, snaps2 := fetchShardState(t, d2, 3)
	d2.drain(t)

	d3 := startDaemon(t, bin, dataDir, "-snapshot-every", "256")
	defer d3.kill(t)
	_, snaps3 := fetchShardState(t, d3, 3)
	if !reflect.DeepEqual(snaps2, snaps3) {
		t.Fatalf("restart is not idempotent: snapshots diverged across a clean drain")
	}
}

// TestDataDirConfigGuard is the daemon-level regression test for the
// startup guard: a data directory written under one configuration must
// refuse to open under different flags, with a diagnostic naming the
// mismatched field.
func TestDataDirConfigGuard(t *testing.T) {
	if testing.Short() {
		t.Skip("subprocess suite; skipped with -short")
	}
	bin, err := buildDaemon()
	if err != nil {
		t.Fatal(err)
	}
	dataDir := filepath.Join(t.TempDir(), "data")
	d := startDaemon(t, bin, dataDir)
	d.drain(t)

	for _, tc := range []struct {
		name string
		args []string
		want string
	}{
		{"shards", []string{"-shards", "5"}, "recorded shard count"},
		{"dim", []string{"-dim", "2"}, "recorded dimension"},
		{"algo", []string{"-algo", "bestfit"}, "recorded algorithm"},
	} {
		args := append([]string{
			"-addr", "127.0.0.1:0",
			"-algo", "firstfit", "-shards", "3", "-keepalive", "0.2",
			"-data-dir", dataDir,
		}, tc.args...)
		out, err := exec.Command(bin, args...).CombinedOutput()
		if err == nil {
			t.Errorf("%s: daemon started despite config mismatch", tc.name)
			continue
		}
		if !bytes.Contains(out, []byte(tc.want)) {
			t.Errorf("%s: startup error does not name %q:\n%s", tc.name, tc.want, out)
		}
	}
}
