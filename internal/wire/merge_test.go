package wire

import (
	"encoding/binary"
	"io"
	"net"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"dbp/internal/item"
	"dbp/internal/packing"
	"dbp/internal/serve"
)

// rawConn dials addr and completes the Hello exchange by hand, so a test
// controls exactly which bytes reach the server in one write.
func rawConn(t *testing.T, addr string) net.Conn {
	t.Helper()
	nc, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { nc.Close() })
	nc.SetDeadline(time.Now().Add(10 * time.Second))
	if _, err := nc.Write(appendFrame(nil, frameHello, appendHello(nil, Version))); err != nil {
		t.Fatal(err)
	}
	if typ, _ := readRawFrame(t, nc); typ != frameHello {
		t.Fatalf("handshake answered with frame type %d", typ)
	}
	return nc
}

// readRawFrame reads one whole frame off nc.
func readRawFrame(t *testing.T, nc net.Conn) (uint8, []byte) {
	t.Helper()
	hdr := make([]byte, frameHeaderLen)
	if _, err := io.ReadFull(nc, hdr); err != nil {
		t.Fatal(err)
	}
	typ, n, err := parseFrameHeader(hdr)
	if err != nil {
		t.Fatal(err)
	}
	p := make([]byte, n)
	if _, err := io.ReadFull(nc, p); err != nil {
		t.Fatal(err)
	}
	return typ, p
}

// batchFrame encodes ops as one Batch frame.
func batchFrame(ops ...Op) []byte {
	b, off := beginFrame(nil, frameBatch)
	b = binary.LittleEndian.AppendUint32(b, uint32(len(ops)))
	for i := range ops {
		b = AppendOp(b, &ops[i])
	}
	return endFrame(b, off)
}

// readResults reads one frame, requires it to be a Results frame, and
// decodes its results.
func readResults(t *testing.T, nc net.Conn) []Result {
	t.Helper()
	typ, p := readRawFrame(t, nc)
	if typ != frameResults {
		t.Fatalf("got frame type %d (%q), want Results", typ, p)
	}
	if len(p) < 4 {
		t.Fatalf("results frame of %d bytes", len(p))
	}
	n := int(binary.LittleEndian.Uint32(p))
	p = p[4:]
	rs := make([]Result, n)
	for i := range rs {
		m, err := DecodeResult(p, &rs[i])
		if err != nil {
			t.Fatal(err)
		}
		p = p[m:]
	}
	if len(p) != 0 {
		t.Fatalf("%d trailing bytes after %d results", len(p), n)
	}
	return rs
}

func arrive(id int64, size float64, sizes ...float64) Op {
	return Op{Kind: OpArrive, ID: id, Size: size, Sizes: sizes}
}

func depart(id int64) Op { return Op{Kind: OpDepart, ID: id} }

// TestWireMergesBufferedFrames: Batch frames that reach the server in
// one write are applied as one ApplyBatch and answered with one Results
// frame each, in order, carrying each frame's own op count.
func TestWireMergesBufferedFrames(t *testing.T) {
	d, _, addr := startServer(t, serve.Config{Algorithm: "firstfit", Shards: 1})
	nc := rawConn(t, addr)

	before := d.Stats().Batches
	var msg []byte
	msg = append(msg, batchFrame(arrive(1, 0.6))...)
	msg = append(msg, batchFrame(arrive(2, 0.6), arrive(3, 0.3))...)
	msg = append(msg, batchFrame(depart(3), depart(2), arrive(1, 0.2))...)
	if _, err := nc.Write(msg); err != nil {
		t.Fatal(err)
	}
	ok := func(server int32, flag bool) Result {
		return Result{Status: serve.ClassOK, Server: server, Flag: flag}
	}
	want := [][]Result{
		{ok(0, true)},
		{ok(1, true), ok(0, false)},
		{ok(0, false), ok(1, true), {Status: serve.ClassOf(packing.ErrDuplicateJob)}},
	}
	for i, w := range want {
		if got := readResults(t, nc); !slices.Equal(got, w) {
			t.Fatalf("results frame %d = %+v, want %+v", i, got, w)
		}
	}
	if got := d.Stats().Batches - before; got != 1 {
		t.Fatalf("three buffered frames took %d ApplyBatch calls, want 1", got)
	}
}

// TestWireMergeStopsAtMalformedFrame: good, good, malformed in one
// write answers the two good frames, then sends an Error frame; the
// good frames' ops are journaled.
func TestWireMergeStopsAtMalformedFrame(t *testing.T) {
	d, _, addr := startServer(t, serve.Config{Algorithm: "firstfit", Shards: 1, DataDir: t.TempDir()})
	nc := rawConn(t, addr)

	before := d.Stats().Batches
	var msg []byte
	msg = append(msg, batchFrame(arrive(1, 0.5))...)
	msg = append(msg, batchFrame(arrive(2, 0.25))...)
	msg = append(msg, batchFrame()...) // op count 0: malformed
	if _, err := nc.Write(msg); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		if rs := readResults(t, nc); len(rs) != 1 || rs[0].Status != serve.ClassOK {
			t.Fatalf("results frame %d = %+v", i, rs)
		}
	}
	if typ, p := readRawFrame(t, nc); typ != frameError {
		t.Fatalf("malformed frame answered with type %d (%q), want Error", typ, p)
	}
	if got := d.Stats().Batches - before; got != 1 {
		t.Fatalf("two good buffered frames took %d ApplyBatch calls, want 1", got)
	}
	evs := journal(t, d, 0)
	if len(evs) != 2 || evs[0].ID != 1 || evs[1].ID != 2 {
		t.Fatalf("journal = %+v, want arrivals 1 and 2", evs)
	}
}

// TestWireMergeKeepsEachOpsSizes: two buffered d=2 frames merged into
// one group journal every op with its own demand vector — the second
// frame decodes at a non-zero base without reusing the first frame's
// Sizes.
func TestWireMergeKeepsEachOpsSizes(t *testing.T) {
	d, _, addr := startServer(t, serve.Config{Algorithm: "firstfit", Shards: 1, Dim: 2, DataDir: t.TempDir()})
	nc := rawConn(t, addr)

	ops := []Op{
		arrive(1, 0.25, 0.25, 0.125),
		arrive(2, 0.5, 0.0625, 0.5),
		arrive(3, 0.375, 0.375, 0.03125),
		arrive(4, 0.25, 0.015625, 0.25),
	}
	before := d.Stats().Batches
	msg := append(batchFrame(ops[:2]...), batchFrame(ops[2:]...)...)
	if _, err := nc.Write(msg); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		if rs := readResults(t, nc); len(rs) != 2 || rs[0].Status != serve.ClassOK || rs[1].Status != serve.ClassOK {
			t.Fatalf("results frame %d = %+v", i, rs)
		}
	}
	if got := d.Stats().Batches - before; got != 1 {
		t.Fatalf("two buffered frames took %d ApplyBatch calls, want 1", got)
	}
	evs := journal(t, d, 0)
	if len(evs) != len(ops) {
		t.Fatalf("journal holds %d events, want %d", len(evs), len(ops))
	}
	for i, ev := range evs {
		if int64(ev.ID) != ops[i].ID || !slices.Equal(ev.Sizes, ops[i].Sizes) {
			t.Fatalf("journal[%d] = id %d sizes %v, want id %d sizes %v", i, ev.ID, ev.Sizes, ops[i].ID, ops[i].Sizes)
		}
	}
}

// BenchmarkWirePipelined drives one client connection from 64
// goroutines, the serve_wire shape, and reports ops/applybatch: how many
// ops the server hands the dispatcher per ApplyBatch. One iteration is
// one job's arrive and depart.
func BenchmarkWirePipelined(b *testing.B) {
	d, _, addr := startServer(b, serve.Config{Algorithm: "firstfit", Shards: 2})
	c := dial(b, addr, Options{Conns: 1})
	const callers = 64
	before := d.Stats()
	var next atomic.Int64
	var wg sync.WaitGroup
	b.ResetTimer()
	for g := 0; g < callers; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for id := next.Add(1); id <= int64(b.N); id = next.Add(1) {
				if _, err := c.Arrive(item.ID(id), 0.001, nil, nil); err != nil {
					b.Error(err)
					return
				}
				if _, err := c.Depart(item.ID(id), nil); err != nil {
					b.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()
	b.StopTimer()
	after := d.Stats()
	b.ReportMetric(float64(after.BatchOps-before.BatchOps)/float64(after.Batches-before.Batches), "ops/applybatch")
}
