package wire

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"net"
	"os"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"dbp/internal/item"
)

// TestFullWindowBlocksCallers: a peer that reads Batch frames and never
// answers lets the writer put window frames in flight and no more;
// the writer then holds one frame, the send queue fills and the callers
// past it stay blocked. Once the peer answers, every call completes
// exactly once with its own result.
func TestFullWindowBlocksCallers(t *testing.T) {
	client, peer := net.Pipe()
	defer peer.Close()
	c := &Client{conns: []*clientConn{startConn(client)}}
	defer c.Close()
	cc := c.conns[0]

	br := bufio.NewReader(peer)
	var payload []byte
	var op Op
	// readBatch reads one Batch frame and returns its op IDs.
	readBatch := func() ([]int64, error) {
		typ, p, err := readFrame(br, &payload)
		if err != nil {
			return nil, err
		}
		if typ != FrameBatch || len(p) < 4 {
			return nil, fmt.Errorf("frame type %d, %d bytes", typ, len(p))
		}
		ids := make([]int64, u32(p))
		for i, p := 0, p[4:]; i < len(ids); i++ {
			m, err := DecodeOp(p, &op)
			if err != nil {
				return nil, err
			}
			ids[i], p = op.ID, p[m:]
		}
		return ids, nil
	}

	// Past the window: the frame the writer holds, a send queue's worth
	// and 8 callers that find the queue full.
	const n = window + 1 + maxBatch + 4*maxBatch + 8
	var wg sync.WaitGroup
	var completed [n]atomic.Int32
	errc := make(chan error, n)
	call := func(id int) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			res, err := c.Arrive(item.ID(id), 0.001, nil, nil)
			completed[id].Add(1)
			if err != nil || res.Server != int32(id) {
				errc <- fmt.Errorf("call %d: server %d, %v", id, res.Server, err)
			}
		}()
	}
	// One call at a time, so each in-flight frame carries one op.
	for id := 0; id < window; id++ {
		call(id)
		if ids, err := readBatch(); err != nil || len(ids) != 1 || ids[0] != int64(id) {
			t.Fatalf("frame %d: ops %v, %v", id, ids, err)
		}
	}
	for id := window; id < n; id++ {
		call(id)
	}
	for deadline := time.Now().Add(10 * time.Second); len(cc.sendq) < cap(cc.sendq); {
		if time.Now().After(deadline) {
			t.Fatalf("send queue holds %d of %d", len(cc.sendq), cap(cc.sendq))
		}
		time.Sleep(time.Millisecond)
	}
	peer.SetReadDeadline(time.Now().Add(100 * time.Millisecond))
	if ids, err := readBatch(); !errors.Is(err, os.ErrDeadlineExceeded) {
		t.Fatalf("writer sent frame %v past a full window (err %v)", ids, err)
	}
	peer.SetReadDeadline(time.Time{})
	for id := range completed {
		if completed[id].Load() != 0 {
			t.Fatalf("call %d completed before any answer", id)
		}
	}

	// Answer the in-flight frames, then every frame that follows.
	answer := func(ids []int64) error {
		out, _ := BeginFrame(nil, FrameResults)
		out = appendU32(out, uint32(len(ids)))
		for _, id := range ids {
			out = AppendResult(out, &Result{Server: int32(id)})
		}
		_, err := peer.Write(EndFrame(out, 0))
		return err
	}
	for id := 0; id < window; id++ {
		if err := answer([]int64{int64(id)}); err != nil {
			t.Fatal(err)
		}
	}
	for seen := window; seen < n; {
		ids, err := readBatch()
		if err == nil {
			err = answer(ids)
		}
		if err != nil {
			t.Fatalf("after %d ops: %v", seen, err)
		}
		seen += len(ids)
	}
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Fatal(err)
	}
	for id := range completed {
		if got := completed[id].Load(); got != 1 {
			t.Fatalf("call %d completed %d times", id, got)
		}
	}
}

// TestCloseWithFullWindow: Close on a connection whose peer reads every
// frame and answers none, with the window full and callers blocked on
// the full send queue behind it, returns, and every call fails with
// ErrClientClosed.
func TestCloseWithFullWindow(t *testing.T) {
	client, peer := net.Pipe()
	defer peer.Close()
	go io.Copy(io.Discard, peer)
	c := &Client{conns: []*clientConn{startConn(client)}}
	cc := c.conns[0]

	// More calls than the window, the frame the writer holds and the
	// send queue can take, however the writer cuts its frames.
	const n = window*maxBatch + maxBatch + 4*maxBatch + 8
	errc := make(chan error, n)
	for id := 0; id < n; id++ {
		go func() {
			_, err := c.Arrive(item.ID(id), 0.001, nil, nil)
			errc <- err
		}()
	}
	for deadline := time.Now().Add(10 * time.Second); len(cc.inflight) < window || len(cc.sendq) < cap(cc.sendq); {
		if time.Now().After(deadline) {
			t.Fatalf("%d frames in flight, send queue %d of %d", len(cc.inflight), len(cc.sendq), cap(cc.sendq))
		}
		time.Sleep(time.Millisecond)
	}
	closed := make(chan struct{})
	go func() { c.Close(); close(closed) }()
	select {
	case <-closed:
	case <-time.After(10 * time.Second):
		t.Fatal("Close hung behind a full window")
	}
	for i := 0; i < n; i++ {
		if err := <-errc; !errors.Is(err, ErrClientClosed) {
			t.Fatalf("call failed with %v, want ErrClientClosed", err)
		}
	}
}

// fakeServer accepts one wire connection on a loopback listener,
// answers its Hello, then answers every Batch frame at once with that
// many OK results, counting frames and ops. Its goroutine ends when the
// client closes the connection, and wait returns the counts.
func fakeServer(t *testing.T) (addr string, wait func() (frames, ops int)) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	var frames, ops int
	errc := make(chan error, 1)
	go func() {
		defer ln.Close()
		nc, err := ln.Accept()
		if err != nil {
			errc <- err
			return
		}
		defer nc.Close()
		br := bufio.NewReaderSize(nc, connIOSize)
		var payload, out []byte
		if typ, _, err := readFrame(br, &payload); err != nil || typ != FrameHello {
			errc <- fmt.Errorf("handshake: type %d, %v", typ, err)
			return
		}
		if _, err := nc.Write(AppendFrame(nil, FrameHello, AppendHello(nil, Version))); err != nil {
			errc <- err
			return
		}
		for {
			typ, p, err := readFrame(br, &payload)
			if errors.Is(err, io.EOF) {
				errc <- nil
				return
			}
			if err != nil || typ != FrameBatch || len(p) < 4 {
				errc <- fmt.Errorf("frame %d: type %d, %v", frames, typ, err)
				return
			}
			k := u32(p)
			frames++
			ops += int(k)
			out, _ = BeginFrame(out[:0], FrameResults)
			out = appendU32(out, k)
			for i := uint32(0); i < k; i++ {
				out = AppendResult(out, &Result{})
			}
			if _, err := nc.Write(EndFrame(out, 0)); err != nil {
				errc <- err
				return
			}
		}
	}()
	return ln.Addr().String(), func() (int, int) {
		if err := <-errc; err != nil {
			t.Fatal(err)
		}
		return frames, ops
	}
}

// TestClientFramesCarryReadyCallers: 64 closed-loop callers on one
// connection, the serve_wire shape. The writer yields before it drains
// the send queue, so a frame carries the ops of every caller the last
// Results frame released, not only the one whose send woke the writer:
// at least 6 ops per frame on average (it reads 10 to 31 at GOMAXPROCS
// 1, 2 and 4; without the yield, 1.5 to 5.3). Under -race only the op
// count is checked.
func TestClientFramesCarryReadyCallers(t *testing.T) {
	const callers, perCaller = 64, 200
	addr, wait := fakeServer(t)
	c, err := Dial(addr, Options{Conns: 1})
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	errc := make(chan error, callers)
	for g := 0; g < callers; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perCaller; i++ {
				if _, err := c.Arrive(item.ID(g*perCaller+i), 0.001, nil, nil); err != nil {
					errc <- err
					return
				}
			}
		}()
	}
	wg.Wait()
	c.Close()
	close(errc)
	for err := range errc {
		t.Fatal(err)
	}
	frames, ops := wait()
	if ops != callers*perCaller {
		t.Fatalf("server saw %d ops, want %d", ops, callers*perCaller)
	}
	mean := float64(ops) / float64(frames)
	t.Logf("%d ops in %d frames: %.1f ops/frame", ops, frames, mean)
	if raceEnabled {
		// The detector slows callers and writer alike, and frames fill
		// without the yield too (5.6 to 10.8 ops): the mean proves nothing.
		return
	}
	if mean < 6 {
		t.Fatalf("%.1f ops per frame, want at least 6", mean)
	}
}
