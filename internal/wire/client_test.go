package wire

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"testing"

	"dbp/internal/item"
)

// TestWriterSplitsFramesAtMaxFrameLen: 2100 queued d=1024 arrives at
// MaxBatch 4096 encode to about 17 MB, more than one frame may carry.
// The writer cuts the frames so every one passes ParseFrameHeader and
// together they carry every op once, in order.
func TestWriterSplitsFramesAtMaxFrameLen(t *testing.T) {
	const n = 2100
	sizes := make([]float64, MaxDim)
	for i := range sizes {
		sizes[i] = 0.001
	}
	client, peer := net.Pipe()
	defer peer.Close()
	cc := &clientConn{
		nc:         client,
		sendq:      make(chan *call, n),
		inflight:   make(chan []*call, n),
		writerDone: make(chan struct{}),
	}
	for i := 0; i < n; i++ {
		cc.sendq <- &call{op: Op{Kind: OpArrive, ID: int64(i), Size: 0.001, Sizes: sizes}}
	}
	close(cc.sendq)
	go cc.writer(&Options{MaxBatch: 4096})

	br := bufio.NewReader(peer)
	var payload []byte
	var op Op
	var next int64
	for frames := 0; next < n; frames++ {
		typ, p, err := readFrame(br, &payload)
		if err != nil {
			t.Fatalf("frame %d after %d ops: %v", frames, next, err)
		}
		if typ != FrameBatch || len(p) < 4 {
			t.Fatalf("frame %d: type %d, %d bytes", frames, typ, len(p))
		}
		count := int(u32(p))
		for p = p[4:]; count > 0; count-- {
			m, err := DecodeOp(p, &op)
			if err != nil || op.ID != next || len(op.Sizes) != MaxDim {
				t.Fatalf("frame %d: op id %d dim %d err %v, want id %d", frames, op.ID, len(op.Sizes), err, next)
			}
			p = p[m:]
			next++
		}
		if len(p) != 0 {
			t.Fatalf("frame %d: %d bytes past its ops", frames, len(p))
		}
	}
	<-cc.writerDone
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
