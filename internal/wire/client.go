package wire

import (
	"bufio"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"dbp/internal/item"
	"dbp/internal/packing"
	"dbp/internal/serve"
)

// Errors the client surfaces for transport-level conditions.
var (
	// ErrGoAway means the server announced a drain: ops already
	// answered are fine, everything still queued or in flight on that
	// connection fails with this error.
	ErrGoAway = errors.New("wire: server sent goaway (draining)")
	// ErrClientClosed means Close was called on this client.
	ErrClientClosed = errors.New("wire: client is closed")
)

// Options tunes a Client. The zero value gets sensible defaults.
type Options struct {
	// Conns is the size of the persistent-connection pool; calls are
	// spread round-robin. Default 2.
	Conns int
}

const (
	// window caps the batches in flight (sent, not yet answered) per
	// connection — the pipelining depth. A full window blocks the
	// writer, which backpressures callers.
	window = 32
	// maxBatch caps the ops coalesced into one batch frame.
	maxBatch = 64
	// dialTimeout bounds connect + handshake.
	dialTimeout = 5 * time.Second
	// maxOpLen is the largest op Arrive accepts: kind, flags, id, size,
	// dim, maxDim sizes and a time.
	maxOpLen = 2 + 8 + 8 + 2 + 8*maxDim + 8
)

// The op count and maxBatch of the largest ops fit one frame (526 KB
// against maxFrameLen's 16 MiB), and maxBatch fits the count the server
// accepts, so the writer never has to split a frame: either bound
// failing is a compile error.
var (
	_ [maxFrameLen - 4 - maxBatch*maxOpLen]struct{}
	_ [maxBatchOps - maxBatch]struct{}
)

// call is one op's journey through a connection: filled by the caller,
// encoded by the writer, completed by the reader (or failed by
// whichever side hit the error). done has capacity 1, so completion
// never blocks; calls are pooled.
type call struct {
	op   Op
	res  Result
	err  error
	done chan struct{}
}

var callPool = sync.Pool{
	New: func() any { return &call{done: make(chan struct{}, 1)} },
}

func (c *call) complete(err error) {
	c.err = err
	c.done <- struct{}{}
}

// Client is a pool of persistent wire connections with pipelining:
// each connection has a writer goroutine that coalesces queued ops
// into batch frames (up to maxBatch, or whatever the ready callers have
// queued once it has yielded to them) and a reader goroutine that
// matches Results frames to their batches positionally. Arrive/Depart
// are safe for concurrent use from any number of goroutines and block
// until their op's result arrives.
type Client struct {
	addr string

	conns []*clientConn
	next  atomic.Uint64

	closeOnce sync.Once
	closed    atomic.Bool
}

// clientConn is one persistent connection.
type clientConn struct {
	nc net.Conn

	// sendq feeds the writer; closing it (under mu's write lock) is
	// how Close retires the connection without racing senders.
	mu     sync.RWMutex
	sendqC bool // sendq closed
	sendq  chan *call

	// inflight carries each written batch's calls to the reader, in
	// write order; its capacity is the pipelining window.
	inflight chan []*call

	dead       atomic.Pointer[error] // first transport error; nil while healthy
	writerDone chan struct{}
}

// batchPool recycles the []*call slices that ride the inflight queue.
var batchPool = sync.Pool{New: func() any { s := make([]*call, 0, maxBatch); return &s }}

// Dial connects the pool and performs the handshake on every
// connection; it fails fast if any connect or handshake fails.
func Dial(addr string, opts Options) (*Client, error) {
	if opts.Conns <= 0 {
		opts.Conns = 2
	}
	c := &Client{addr: addr}
	for i := 0; i < opts.Conns; i++ {
		nc, err := dialAndHandshake(addr)
		if err != nil {
			c.Close()
			return nil, err
		}
		c.conns = append(c.conns, startConn(nc))
	}
	return c, nil
}

// startConn starts the writer and reader of one handshaken connection.
func startConn(nc net.Conn) *clientConn {
	cc := &clientConn{
		nc:         nc,
		sendq:      make(chan *call, 4*maxBatch),
		inflight:   make(chan []*call, window),
		writerDone: make(chan struct{}),
	}
	go cc.writer()
	go cc.reader()
	return cc
}

// dialAndHandshake opens one raw connection and runs the Hello
// exchange; shared by the pool and the per-request control path
// (Stats/Ping).
func dialAndHandshake(addr string) (net.Conn, error) {
	nc, err := net.DialTimeout("tcp", addr, dialTimeout)
	if err != nil {
		return nil, err
	}
	if tc, ok := nc.(*net.TCPConn); ok {
		tc.SetNoDelay(true) // batching is ours, not Nagle's
	}
	nc.SetDeadline(time.Now().Add(dialTimeout))
	if _, err := nc.Write(appendFrame(nil, frameHello, appendHello(nil, Version))); err != nil {
		nc.Close()
		return nil, err
	}
	br := bufio.NewReader(nc)
	var payload []byte
	typ, p, err := readFrame(br, &payload)
	if err != nil {
		nc.Close()
		return nil, err
	}
	if typ == frameError {
		nc.Close()
		return nil, fmt.Errorf("wire: server refused handshake: %s", p)
	}
	if typ != frameHello {
		nc.Close()
		return nil, fmt.Errorf("wire: expected Hello reply, got frame type %d", typ)
	}
	v, err := parseHello(p)
	if err != nil {
		nc.Close()
		return nil, err
	}
	if v != Version {
		nc.Close()
		return nil, fmt.Errorf("%w: server v%d, client v%d", ErrVersion, v, Version)
	}
	nc.SetDeadline(time.Time{})
	// The buffered reader may hold bytes past the handshake only if the
	// server pushed frames unprompted, which it never does before the
	// first request; hand the raw conn to the connection's own reader.
	if br.Buffered() != 0 {
		nc.Close()
		return nil, errors.New("wire: unexpected data after handshake")
	}
	return nc, nil
}

// deadErr returns the connection's terminal error, if any.
func (cc *clientConn) deadErr() error {
	if p := cc.dead.Load(); p != nil {
		return *p
	}
	return nil
}

// setDead records the first terminal error and forces both goroutines
// off the socket.
func (cc *clientConn) setDead(err error) {
	e := err
	if cc.dead.CompareAndSwap(nil, &e) {
		cc.nc.Close()
	}
}

// writer coalesces queued calls into batch frames. Having taken the
// first call it yields once: a caller's send hands the sleeping writer
// the P's runnext slot, ahead of every other caller the same Results
// frame released, so a writer that drained at once would find about
// one more call. Behind them, it finds every op they queue (about 20
// per frame for 64 callers on two CPUs, against 2.4 without the yield;
// DESIGN.md §11). A lone caller has no one to yield to, so the yield
// holds no op back. A frame ends at maxBatch ops, which always fit
// maxFrameLen.
//
// For each batch the writer first reserves a window slot (inflight <-
// calls) and only then writes, so the reader can never see a response
// for a batch it does not know about. It exits when sendq is closed and
// drained; on a dead connection it keeps consuming sendq, failing
// calls, so no caller is ever stranded.
func (cc *clientConn) writer() {
	defer close(cc.writerDone)
	buf := make([]byte, 0, 64<<10)
	for first := range cc.sendq {
		runtime.Gosched()
		calls := (*batchPool.Get().(*[]*call))[:0]
		calls = append(calls, first)
		buf, _ = beginFrame(buf[:0], frameBatch)
		buf = appendU32(buf, 0) // op count, patched below
		buf = AppendOp(buf, &first.op)
	fill:
		for len(calls) < maxBatch {
			select {
			case c, ok := <-cc.sendq:
				if !ok {
					break fill
				}
				buf = AppendOp(buf, &c.op)
				calls = append(calls, c)
			default:
				break fill
			}
		}
		if err := cc.deadErr(); err != nil {
			failBatch(calls, err)
			continue
		}
		binary.LittleEndian.PutUint32(buf[frameHeaderLen:], uint32(len(calls)))
		buf = endFrame(buf, 0)
		// Reserve the window slot before writing (order matters; see
		// above). If the connection died in between, the reader's
		// cleanup loop fails this batch.
		cc.inflight <- calls
		if _, err := cc.nc.Write(buf); err != nil {
			cc.setDead(err)
		}
	}
}

// reader completes batches in write order from Results frames. On any
// terminal condition (goaway, read error, peer close) it fails every
// in-flight batch, cooperating with the writer so each call is
// completed exactly once.
func (cc *clientConn) reader() {
	br := bufio.NewReaderSize(cc.nc, connIOSize)
	var payload []byte
	var res Result
	for {
		typ, p, err := readFrame(br, &payload)
		if err != nil {
			cc.setDead(err)
			break
		}
		switch typ {
		case frameResults:
			if len(p) < 4 {
				cc.setDead(ErrShortBuffer)
				break
			}
			calls := <-cc.inflight
			n := int(u32(p))
			p = p[4:]
			if n != len(calls) {
				failBatch(calls, fmt.Errorf("wire: results count %d for batch of %d", n, len(calls)))
				cc.setDead(fmt.Errorf("wire: desynchronized results frame"))
				break
			}
			bad := false
			for _, c := range calls {
				m, err := DecodeResult(p, &res)
				if err != nil {
					c.complete(err)
					bad = true
					continue
				}
				p = p[m:]
				c.res = res
				c.complete(errorOf(res.Status))
			}
			putBatch(calls)
			if bad {
				cc.setDead(fmt.Errorf("wire: malformed results frame"))
			}
		case frameGoAway:
			cc.setDead(ErrGoAway)
		case frameError:
			cc.setDead(fmt.Errorf("wire: server error: %s", p))
		case framePong:
			// Unsolicited on this path; ignore.
		default:
			cc.setDead(fmt.Errorf("wire: unexpected frame type %d", typ))
		}
		if cc.deadErr() != nil {
			break
		}
	}
	// Cleanup: fail everything in flight, including batches the writer
	// pushes while we are tearing down, until the writer has exited.
	err := cc.deadErr()
	for {
		select {
		case calls := <-cc.inflight:
			failBatch(calls, err)
		case <-cc.writerDone:
			for {
				select {
				case calls := <-cc.inflight:
					failBatch(calls, err)
				default:
					return
				}
			}
		}
	}
}

func failBatch(calls []*call, err error) {
	for _, c := range calls {
		c.complete(err)
	}
	putBatch(calls)
}

func putBatch(calls []*call) {
	clear(calls)
	calls = calls[:0]
	batchPool.Put(&calls)
}

// enqueue hands a call to the connection, failing fast if the
// connection is retired or dead.
func (cc *clientConn) enqueue(c *call) error {
	cc.mu.RLock()
	if cc.sendqC {
		cc.mu.RUnlock()
		return ErrClientClosed
	}
	if err := cc.deadErr(); err != nil {
		cc.mu.RUnlock()
		return err
	}
	cc.sendq <- c
	cc.mu.RUnlock()
	return nil
}

// retire closes the socket and the send queue (the writer drains it and
// exits), then waits for the writer so every queued call has been
// resolved. The socket goes first: behind a full window the writer
// waits for the reader, and callers blocked on a full send queue hold
// mu's read lock, so the reader's teardown is what lets them go.
func (cc *clientConn) retire() {
	cc.setDead(ErrClientClosed)
	cc.mu.Lock()
	if !cc.sendqC {
		cc.sendqC = true
		close(cc.sendq)
	}
	cc.mu.Unlock()
	<-cc.writerDone
}

// do runs one op through the pool and blocks for its result.
func (c *Client) do(op *Op) (Result, error) {
	if c.closed.Load() {
		return Result{}, ErrClientClosed
	}
	cc := c.conns[c.next.Add(1)%uint64(len(c.conns))]
	ca := callPool.Get().(*call)
	ca.op = *op
	if err := cc.enqueue(ca); err != nil {
		ca.op.Sizes = nil
		callPool.Put(ca)
		return Result{}, err
	}
	<-ca.done
	res, err := ca.res, ca.err
	ca.op.Sizes = nil
	ca.res = Result{}
	ca.err = nil
	callPool.Put(ca)
	return res, err
}

// Arrive places a job over the wire. A nil t means "now" on the
// server's service clock. The returned Result carries the server
// index, opened flag, and applied time on success; a non-OK status
// surfaces as an *OpError carrying the service's stable error code.
// A demand vector past maxDim components is refused here as bad_demand,
// the code the dispatcher gives it: the server could not decode it and
// would close the connection every caller shares.
func (c *Client) Arrive(id item.ID, size float64, sizes []float64, t *float64) (Result, error) {
	if len(sizes) > maxDim {
		return Result{}, errorOf(serve.ClassOf(packing.ErrBadDemand))
	}
	op := Op{Kind: OpArrive, ID: int64(id), Size: size, Sizes: sizes}
	if t != nil {
		op.HasTime, op.Time = true, *t
	}
	// The call blocks until its result is in, so borrowing the
	// caller's sizes slice for encoding is safe.
	return c.do(&op)
}

// Depart reports a departure over the wire; see Arrive.
func (c *Client) Depart(id item.ID, t *float64) (Result, error) {
	op := Op{Kind: OpDepart, ID: int64(id)}
	if t != nil {
		op.HasTime, op.Time = true, *t
	}
	return c.do(&op)
}

// Stats fetches service statistics over a short-lived control
// connection, keeping the persistent pool's response ordering purely
// positional. It is called at phase boundaries, not on the hot path.
func (c *Client) Stats() (serve.Stats, error) {
	var s serve.Stats
	p, err := c.control(frameStats, nil, frameStatsReply)
	if err != nil {
		return s, err
	}
	if err := json.Unmarshal(p, &s); err != nil {
		return s, fmt.Errorf("wire: stats payload: %w", err)
	}
	return s, nil
}

// Ping round-trips a payload through the server (echo), for liveness
// checks and tests.
func (c *Client) Ping(payload []byte) error {
	echo, err := c.control(framePing, payload, framePong)
	if err != nil {
		return err
	}
	if string(echo) != string(payload) {
		return fmt.Errorf("wire: ping echo mismatch")
	}
	return nil
}

// control runs one request/reply exchange on a fresh connection.
func (c *Client) control(reqType uint8, payload []byte, wantType uint8) ([]byte, error) {
	if c.closed.Load() {
		return nil, ErrClientClosed
	}
	nc, err := dialAndHandshake(c.addr)
	if err != nil {
		return nil, err
	}
	defer nc.Close()
	nc.SetDeadline(time.Now().Add(30 * time.Second))
	if _, err := nc.Write(appendFrame(nil, reqType, payload)); err != nil {
		return nil, err
	}
	br := bufio.NewReader(nc)
	var buf []byte
	typ, p, err := readFrame(br, &buf)
	if err != nil {
		return nil, err
	}
	if typ == frameError {
		return nil, fmt.Errorf("wire: server error: %s", p)
	}
	if typ != wantType {
		return nil, fmt.Errorf("wire: expected frame type %d, got %d", wantType, typ)
	}
	out := make([]byte, len(p))
	copy(out, p)
	return out, nil
}

// Close retires every connection: queued and in-flight ops fail with
// ErrClientClosed (or the connection's earlier terminal error), and
// Close returns once every writer has resolved its queue — no caller
// is left blocked.
func (c *Client) Close() error {
	c.closeOnce.Do(func() {
		c.closed.Store(true)
		for _, cc := range c.conns {
			cc.retire()
		}
	})
	return nil
}
