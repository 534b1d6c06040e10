package wire

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"dbp/internal/item"
	"dbp/internal/serve"
)

// handshakeTimeout bounds how long a fresh connection may take to
// present its Hello; a peer that is not speaking the protocol is cut
// loose instead of holding a goroutine.
const handshakeTimeout = 5 * time.Second

// connIOSize sizes the per-connection buffered reader/writer: large
// enough that a full default batch (64 scalar ops, ~1.2 KiB) plus the
// pipeline window's worth of frames moves in few syscalls.
const connIOSize = 64 << 10

// goawayGrace bounds how long a draining handler waits for the peer to
// close after the GoAway frame; a peer that never reacts cannot hold
// Server.Close hostage past this.
const goawayGrace = 2 * time.Second

// Server serves the wire protocol over a TCP listener, applying batch
// frames against a shared serve.Dispatcher — the same dispatcher the
// HTTP front end mounts, so both transports hit identical shards,
// metrics, and journals. One goroutine per connection reads frames,
// applies them, and writes the results back in order.
type Server struct {
	d *serve.Dispatcher

	mu     sync.Mutex
	ln     net.Listener
	conns  map[*srvConn]struct{}
	closed bool

	handlers sync.WaitGroup
}

// srvConn is one accepted connection's server-side state.
type srvConn struct {
	nc    net.Conn
	drain atomic.Bool // Close has asked this connection to go away
}

// NewServer builds a wire server over the dispatcher. Serve must be
// called with a listener to start accepting.
func NewServer(d *serve.Dispatcher) *Server {
	return &Server{d: d, conns: make(map[*srvConn]struct{})}
}

// Serve accepts connections on ln until Close; it returns nil after a
// Close-initiated shutdown and the accept error otherwise. One call
// per server.
func (s *Server) Serve(ln net.Listener) error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		ln.Close()
		return errors.New("wire: server is closed")
	}
	s.ln = ln
	s.mu.Unlock()
	for {
		nc, err := ln.Accept()
		if err != nil {
			s.mu.Lock()
			closed := s.closed
			s.mu.Unlock()
			if closed {
				return nil
			}
			return err
		}
		c := &srvConn{nc: nc}
		s.mu.Lock()
		if s.closed {
			s.mu.Unlock()
			nc.Close()
			continue
		}
		s.conns[c] = struct{}{}
		s.handlers.Add(1)
		s.mu.Unlock()
		go s.handle(c)
	}
}

// Close drains the wire front end: the listener stops accepting, every
// connection finishes the batch it is applying (its results are
// written and flushed), receives a GoAway frame, and is closed. Close
// returns once every handler has exited; the dispatcher itself is not
// closed — that is the caller's next step, so the shared HTTP front
// end can drain on its own schedule.
func (s *Server) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		s.handlers.Wait()
		return nil
	}
	s.closed = true
	ln := s.ln
	conns := make([]*srvConn, 0, len(s.conns))
	for c := range s.conns {
		conns = append(conns, c)
	}
	s.mu.Unlock()

	if ln != nil {
		ln.Close()
	}
	for _, c := range conns {
		c.drain.Store(true)
		// Wake a handler blocked reading its next frame; one mid-batch
		// notices the flag after answering the batch it holds.
		c.nc.SetReadDeadline(time.Now())
	}
	s.handlers.Wait()
	return nil
}

// forget drops a finished connection from the registry.
func (s *Server) forget(c *srvConn) {
	s.mu.Lock()
	delete(s.conns, c)
	s.mu.Unlock()
}

// handle runs one connection: handshake, then a read→apply→write loop.
// Batch frames that arrived together are applied as one group, one
// ApplyBatch and one flush, and answered with one Results frame each.
// Responses go out in frame order, which is the protocol's correlation
// rule. Per-connection buffers (ops, results, payload, write buffer)
// are reused across batches, so a steady-state scalar batch allocates
// nothing on this path beyond the dispatcher's own pooled envelopes.
func (s *Server) handle(c *srvConn) {
	defer s.handlers.Done()
	defer s.forget(c)
	defer c.nc.Close()

	br := bufio.NewReaderSize(c.nc, connIOSize)
	bw := bufio.NewWriterSize(c.nc, connIOSize)
	if err := s.handshake(c.nc, br, bw); err != nil {
		return
	}

	var (
		payload []byte // frame payload, reused
		out     []byte // outgoing frame build buffer, reused
		ops     []serve.BatchOp
		results []serve.BatchResult
		counts  []int // op count of each Batch frame in the merged group
	)
	goaway := func() {
		out, _ = beginFrame(out[:0], frameGoAway)
		out = endFrame(out, 0)
		bw.Write(out)
		bw.Flush()
		// The frame must actually reach the peer: a pipelining client
		// may still have batches in flight, and closing the socket while
		// unread data sits in our receive buffer turns the close into a
		// RST, which discards the peer's receive buffer — GoAway
		// included. Half-close the write side and swallow the peer's
		// in-flight frames until it reacts to the GoAway and closes
		// (bounded by goawayGrace).
		if tc, ok := c.nc.(*net.TCPConn); ok {
			tc.CloseWrite()
		}
		c.nc.SetReadDeadline(time.Now().Add(goawayGrace))
		io.Copy(io.Discard, br)
	}
	for {
		if c.drain.Load() {
			goaway()
			return
		}
		typ, p, err := readFrame(br, &payload)
		if err != nil {
			// A deadline-abort from Close still owes the peer its
			// GoAway; anything else is a dead or misbehaving peer.
			if c.drain.Load() && errors.Is(err, os.ErrDeadlineExceeded) {
				c.nc.SetReadDeadline(time.Time{})
				goaway()
			}
			return
		}
		switch typ {
		case frameBatch:
			n, err := decodeBatch(p, &ops, 0)
			if err != nil {
				writeErrorFrame(bw, err)
				return
			}
			counts = append(counts[:0], n)
			// Merge every further Batch frame already whole in the read
			// buffer into the same ApplyBatch. A partial, non-Batch or
			// malformed frame, or one past maxBatchOps, stays buffered for
			// the next readFrame; nothing here reads from the socket.
			for br.Buffered() >= frameHeaderLen {
				hdr, _ := br.Peek(frameHeaderLen)
				typ, size, err := parseFrameHeader(hdr)
				if err != nil || typ != frameBatch || br.Buffered() < frameHeaderLen+size {
					break
				}
				frame, _ := br.Peek(frameHeaderLen + size)
				k, err := decodeBatch(frame[frameHeaderLen:], &ops, n)
				if err != nil {
					break
				}
				br.Discard(frameHeaderLen + size)
				counts = append(counts, k)
				n += k
			}
			if cap(results) < n {
				results = make([]serve.BatchResult, n)
			}
			results = results[:n]
			s.d.ApplyBatch(ops[:n], results)
			// One Results frame per Batch frame, in arrival order.
			out = out[:0]
			rs := results
			for _, k := range counts {
				var off int
				out, off = beginFrame(out, frameResults)
				out = appendU32(out, uint32(k))
				for i := range rs[:k] {
					res := &rs[i]
					r := Result{
						Status: serve.ClassOf(res.Err),
						Flag:   res.Flag,
						Server: int32(res.Server),
						Time:   res.Time,
					}
					out = AppendResult(out, &r)
				}
				out = endFrame(out, off)
				rs = rs[k:]
			}
			if _, err := bw.Write(out); err != nil {
				return
			}
			if err := bw.Flush(); err != nil {
				return
			}
		case frameStats:
			buf, err := json.Marshal(s.d.Stats())
			if err != nil {
				writeErrorFrame(bw, err)
				return
			}
			out = appendFrame(out[:0], frameStatsReply, buf)
			bw.Write(out)
			if err := bw.Flush(); err != nil {
				return
			}
		case framePing:
			out = appendFrame(out[:0], framePong, p)
			bw.Write(out)
			if err := bw.Flush(); err != nil {
				return
			}
		case frameGoAway:
			// The client is done with this connection.
			return
		default:
			writeErrorFrame(bw, fmt.Errorf("wire: unexpected frame type %d", typ))
			return
		}
	}
}

// handshake validates the client Hello and answers with the server's
// version, under a deadline so garbage connections cannot linger.
func (s *Server) handshake(nc net.Conn, br *bufio.Reader, bw *bufio.Writer) error {
	nc.SetDeadline(time.Now().Add(handshakeTimeout))
	defer nc.SetDeadline(time.Time{})
	var payload []byte
	typ, p, err := readFrame(br, &payload)
	if err != nil {
		return err
	}
	if typ != frameHello {
		writeErrorFrame(bw, fmt.Errorf("wire: expected Hello, got frame type %d", typ))
		return ErrBadMagic
	}
	v, err := parseHello(p)
	if err != nil {
		writeErrorFrame(bw, err)
		return err
	}
	if v != Version {
		writeErrorFrame(bw, fmt.Errorf("%w: client v%d, server v%d", ErrVersion, v, Version))
		return ErrVersion
	}
	hello := appendFrame(nil, frameHello, appendHello(nil, Version))
	if _, err := bw.Write(hello); err != nil {
		return err
	}
	return bw.Flush()
}

// readFrame reads one frame, growing *payload as needed and reusing it
// across calls; the returned slice aliases *payload and is valid until
// the next call.
func readFrame(br *bufio.Reader, payload *[]byte) (uint8, []byte, error) {
	var hdr [frameHeaderLen]byte
	if _, err := io.ReadFull(br, hdr[:]); err != nil {
		return 0, nil, err
	}
	typ, n, err := parseFrameHeader(hdr[:])
	if err != nil {
		return 0, nil, err
	}
	if cap(*payload) < n {
		*payload = make([]byte, n)
	}
	p := (*payload)[:n]
	if _, err := io.ReadFull(br, p); err != nil {
		return 0, nil, err
	}
	return typ, p, nil
}

// decodeBatch decodes a Batch frame payload into (*ops)[base:], after
// the base ops already held, reusing the slice and each element's
// demand-vector capacity. It returns the op count; a frame that would
// take the total past maxBatchOps is refused with errBatchSize.
func decodeBatch(p []byte, ops *[]serve.BatchOp, base int) (int, error) {
	if len(p) < 4 {
		return 0, ErrShortBuffer
	}
	count := int(u32(p))
	p = p[4:]
	if count == 0 || base+count > maxBatchOps {
		return 0, errBatchSize
	}
	if cap(*ops) < base+count {
		*ops = append((*ops)[:cap(*ops)], make([]serve.BatchOp, base+count-cap(*ops))...)
	}
	*ops = (*ops)[:base+count]
	var op Op
	for i := base; i < base+count; i++ {
		dst := &(*ops)[i]
		// Decode reusing this element's vector capacity.
		op.Sizes = dst.Sizes
		n, err := DecodeOp(p, &op)
		if err != nil {
			return 0, err
		}
		p = p[n:]
		dst.Depart = op.Kind == OpDepart
		dst.ID = item.ID(op.ID)
		dst.Size = op.Size
		dst.Sizes = op.Sizes
		if len(op.Sizes) == 0 {
			dst.Sizes = nil
		}
		dst.HasTime = op.HasTime
		dst.Time = op.Time
	}
	if len(p) != 0 {
		return 0, fmt.Errorf("wire: %d trailing bytes after batch ops", len(p))
	}
	return count, nil
}

// writeErrorFrame sends a connection-fatal protocol diagnostic; the
// caller closes the connection right after.
func writeErrorFrame(bw *bufio.Writer, err error) {
	bw.Write(appendFrame(nil, frameError, []byte(err.Error())))
	bw.Flush()
}

func appendU32(b []byte, v uint32) []byte {
	return append(b, byte(v), byte(v>>8), byte(v>>16), byte(v>>24))
}

func u32(b []byte) uint32 {
	return uint32(b[0]) | uint32(b[1])<<8 | uint32(b[2])<<16 | uint32(b[3])<<24
}
