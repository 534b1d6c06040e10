// Package wire is the allocation service's binary transport: a
// length-prefixed, versioned framing protocol over persistent TCP
// connections, designed so the network path can deliver events at the
// rate the packing engine absorbs them (bench/baseline-ladder.json:
// the engine applies an arrival in under 1µs while one JSON op per HTTP
// round trip costs ~88µs on loopback — the transport, not the engine,
// is the ceiling).
//
// Layout. Every frame is
//
//	+------+----------------+===========+
//	| type |  length (u32)  |  payload  |
//	| u8   |  little-endian |  bytes    |
//	+------+----------------+===========+
//
// A connection opens with a Hello exchange (magic "DBPW" + u16
// version, both directions); after that the client sends Batch frames
// — u32 op count followed by fixed-width little-endian ops — and the
// server answers each with a Results frame carrying one fixed-width
// result per op, in op order. Because TCP preserves order and the
// server answers batches in arrival order, correlation is positional:
// the n-th Results frame on a connection answers the n-th Batch frame,
// which is what makes pipelining (multiple batches in flight) free.
// Stats and Ping are control frames for monitoring; GoAway is the
// server's drain signal — in-flight batches are still answered and
// flushed, then the connection closes.
//
// The op and result codecs are allocation-free in both directions:
// fixed-width fields appended to caller-owned (pooled) buffers, no
// reflection, no varints, and decode reuses the caller's Op buffers
// (including the demand-vector slice for d-dimensional jobs).
package wire

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"

	"dbp/internal/serve"
)

// magic opens every Hello payload; a peer that does not present it is
// not speaking this protocol and the connection is refused.
const magic = "DBPW"

// Version is the protocol version this package speaks. The server
// echoes its own version in the Hello reply; a client refuses a
// mismatch, so incompatible revisions fail fast at the handshake.
const Version uint16 = 1

// Frame types. Values are part of the wire format — append only.
const (
	// frameHello carries the handshake payload (magic + u16 version),
	// client → server first, then the server's reply.
	frameHello uint8 = 1
	// frameBatch (client → server) carries u32 count + count ops.
	frameBatch uint8 = 2
	// frameResults (server → client) answers one Batch frame: u32
	// count + count results, positionally matching the batch's ops.
	frameResults uint8 = 3
	// frameStats (client → server) requests service stats; empty
	// payload.
	frameStats uint8 = 4
	// frameStatsReply (server → client) carries the JSON-encoded
	// serve.Stats. Stats is off the hot path; JSON keeps it debuggable.
	frameStatsReply uint8 = 5
	// framePing (client → server) requests an echo of its payload.
	framePing uint8 = 6
	// framePong (server → client) echoes a Ping's payload.
	framePong uint8 = 7
	// frameGoAway (server → client) announces a drain: every batch
	// already answered has been flushed, nothing further will be read,
	// and the server closes the connection after sending it.
	frameGoAway uint8 = 8
	// frameError (server → client) reports a connection-fatal protocol
	// violation (UTF-8 diagnostic payload) before the server closes.
	frameError uint8 = 9
)

// frameHeaderLen is the fixed frame prefix: type byte + u32 length.
const frameHeaderLen = 5

// maxFrameLen caps a frame's payload so a corrupt or hostile length
// prefix cannot make a peer allocate unbounded memory.
const maxFrameLen = 1 << 24 // 16 MiB

// maxBatchOps caps the op count of one batch frame; combined with the
// ops' minimum width it keeps a decoded batch's memory proportional to
// the bytes actually received.
const maxBatchOps = 65536

// maxDim caps the demand-vector dimensionality a decoder accepts.
// Real placements use a handful of resource dimensions; anything
// larger is a corrupt or hostile frame.
const maxDim = 1024

// Op kinds on the wire.
const (
	OpArrive uint8 = 0
	OpDepart uint8 = 1
)

// Op flag bits.
const (
	flagHasTime uint8 = 1 << 0 // explicit f64 timestamp follows
	flagVector  uint8 = 1 << 1 // u16 dim + dim f64 demands follow (arrive only)
)

// Op is one decoded operation. The scalar fast path (Sizes empty, no
// explicit time) encodes an arrive in 18 bytes and a depart in 10.
type Op struct {
	Kind    uint8 // OpArrive or OpDepart
	ID      int64
	Size    float64   // scalar demand (arrive)
	Sizes   []float64 // vector demand (arrive, d > 1); nil for scalar
	Time    float64   // explicit event time, valid when HasTime
	HasTime bool
}

// Result is one op's outcome: 14 bytes fixed width on the wire. Its
// status byte is the op's serve.Class, so both transports expose the
// one error taxonomy.
type Result struct {
	Status serve.Class
	Flag   bool // opened (arrive) / closed (depart)
	Server int32
	Time   float64 // the time the event was applied at
}

// resultLen is Result's fixed encoded width.
const resultLen = 1 + 1 + 4 + 8

// Errors the decoders return; all mean "malformed input", never a
// panic or an over-read past the supplied buffer.
var (
	ErrShortBuffer = errors.New("wire: truncated input")
	ErrBadKind     = errors.New("wire: unknown op kind")
	ErrBadDim      = errors.New("wire: demand dimensionality out of range")
	ErrBadFlags    = errors.New("wire: undefined op flag bits set")
	ErrFrameSize   = errors.New("wire: frame exceeds size limit")
	errBatchSize   = errors.New("wire: batch op count out of range")
	ErrBadMagic    = errors.New("wire: bad handshake magic")
	ErrVersion     = errors.New("wire: protocol version mismatch")
)

// AppendOp encodes op and appends the bytes to b, returning the
// extended slice. It never allocates beyond b's growth.
func AppendOp(b []byte, op *Op) []byte {
	var flags uint8
	if op.HasTime {
		flags |= flagHasTime
	}
	vector := op.Kind == OpArrive && len(op.Sizes) > 0
	if vector {
		flags |= flagVector
	}
	b = append(b, op.Kind, flags)
	b = binary.LittleEndian.AppendUint64(b, uint64(op.ID))
	if op.Kind == OpArrive {
		b = binary.LittleEndian.AppendUint64(b, math.Float64bits(op.Size))
		if vector {
			b = binary.LittleEndian.AppendUint16(b, uint16(len(op.Sizes)))
			for _, s := range op.Sizes {
				b = binary.LittleEndian.AppendUint64(b, math.Float64bits(s))
			}
		}
	}
	if op.HasTime {
		b = binary.LittleEndian.AppendUint64(b, math.Float64bits(op.Time))
	}
	return b
}

// DecodeOp decodes one op from the front of b into *op, reusing
// op.Sizes' capacity for vector demands, and returns the number of
// bytes consumed. It never reads past len(b): malformed or truncated
// input yields an error, not a panic.
func DecodeOp(b []byte, op *Op) (int, error) {
	if len(b) < 2 {
		return 0, ErrShortBuffer
	}
	kind, flags := b[0], b[1]
	if kind != OpArrive && kind != OpDepart {
		return 0, ErrBadKind
	}
	// Undefined flag bits are an error, not ignored: silently dropping
	// them would make decode(encode(x)) lossy and forecloses ever
	// assigning those bits a meaning peers can rely on being rejected
	// by older decoders.
	if flags&^(flagHasTime|flagVector) != 0 {
		return 0, ErrBadFlags
	}
	if kind == OpDepart && flags&flagVector != 0 {
		return 0, ErrBadFlags
	}
	n := 2
	if len(b) < n+8 {
		return 0, ErrShortBuffer
	}
	op.Kind = kind
	op.ID = int64(binary.LittleEndian.Uint64(b[n:]))
	n += 8
	op.Size = 0
	op.Sizes = op.Sizes[:0]
	if kind == OpArrive {
		if len(b) < n+8 {
			return 0, ErrShortBuffer
		}
		op.Size = math.Float64frombits(binary.LittleEndian.Uint64(b[n:]))
		n += 8
		if flags&flagVector != 0 {
			if len(b) < n+2 {
				return 0, ErrShortBuffer
			}
			dim := int(binary.LittleEndian.Uint16(b[n:]))
			n += 2
			if dim == 0 || dim > maxDim {
				return 0, ErrBadDim
			}
			if len(b) < n+8*dim {
				return 0, ErrShortBuffer
			}
			for i := 0; i < dim; i++ {
				op.Sizes = append(op.Sizes, math.Float64frombits(binary.LittleEndian.Uint64(b[n:])))
				n += 8
			}
		}
	}
	op.HasTime = flags&flagHasTime != 0
	op.Time = 0
	if op.HasTime {
		if len(b) < n+8 {
			return 0, ErrShortBuffer
		}
		op.Time = math.Float64frombits(binary.LittleEndian.Uint64(b[n:]))
		n += 8
	}
	return n, nil
}

// AppendResult encodes r and appends the bytes to b.
func AppendResult(b []byte, r *Result) []byte {
	var flag uint8
	if r.Flag {
		flag = 1
	}
	b = append(b, uint8(r.Status), flag)
	b = binary.LittleEndian.AppendUint32(b, uint32(r.Server))
	b = binary.LittleEndian.AppendUint64(b, math.Float64bits(r.Time))
	return b
}

// DecodeResult decodes one result from the front of b into *r and
// returns the bytes consumed.
func DecodeResult(b []byte, r *Result) (int, error) {
	if len(b) < resultLen {
		return 0, ErrShortBuffer
	}
	r.Status = serve.Class(b[0])
	r.Flag = b[1] != 0
	r.Server = int32(binary.LittleEndian.Uint32(b[2:]))
	r.Time = math.Float64frombits(binary.LittleEndian.Uint64(b[6:]))
	return resultLen, nil
}

// beginFrame appends a frame header for typ with a zero length to b
// and returns the extended slice plus the header's offset; once the
// payload has been appended, endFrame patches the length in. The
// pattern lets a writer build header and payload in one buffer with no
// copies:
//
//	buf, off := beginFrame(buf[:0], frameBatch)
//	... append payload ...
//	buf = endFrame(buf, off)
func beginFrame(b []byte, typ uint8) ([]byte, int) {
	off := len(b)
	b = append(b, typ, 0, 0, 0, 0)
	return b, off
}

// endFrame patches the length of the frame opened at off to cover
// everything appended since beginFrame.
func endFrame(b []byte, off int) []byte {
	binary.LittleEndian.PutUint32(b[off+1:], uint32(len(b)-off-frameHeaderLen))
	return b
}

// appendFrame appends a complete frame (header + payload) to b.
func appendFrame(b []byte, typ uint8, payload []byte) []byte {
	b = append(b, typ, 0, 0, 0, 0)
	binary.LittleEndian.PutUint32(b[len(b)-4:], uint32(len(payload)))
	return append(b, payload...)
}

// parseFrameHeader decodes a frame header, validating the length
// against maxFrameLen.
func parseFrameHeader(h []byte) (typ uint8, length int, err error) {
	if len(h) < frameHeaderLen {
		return 0, 0, ErrShortBuffer
	}
	n := binary.LittleEndian.Uint32(h[1:])
	if n > maxFrameLen {
		return 0, 0, ErrFrameSize
	}
	return h[0], int(n), nil
}

// appendHello appends the handshake payload (magic + version).
func appendHello(b []byte, version uint16) []byte {
	b = append(b, magic...)
	return binary.LittleEndian.AppendUint16(b, version)
}

// parseHello validates a Hello payload and returns the peer's version.
func parseHello(p []byte) (uint16, error) {
	if len(p) != len(magic)+2 {
		return 0, ErrShortBuffer
	}
	if string(p[:len(magic)]) != magic {
		return 0, ErrBadMagic
	}
	return binary.LittleEndian.Uint16(p[len(magic):]), nil
}

// OpError is a non-OK result surfaced as an error. Its Status gives
// the service's stable code and HTTP status, and it wraps the class's
// sentinel, so serve.ClassOf and errors.Is read it as they read the
// dispatcher's own error. Instances are shared singletons (one per
// class), so the error path allocates nothing.
type OpError struct {
	Status serve.Class
}

func (e *OpError) Error() string {
	return fmt.Sprintf("wire: op rejected: %s (status %d)", e.Status.Code(), e.Status)
}

func (e *OpError) Unwrap() error { return e.Status.Err() }

// opErrors holds the singleton per-class errors errorOf hands out.
var opErrors = func() (errs [serve.NumClasses]OpError) {
	for c := range errs {
		errs[c].Status = serve.Class(c)
	}
	return errs
}()

// errorOf returns the shared error for a non-OK status (nil for OK); a
// status byte this build does not know is internal.
func errorOf(status serve.Class) error {
	if status == serve.ClassOK {
		return nil
	}
	if int(status) < len(opErrors) {
		return &opErrors[status]
	}
	return &opErrors[serve.ClassInternal]
}
