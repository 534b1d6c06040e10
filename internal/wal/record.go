// Package wal is the durable write-ahead journal behind the allocation
// service: one log per shard, segment files of CRC32C-framed records,
// periodic snapshot files of the shard's full stream state, and
// recovery that rebuilds a shard bit-identically by loading the newest
// snapshot and replaying the segment tail (DESIGN.md §12).
//
// The contract with the stream layer is one record per accepted clock
// advance: arrivals and departures journal their outcome, and events
// that advanced the clock but were then rejected (duplicate job,
// unknown job, bad demand) journal a bare tick — so record sequence
// numbers coincide exactly with packing.Stream event counts, and a
// snapshot taken at event E covers precisely the records with seq < E.
package wal

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"math"
)

// Kind discriminates the three record types.
type Kind uint8

const (
	// KindArrive journals an accepted arrival: the job, its demand, its
	// timestamp, and the server the policy assigned.
	KindArrive Kind = 1
	// KindDepart journals an accepted departure: the job, its
	// timestamp, and the server it left.
	KindDepart Kind = 2
	// KindTick journals a clock advance whose event was then rejected
	// (duplicate, unknown job, bad demand): the stream still moved its
	// clock and processed keep-alive expiries, so replay must too.
	KindTick Kind = 3
)

// maxDim bounds the per-record demand dimensionality; it mirrors the
// wire protocol's limit (wire's maxDim), which every record's demand has
// already passed through.
const maxDim = 1024

const (
	// frameLen is the record frame: u32 LE body length + u32 LE CRC32C
	// (Castagnoli) of the body.
	frameLen = 8
	// fixedLen is the body shared by every kind: kind u8, flags u8
	// (reserved, zero), job id u64, time f64 bits, server u32.
	fixedLen = 22
	// arriveExtra is the arrival-only suffix: scalar size f64 plus a
	// u16 vector dimensionality (0 for scalar jobs).
	arriveExtra = 10
	maxBody     = fixedLen + arriveExtra + 8*maxDim
)

// castagnoli is the CRC32C polynomial table (hardware-accelerated on
// amd64/arm64), the same checksum etcd's and Kafka's logs frame with.
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// ErrCorrupt reports a frame that is structurally invalid: implausible
// length, unknown kind, non-zero reserved flags, wrong body size for
// its kind, or a CRC mismatch.
var ErrCorrupt = errors.New("wal: corrupt record")

// errShortFrame reports a frame that runs past the end of the buffer —
// at the tail of the last segment this is a torn write, truncated away
// by recovery; anywhere else it is corruption.
var errShortFrame = errors.New("wal: short frame")

// Record is one journal entry. Server is the assigned/vacated server
// index for arrivals and departures, -1 for ticks. Size and Sizes carry
// an arrival's demand (Sizes nil for scalar jobs) and are zero
// otherwise.
type Record struct {
	Kind   Kind
	ID     int64
	Time   float64
	Server int32
	Size   float64
	Sizes  []float64
}

// appendRecord appends the framed encoding of r to dst and returns the
// extended slice. It writes into dst's spare capacity when possible, so
// a caller reusing one scratch buffer appends without allocating.
func appendRecord(dst []byte, r *Record) ([]byte, error) {
	body := fixedLen
	switch r.Kind {
	case KindArrive:
		if len(r.Sizes) > maxDim {
			return dst, fmt.Errorf("wal: record dim %d exceeds %d", len(r.Sizes), maxDim)
		}
		body += arriveExtra + 8*len(r.Sizes)
	case KindDepart, KindTick:
	default:
		return dst, fmt.Errorf("wal: unknown record kind %d", r.Kind)
	}
	start := len(dst)
	need := start + frameLen + body
	if cap(dst) < need {
		grown := make([]byte, start, need+need/2)
		copy(grown, dst)
		dst = grown
	}
	dst = dst[:need]
	b := dst[start:]
	binary.LittleEndian.PutUint32(b[0:], uint32(body))
	p := b[frameLen:]
	p[0] = byte(r.Kind)
	p[1] = 0 // flags, reserved
	binary.LittleEndian.PutUint64(p[2:], uint64(r.ID))
	binary.LittleEndian.PutUint64(p[10:], math.Float64bits(r.Time))
	binary.LittleEndian.PutUint32(p[18:], uint32(r.Server))
	if r.Kind == KindArrive {
		binary.LittleEndian.PutUint64(p[22:], math.Float64bits(r.Size))
		binary.LittleEndian.PutUint16(p[30:], uint16(len(r.Sizes)))
		for i, v := range r.Sizes {
			binary.LittleEndian.PutUint64(p[32+8*i:], math.Float64bits(v))
		}
	}
	binary.LittleEndian.PutUint32(b[4:], crc32.Checksum(p, castagnoli))
	return dst, nil
}

// parseRecord parses one framed record from the front of buf,
// returning the record and the number of bytes consumed. It returns
// errShortFrame when buf ends mid-frame and ErrCorrupt for anything
// structurally invalid; a successful decode re-encodes to the exact
// consumed bytes (the fuzzer pins this round trip). With sizes false
// it checks the frame just the same but leaves an arrival's Sizes nil,
// so a walk that only validates frames allocates nothing.
func parseRecord(buf []byte, sizes bool) (Record, int, error) {
	if len(buf) < frameLen {
		return Record{}, 0, errShortFrame
	}
	body := int(binary.LittleEndian.Uint32(buf))
	if body < fixedLen || body > maxBody {
		return Record{}, 0, fmt.Errorf("%w: body length %d", ErrCorrupt, body)
	}
	if len(buf) < frameLen+body {
		return Record{}, 0, errShortFrame
	}
	p := buf[frameLen : frameLen+body]
	if got, want := crc32.Checksum(p, castagnoli), binary.LittleEndian.Uint32(buf[4:]); got != want {
		return Record{}, 0, fmt.Errorf("%w: crc %08x != %08x", ErrCorrupt, got, want)
	}
	if p[1] != 0 {
		return Record{}, 0, fmt.Errorf("%w: reserved flags %02x", ErrCorrupt, p[1])
	}
	r := Record{
		Kind:   Kind(p[0]),
		ID:     int64(binary.LittleEndian.Uint64(p[2:])),
		Time:   math.Float64frombits(binary.LittleEndian.Uint64(p[10:])),
		Server: int32(binary.LittleEndian.Uint32(p[18:])),
	}
	switch r.Kind {
	case KindArrive:
		if body < fixedLen+arriveExtra {
			return Record{}, 0, fmt.Errorf("%w: arrive body %d", ErrCorrupt, body)
		}
		r.Size = math.Float64frombits(binary.LittleEndian.Uint64(p[22:]))
		ndim := int(binary.LittleEndian.Uint16(p[30:]))
		if body != fixedLen+arriveExtra+8*ndim {
			return Record{}, 0, fmt.Errorf("%w: arrive body %d for dim %d", ErrCorrupt, body, ndim)
		}
		if ndim > 0 && sizes {
			r.Sizes = make([]float64, ndim)
			for i := range r.Sizes {
				r.Sizes[i] = math.Float64frombits(binary.LittleEndian.Uint64(p[32+8*i:]))
			}
		}
	case KindDepart, KindTick:
		if body != fixedLen {
			return Record{}, 0, fmt.Errorf("%w: %v body %d", ErrCorrupt, r.Kind, body)
		}
	default:
		return Record{}, 0, fmt.Errorf("%w: kind %d", ErrCorrupt, p[0])
	}
	return r, frameLen + body, nil
}

// String renders the kind for diagnostics.
func (k Kind) String() string {
	switch k {
	case KindArrive:
		return "arrive"
	case KindDepart:
		return "depart"
	case KindTick:
		return "tick"
	}
	return fmt.Sprintf("kind(%d)", uint8(k))
}
