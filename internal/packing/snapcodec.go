package packing

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"slices"

	"dbp/internal/bins"
)

// snapshotVersion is the first byte of a snapshot's binary encoding. A
// JSON encoding begins with '{', so the two never share a first byte.
const snapshotVersion = 1

// errSnapshotEncoding reports bytes that are not the binary encoding of
// any snapshot.
var errSnapshotEncoding = errors.New("packing: bad snapshot encoding")

// AppendBinary appends the snapshot's binary encoding to b
// (encoding.BinaryAppender): fixed-width little-endian fields in
// declaration order, floats as their raw bits, each string or slice
// after its u32 length, PolicyState after a presence byte and its
// Class in ascending key order, so a snapshot has exactly one encoding.
// An empty slice or map encodes as a nil one. UnmarshalBinary reads it;
// the error is always nil.
func (s *Snapshot) AppendBinary(b []byte) ([]byte, error) {
	b = append(b, snapshotVersion)
	b = appendF64(b, s.Now)
	b = appendInts(b, s.Events, s.OpenServers, s.ServersUsed, s.PeakServers)
	b = appendF64(b, s.UsageTime)
	b = appendStr(appendStr(b, s.Policy), s.Engine)
	b = appendF64(b, s.Capacity)
	b = appendInts(b, s.Dim)
	b = appendF64(appendF64(b, s.KeepAlive), s.ClosedUsage)
	if ps := s.PolicyState; ps == nil {
		b = append(b, 0)
	} else {
		b = append(b, 1)
		b = binary.LittleEndian.AppendUint32(b, uint32(len(ps.Bins)))
		b = appendInts(b, ps.Bins...)
		b = binary.LittleEndian.AppendUint32(b, uint32(len(ps.Class)))
		keys := make([]int, 0, len(ps.Class))
		for k := range ps.Class {
			keys = append(keys, k)
		}
		slices.Sort(keys)
		for _, k := range keys {
			b = appendInts(b, k, ps.Class[k])
		}
		b = binary.LittleEndian.AppendUint64(b, ps.Draws)
	}
	b = binary.LittleEndian.AppendUint32(b, uint32(len(s.Servers)))
	for i := range s.Servers {
		sv := &s.Servers[i]
		b = appendInts(b, sv.Index)
		b = appendF64s(appendF64(b, sv.Level), sv.Levels)
		b = appendInts(b, sv.Jobs)
		b = appendF64(b, sv.OpenedAt)
		if sv.Lingering {
			b = append(b, 1)
		} else {
			b = append(b, 0)
		}
		b = appendF64(b, sv.EmptySince)
		b = binary.LittleEndian.AppendUint32(b, uint32(len(sv.Active)))
		for j := range sv.Active {
			job := &sv.Active[j]
			b = binary.LittleEndian.AppendUint64(b, uint64(job.ID))
			b = appendF64s(appendF64(b, job.Size), job.Sizes)
			b = appendF64(b, job.Arrival)
		}
	}
	return b, nil
}

// UnmarshalBinary replaces s with the snapshot AppendBinary encoded in
// data (encoding.BinaryUnmarshaler). It accepts only an encoding that
// AppendBinary would write, byte for byte: anything else, trailing
// bytes included, is an error and leaves s unchanged.
func (s *Snapshot) UnmarshalBinary(data []byte) error {
	r := snapReader{b: data}
	if v := r.u8(); v != snapshotVersion && r.err == nil {
		return fmt.Errorf("%w: version %d", errSnapshotEncoding, v)
	}
	out := Snapshot{
		Now:         r.f64(),
		Events:      r.int(),
		OpenServers: r.int(),
		ServersUsed: r.int(),
		PeakServers: r.int(),
		UsageTime:   r.f64(),
		Policy:      r.str(),
		Engine:      r.str(),
		Capacity:    r.f64(),
		Dim:         r.int(),
		KeepAlive:   r.f64(),
		ClosedUsage: r.f64(),
	}
	if r.flag() {
		ps := &PolicyState{}
		if n := r.count(8); n > 0 {
			ps.Bins = make([]int, n)
			for i := range ps.Bins {
				ps.Bins[i] = r.int()
			}
		}
		if n := r.count(16); n > 0 {
			ps.Class = make(map[int]int, n)
			for i, last := 0, 0; i < n; i++ {
				k := r.int()
				if i > 0 && k <= last {
					r.fail("policy class keys not ascending")
				}
				ps.Class[k], last = r.int(), k
			}
		}
		ps.Draws = r.u64()
		out.PolicyState = ps
	}
	// A server takes at least 49 bytes, a job 28.
	if n := r.count(49); n > 0 {
		out.Servers = make([]bins.ServerState, n)
		for i := range out.Servers {
			sv := &out.Servers[i]
			sv.Index = r.int()
			sv.Level = r.f64()
			sv.Levels = r.f64s()
			sv.Jobs = r.int()
			sv.OpenedAt = r.f64()
			sv.Lingering = r.flag()
			sv.EmptySince = r.f64()
			if n := r.count(28); n > 0 {
				sv.Active = make([]bins.JobState, n)
				for j := range sv.Active {
					job := &sv.Active[j]
					job.ID = int64(r.u64())
					job.Size = r.f64()
					job.Sizes = r.f64s()
					job.Arrival = r.f64()
				}
			}
		}
	}
	if r.err == nil && len(r.b) > 0 {
		r.fail(fmt.Sprintf("%d trailing bytes", len(r.b)))
	}
	if r.err != nil {
		return r.err
	}
	*s = out
	return nil
}

func appendF64(b []byte, v float64) []byte {
	return binary.LittleEndian.AppendUint64(b, math.Float64bits(v))
}

func appendF64s(b []byte, vs []float64) []byte {
	b = binary.LittleEndian.AppendUint32(b, uint32(len(vs)))
	for _, v := range vs {
		b = appendF64(b, v)
	}
	return b
}

func appendInts(b []byte, vs ...int) []byte {
	for _, v := range vs {
		b = binary.LittleEndian.AppendUint64(b, uint64(int64(v)))
	}
	return b
}

func appendStr(b []byte, v string) []byte {
	return append(binary.LittleEndian.AppendUint32(b, uint32(len(v))), v...)
}

// snapReader reads the fields of a snapshot's binary encoding from the
// front of b. After the first fault every read returns zero and err
// keeps the fault.
type snapReader struct {
	b   []byte
	err error
}

func (r *snapReader) fail(msg string) {
	if r.err == nil {
		r.err = fmt.Errorf("%w: %s", errSnapshotEncoding, msg)
	}
	r.b = nil
}

// take returns the next n bytes, or nil after a fault or past the end.
func (r *snapReader) take(n int) []byte {
	if r.err != nil {
		return nil
	}
	if len(r.b) < n {
		r.fail("truncated")
		return nil
	}
	p := r.b[:n]
	r.b = r.b[n:]
	return p
}

func (r *snapReader) u8() byte {
	if p := r.take(1); p != nil {
		return p[0]
	}
	return 0
}

func (r *snapReader) u64() uint64 {
	if p := r.take(8); p != nil {
		return binary.LittleEndian.Uint64(p)
	}
	return 0
}

func (r *snapReader) int() int     { return int(int64(r.u64())) }
func (r *snapReader) f64() float64 { return math.Float64frombits(r.u64()) }
func (r *snapReader) flag() bool {
	switch r.u8() {
	case 0:
		return false
	case 1:
		return true
	}
	r.fail("flag byte not 0 or 1")
	return false
}

// count reads a u32 length whose elements take at least size bytes
// each, and refuses one that the bytes left cannot hold.
func (r *snapReader) count(size int) int {
	p := r.take(4)
	if p == nil {
		return 0
	}
	n := int(binary.LittleEndian.Uint32(p))
	if n > len(r.b)/size {
		r.fail(fmt.Sprintf("length %d past the end", n))
		return 0
	}
	return n
}

func (r *snapReader) str() string {
	return string(r.take(r.count(1)))
}

func (r *snapReader) f64s() []float64 {
	n := r.count(8)
	if n == 0 {
		return nil
	}
	vs := make([]float64, n)
	for i := range vs {
		vs[i] = r.f64()
	}
	return vs
}
