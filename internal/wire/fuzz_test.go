package wire

import (
	"bytes"
	"errors"
	"math"
	"slices"
	"testing"

	"dbp/internal/serve"
)

// FuzzDecodeOp throws arbitrary bytes at the op decoder: it must never
// panic, never report consuming more bytes than it was given, and
// anything it accepts must re-encode to the exact bytes it consumed
// (the codec is canonical: one byte string per op).
func FuzzDecodeOp(f *testing.F) {
	for _, op := range opCases() {
		f.Add(AppendOp(nil, &op))
	}
	f.Add([]byte{})
	f.Add([]byte{OpArrive, flagVector})
	f.Add([]byte{OpDepart, 0xFF, 1, 2, 3, 4, 5, 6, 7, 8})
	f.Fuzz(func(t *testing.T, data []byte) {
		var op Op
		n, err := DecodeOp(data, &op)
		if err != nil {
			return
		}
		if n < 0 || n > len(data) {
			t.Fatalf("decoder consumed %d of %d bytes", n, len(data))
		}
		re := AppendOp(nil, &op)
		if !bytes.Equal(re, data[:n]) {
			t.Fatalf("re-encode mismatch: got %x, consumed %x", re, data[:n])
		}
	})
}

// FuzzDecodeResult is the result-side mirror of FuzzDecodeOp.
func FuzzDecodeResult(f *testing.F) {
	f.Add(AppendResult(nil, &Result{Status: serve.ClassOK, Flag: true, Server: 3, Time: 1.5}))
	f.Add([]byte{})
	f.Add(make([]byte, resultLen))
	f.Fuzz(func(t *testing.T, data []byte) {
		var r Result
		n, err := DecodeResult(data, &r)
		if err != nil {
			return
		}
		if n < 0 || n > len(data) {
			t.Fatalf("decoder consumed %d of %d bytes", n, len(data))
		}
		re := AppendResult(nil, &r)
		// Flag is the one non-canonical byte (any nonzero encodes back
		// as 1); compare around it.
		if re[0] != data[0] || !bytes.Equal(re[2:n], data[2:n]) {
			t.Fatalf("re-encode mismatch: got %x, consumed %x", re, data[:n])
		}
	})
}

// FuzzDecodeBatch drives the server's batch-payload decoder (count +
// ops, the exact bytes a connection delivers) with arbitrary payloads:
// no panics, no over-reads, and accepted batches must contain exactly
// the advertised op count. An accepted payload is decoded a second time
// at base n into the same slice, as the server merges buffered frames:
// both halves must equal the standalone decode.
func FuzzDecodeBatch(f *testing.F) {
	good := appendU32(nil, 2)
	good = AppendOp(good, &Op{Kind: OpArrive, ID: 1, Size: 0.5})
	good = AppendOp(good, &Op{Kind: OpDepart, ID: 1})
	f.Add(good)
	vec := appendU32(nil, 2)
	vec = AppendOp(vec, &Op{Kind: OpArrive, ID: 2, Size: 0.5, Sizes: []float64{0.5, 0.25}})
	vec = AppendOp(vec, &Op{Kind: OpArrive, ID: 3, Size: 0.75, Sizes: []float64{0.125, 0.75}, HasTime: true, Time: 4})
	f.Add(vec)
	f.Add([]byte{})
	f.Add(appendU32(nil, 0))
	f.Add(appendU32(nil, 1<<31))
	f.Fuzz(func(t *testing.T, data []byte) {
		var ops []serve.BatchOp
		n, err := decodeBatch(data, &ops, 0)
		if err != nil {
			return
		}
		if n == 0 || n > maxBatchOps {
			t.Fatalf("accepted batch of %d ops", n)
		}
		if len(data) < 4 || int(u32(data)) != n {
			t.Fatalf("decoded %d ops but payload advertised %d", n, u32(data))
		}
		alone := make([]serve.BatchOp, n)
		for i, op := range ops {
			alone[i] = op
			alone[i].Sizes = slices.Clone(op.Sizes)
		}
		m, err := decodeBatch(data, &ops, n)
		if 2*n > maxBatchOps {
			if !errors.Is(err, errBatchSize) {
				t.Fatalf("second decode past MaxBatchOps: n=%d err=%v", m, err)
			}
			return
		}
		if err != nil || m != n || len(ops) != 2*n {
			t.Fatalf("second decode at base %d: n=%d len=%d err=%v", n, m, len(ops), err)
		}
		for i, want := range alone {
			if !sameOp(ops[i], want) || !sameOp(ops[n+i], want) {
				t.Fatalf("op %d: halves %+v, %+v; standalone %+v", i, ops[i], ops[n+i], want)
			}
			if len(want.Sizes) > 0 && &ops[i].Sizes[0] == &ops[n+i].Sizes[0] {
				t.Fatalf("op %d: both halves share one demand vector", i)
			}
		}
	})
}

// sameOp compares two decoded ops bit for bit (NaN demands included).
func sameOp(a, b serve.BatchOp) bool {
	same := func(x, y float64) bool { return math.Float64bits(x) == math.Float64bits(y) }
	return a.Depart == b.Depart && a.ID == b.ID && same(a.Size, b.Size) &&
		a.HasTime == b.HasTime && same(a.Time, b.Time) &&
		slices.EqualFunc(a.Sizes, b.Sizes, same)
}
