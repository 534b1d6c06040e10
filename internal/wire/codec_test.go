package wire

import (
	"math"
	"reflect"
	"runtime"
	"testing"

	"dbp/internal/packing"
	"dbp/internal/serve"
)

// opCases spans the op shapes: scalar/vector, with/without explicit
// time, arrive/depart, plus edge values (negative IDs, NaN-free
// extremes — NaN demands are the service's to reject, the codec moves
// bits faithfully).
func opCases() []Op {
	return []Op{
		{Kind: OpArrive, ID: 1, Size: 0.5},
		{Kind: OpArrive, ID: -9_000_000_000, Size: math.MaxFloat64},
		{Kind: OpArrive, ID: 42, Size: 0.25, HasTime: true, Time: 1234.5},
		{Kind: OpArrive, ID: 7, Size: 0, Sizes: []float64{0.1, 0.2, 0.3, 0.4}},
		{Kind: OpArrive, ID: 8, Size: 0.9, Sizes: []float64{0.5}, HasTime: true, Time: 0.001},
		{Kind: OpDepart, ID: 99},
		{Kind: OpDepart, ID: 3, HasTime: true, Time: 17},
	}
}

func TestOpRoundTrip(t *testing.T) {
	for _, want := range opCases() {
		buf := AppendOp(nil, &want)
		var got Op
		n, err := DecodeOp(buf, &got)
		if err != nil {
			t.Fatalf("decode %+v: %v", want, err)
		}
		if n != len(buf) {
			t.Fatalf("decode %+v consumed %d of %d bytes", want, n, len(buf))
		}
		// Decode normalizes Sizes to the empty slice; compare contents.
		if got.Kind != want.Kind || got.ID != want.ID || got.Size != want.Size ||
			got.HasTime != want.HasTime || got.Time != want.Time {
			t.Fatalf("round trip: got %+v, want %+v", got, want)
		}
		if len(got.Sizes) != len(want.Sizes) {
			t.Fatalf("round trip sizes: got %v, want %v", got.Sizes, want.Sizes)
		}
		for i := range want.Sizes {
			if got.Sizes[i] != want.Sizes[i] {
				t.Fatalf("round trip sizes: got %v, want %v", got.Sizes, want.Sizes)
			}
		}
	}
}

func TestOpDecodeReusesSizes(t *testing.T) {
	src := Op{Kind: OpArrive, ID: 5, Sizes: []float64{1, 2, 3}}
	buf := AppendOp(nil, &src)
	op := Op{Sizes: make([]float64, 0, 8)}
	backing := op.Sizes[:cap(op.Sizes)]
	if _, err := DecodeOp(buf, &op); err != nil {
		t.Fatal(err)
	}
	if &backing[0] != &op.Sizes[0] {
		t.Fatal("decode reallocated the sizes slice despite sufficient capacity")
	}
}

func TestResultRoundTrip(t *testing.T) {
	for _, want := range []Result{
		{Status: serve.ClassOK, Flag: true, Server: 0, Time: 0},
		{Status: serve.ClassOK, Flag: false, Server: 1 << 20, Time: 99.25},
		{Status: serve.ClassOf(packing.ErrUnknownJob), Server: -1},
		{Status: serve.ClassOf(serve.ErrClosed), Time: math.Inf(1)},
	} {
		buf := AppendResult(nil, &want)
		if len(buf) != resultLen {
			t.Fatalf("encoded result is %d bytes, want %d", len(buf), resultLen)
		}
		var got Result
		n, err := DecodeResult(buf, &got)
		if err != nil || n != resultLen {
			t.Fatalf("decode: n=%d err=%v", n, err)
		}
		if got != want {
			t.Fatalf("round trip: got %+v, want %+v", got, want)
		}
	}
}

func TestDecodeOpTruncation(t *testing.T) {
	for _, op := range opCases() {
		full := AppendOp(nil, &op)
		for cut := 0; cut < len(full); cut++ {
			var dst Op
			if _, err := DecodeOp(full[:cut], &dst); err == nil {
				t.Fatalf("decode of %d/%d bytes of %+v succeeded", cut, len(full), op)
			}
		}
	}
}

func TestDecodeOpRejectsBadInput(t *testing.T) {
	var dst Op
	if _, err := DecodeOp([]byte{7, 0, 0, 0, 0, 0, 0, 0, 0, 0}, &dst); err != ErrBadKind {
		t.Fatalf("bad kind: %v", err)
	}
	// Vector arrive claiming a dimensionality past maxDim.
	buf := []byte{OpArrive, flagVector}
	buf = append(buf, make([]byte, 16)...) // id + size
	buf = append(buf, 0xFF, 0xFF)          // dim = 65535
	if _, err := DecodeOp(buf, &dst); err != ErrBadDim {
		t.Fatalf("oversized dim: %v", err)
	}
	buf[len(buf)-2], buf[len(buf)-1] = 0, 0 // dim = 0
	if _, err := DecodeOp(buf, &dst); err != ErrBadDim {
		t.Fatalf("zero dim: %v", err)
	}
	// Undefined flag bits must be rejected, not silently dropped —
	// otherwise decode(encode(x)) is lossy (the fuzzer found this).
	bad := append([]byte{OpDepart, 0x30}, make([]byte, 8)...)
	if _, err := DecodeOp(bad, &dst); err != ErrBadFlags {
		t.Fatalf("undefined flags: %v", err)
	}
	// flagVector is arrive-only; a depart carrying it is malformed.
	vecDepart := append([]byte{OpDepart, flagVector}, make([]byte, 8)...)
	if _, err := DecodeOp(vecDepart, &dst); err != ErrBadFlags {
		t.Fatalf("vector depart: %v", err)
	}
}

func TestFrameHeaderRoundTrip(t *testing.T) {
	payload := []byte("hello, shard")
	frame := appendFrame(nil, frameBatch, payload)
	typ, n, err := parseFrameHeader(frame)
	if err != nil || typ != frameBatch || n != len(payload) {
		t.Fatalf("typ=%d n=%d err=%v", typ, n, err)
	}
	if string(frame[frameHeaderLen:]) != string(payload) {
		t.Fatal("payload corrupted")
	}
	// Begin/End produce the identical frame.
	b, off := beginFrame(nil, frameBatch)
	b = append(b, payload...)
	b = endFrame(b, off)
	if !reflect.DeepEqual(b, frame) {
		t.Fatalf("BeginFrame/EndFrame = %x, want %x", b, frame)
	}
	// A hostile length is refused before any allocation.
	oversize := appendFrame(nil, frameBatch, nil)
	oversize[1], oversize[2], oversize[3], oversize[4] = 0xFF, 0xFF, 0xFF, 0xFF
	if _, _, err := parseFrameHeader(oversize); err != ErrFrameSize {
		t.Fatalf("oversized frame length: %v", err)
	}
}

func TestHelloRoundTrip(t *testing.T) {
	p := appendHello(nil, Version)
	v, err := parseHello(p)
	if err != nil || v != Version {
		t.Fatalf("v=%d err=%v", v, err)
	}
	if _, err := parseHello([]byte("XXXX\x01\x00")); err != ErrBadMagic {
		t.Fatalf("bad magic: %v", err)
	}
	if _, err := parseHello([]byte("DBP")); err != ErrShortBuffer {
		t.Fatalf("short hello: %v", err)
	}
}

// TestCodecZeroAlloc is the zero-allocation proof for the hot path:
// encoding and decoding scalar and vector ops and results into reused
// buffers must not allocate. (Skipped under -race, which disables the
// inlining the guarantee rides on; the companion benchmarks report
// allocs/op in every build.)
func TestCodecZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("alloc accounting is unreliable under -race")
	}
	scalar := Op{Kind: OpArrive, ID: 123456, Size: 0.375, HasTime: true, Time: 42.5}
	vector := Op{Kind: OpArrive, ID: 7, Sizes: []float64{0.1, 0.2, 0.3, 0.4}}
	res := Result{Status: serve.ClassOK, Flag: true, Server: 17, Time: 42.5}
	buf := make([]byte, 0, 256)
	dst := Op{Sizes: make([]float64, 0, 8)}
	var dr Result

	if n := mallocs(1000, func() {
		buf = AppendOp(buf[:0], &scalar)
		buf = AppendOp(buf, &vector)
		buf = AppendResult(buf, &res)
	}); n != 0 {
		t.Fatalf("1000 encodes allocate %d times, want 0", n)
	}
	enc := AppendOp(nil, &scalar)
	encVec := AppendOp(nil, &vector)
	encRes := AppendResult(nil, &res)
	if n := mallocs(1000, func() {
		if _, err := DecodeOp(enc, &dst); err != nil {
			t.Fatal(err)
		}
		if _, err := DecodeOp(encVec, &dst); err != nil {
			t.Fatal(err)
		}
		if _, err := DecodeResult(encRes, &dr); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Fatalf("1000 decodes allocate %d times, want 0", n)
	}
}

// mallocs counts the heap allocations of runs calls of f, after one
// warm-up call, at GOMAXPROCS(1) so no other goroutine's allocation is
// counted. Unlike testing.AllocsPerRun, whose integer quotient reads 0
// for an allocation rarer than once per run, it misses none.
func mallocs(runs int, f func()) uint64 {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	runtime.GC()
	f()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		f()
	}
	runtime.ReadMemStats(&after)
	return after.Mallocs - before.Mallocs
}

// BenchmarkWireEncode and BenchmarkWireDecode are the codec's
// perf-and-allocs ledger: `go test -bench Wire -benchmem
// ./internal/wire` must report 0 allocs/op.
func BenchmarkWireEncode(b *testing.B) {
	op := Op{Kind: OpArrive, ID: 123456, Size: 0.375, HasTime: true, Time: 42.5}
	buf := make([]byte, 0, 64)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		buf = AppendOp(buf[:0], &op)
	}
	if len(buf) == 0 {
		b.Fatal("no output")
	}
}

func BenchmarkWireEncodeVector(b *testing.B) {
	op := Op{Kind: OpArrive, ID: 123456, Sizes: []float64{0.1, 0.2, 0.3, 0.4}}
	buf := make([]byte, 0, 64)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		buf = AppendOp(buf[:0], &op)
	}
}

func BenchmarkWireDecode(b *testing.B) {
	op := Op{Kind: OpArrive, ID: 123456, Size: 0.375, HasTime: true, Time: 42.5}
	enc := AppendOp(nil, &op)
	var dst Op
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := DecodeOp(enc, &dst); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkWireDecodeVector(b *testing.B) {
	op := Op{Kind: OpArrive, ID: 123456, Sizes: []float64{0.1, 0.2, 0.3, 0.4}}
	enc := AppendOp(nil, &op)
	dst := Op{Sizes: make([]float64, 0, 8)}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := DecodeOp(enc, &dst); err != nil {
			b.Fatal(err)
		}
	}
}
