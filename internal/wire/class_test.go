package wire

import (
	"errors"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"testing"

	"dbp/internal/serve"
)

// TestStatusMappingsAreTotal walks the class table end to end: for each
// class, an error wrapping its sentinel classifies to it, carries a
// unique code and an error HTTP status, goes over the wire as the
// class's own byte, and comes back from the client as a singleton error
// that serve.ClassOf reads as the same class (load's
// TestClassifyReadsWireClass holds the load generator's classifier to
// it). Every key the stats count rejections under is one of those codes.
func TestStatusMappingsAreTotal(t *testing.T) {
	// The status bytes are wire format: 0–7 as protocol version 1
	// shipped them, durability_failed appended as 8.
	byteCodes := []string{"", "duplicate_job", "unknown_job", "bad_demand", "time_regression",
		"policy_misplace", "shutting_down", "internal", "durability_failed"}
	if serve.NumClasses != len(byteCodes) {
		t.Fatalf("%d classes, want %d", serve.NumClasses, len(byteCodes))
	}
	codes := map[string]bool{}
	for c := serve.Class(0); int(c) < serve.NumClasses; c++ {
		if c.Code() != byteCodes[c] {
			t.Fatalf("status byte %d is %q, want %q", c, c.Code(), byteCodes[c])
		}
		if c == serve.ClassOK {
			if c.Code() != "" || c.HTTPStatus() != http.StatusOK || c.Err() != nil || errorOf(c) != nil {
				t.Fatalf("ClassOK = (%q, %d, %v), want no code, 200, no error", c.Code(), c.HTTPStatus(), c.Err())
			}
			if serve.ClassOf(nil) != serve.ClassOK {
				t.Fatal("ClassOf(nil) is not ClassOK")
			}
			continue
		}
		sentinel := c.Err()
		if c == serve.ClassInternal {
			if sentinel != nil || c.Code() != "internal" {
				t.Fatalf("ClassInternal = (%q, %v), want the sentinel-free internal row", c.Code(), sentinel)
			}
			sentinel = errors.New("an error no row claims")
		} else if sentinel == nil {
			t.Fatalf("class %d (%s) has no sentinel", c, c.Code())
		}
		err := fmt.Errorf("context: %w", sentinel)
		if got := serve.ClassOf(err); got != c {
			t.Fatalf("ClassOf(%v) = %d, want %d", err, got, c)
		}
		code := c.Code()
		if code == "" || codes[code] {
			t.Fatalf("class %d has code %q: empty or taken", c, code)
		}
		codes[code] = true
		if c.HTTPStatus() < 400 {
			t.Fatalf("class %s: HTTP status %d is not an error status", code, c.HTTPStatus())
		}

		// The server encodes the class as its status byte; the client
		// decodes it into the class's shared error.
		b := AppendResult(nil, &Result{Status: serve.ClassOf(err)})
		if b[0] != byte(c) {
			t.Fatalf("class %s went over the wire as byte %d, want %d", code, b[0], c)
		}
		var r Result
		if _, derr := DecodeResult(b, &r); derr != nil {
			t.Fatal(derr)
		}
		cerr := errorOf(r.Status)
		if cerr == nil || cerr != errorOf(r.Status) {
			t.Fatalf("class %s: client error %v is nil or not a singleton", code, cerr)
		}
		var oe *OpError
		if !errors.As(cerr, &oe) || oe.Status != c {
			t.Fatalf("class %s: client error %v does not carry the class", code, cerr)
		}
		if serve.ClassOf(cerr) != c {
			t.Fatalf("class %s: client error reads as %d", code, serve.ClassOf(cerr))
		}
	}
	// A byte past the table (a newer server's class) degrades to
	// internal, never panics.
	if c := serve.Class(200); c.Code() != "internal" || c.HTTPStatus() != 500 ||
		errorOf(c) != errorOf(serve.ClassInternal) {
		t.Fatal("unknown status must map to internal")
	}

	// Every rejection the stats count is keyed by a per-op code.
	d, err := serve.New(serve.Config{Algorithm: "firstfit", Shards: 1})
	if err != nil {
		t.Fatal(err)
	}
	d.Arrive(1, 0.5, nil, tp(1))
	d.Arrive(1, 0.5, nil, tp(2))   // duplicate_job
	d.Depart(42, tp(2))            // unknown_job
	d.Arrive(2, 1.5, nil, tp(2))   // bad_demand
	d.Arrive(3, 0.1, nil, tp(0.5)) // time_regression
	d.Close()
	d.Arrive(4, 0.1, nil, tp(3)) // shutting_down
	rej := d.Stats().Rejected
	if len(rej) != 5 {
		t.Fatalf("rejected = %v, want 5 classes", rej)
	}
	for k := range rej {
		if !codes[k] {
			t.Fatalf("stats count rejections under %q, not a per-op code", k)
		}
	}
}

// TestWireDurabilityFailed poisons a shard's journal: with the shard's
// directory gone, the next segment rotation cannot create its file. The
// rejection must read as durability_failed (503) over the wire and be
// counted under that code (load's TestDurabilityFailedClassifiesAlike
// holds the wire and HTTP targets to one classification of it).
func TestWireDurabilityFailed(t *testing.T) {
	dir := t.TempDir()
	d, _, addr := startServer(t, serve.Config{Algorithm: "firstfit", Shards: 1, DataDir: dir, SegmentBytes: 64})
	if err := os.RemoveAll(filepath.Join(dir, "shard-0000")); err != nil {
		t.Fatal(err)
	}
	c := dial(t, addr, Options{Conns: 1})
	if _, err := c.Arrive(1, 0.1, nil, tp(1)); err != nil {
		t.Fatalf("arrive before rotation: %v", err)
	}
	_, err := c.Arrive(2, 0.1, nil, tp(2))
	var oe *OpError
	if !errors.As(err, &oe) || oe.Status.Code() != "durability_failed" || oe.Status.HTTPStatus() != http.StatusServiceUnavailable {
		t.Fatalf("arrive after failed rotation: %v, want durability_failed 503", err)
	}
	if !errors.Is(err, serve.ErrDurability) {
		t.Fatalf("client error %v does not wrap ErrDurability", err)
	}
	if n := d.Stats().Rejected["durability_failed"]; n != 1 {
		t.Fatalf("stats count %d durability_failed rejections, want 1", n)
	}
}
