package wire_test

import (
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"testing"
	"time"

	"dbp/internal/load"
	"dbp/internal/serve"
	"dbp/internal/wire"
)

// TestStatusMappingsAreTotal walks the class table end to end: for each
// class, an error wrapping its sentinel classifies to it, carries a
// unique code and an error HTTP status, goes over the wire as the
// class's own byte, and comes back from the client as a singleton error
// that serve.ClassOf and load.Classify read as the same class. Every
// key the stats count rejections under is one of those codes.
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
			if c.Code() != "" || c.HTTPStatus() != http.StatusOK || c.Err() != nil || wire.ErrorOf(c) != nil {
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
		b := wire.AppendResult(nil, &wire.Result{Status: serve.ClassOf(err)})
		if b[0] != byte(c) {
			t.Fatalf("class %s went over the wire as byte %d, want %d", code, b[0], c)
		}
		var r wire.Result
		if _, derr := wire.DecodeResult(b, &r); derr != nil {
			t.Fatal(derr)
		}
		cerr := wire.ErrorOf(r.Status)
		if cerr == nil || cerr != wire.ErrorOf(r.Status) {
			t.Fatalf("class %s: client error %v is nil or not a singleton", code, cerr)
		}
		var oe *wire.OpError
		if !errors.As(cerr, &oe) || oe.Status != c {
			t.Fatalf("class %s: client error %v does not carry the class", code, cerr)
		}
		if serve.ClassOf(cerr) != c || load.Classify(cerr) != code {
			t.Fatalf("class %s: client error reads as %d / %q", code, serve.ClassOf(cerr), load.Classify(cerr))
		}
	}
	// A byte past the table (a newer server's class) degrades to
	// internal, never panics.
	if c := serve.Class(200); c.Code() != "internal" || c.HTTPStatus() != 500 ||
		wire.ErrorOf(c) != wire.ErrorOf(serve.ClassInternal) {
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
// rejection must read as durability_failed (503) over the wire, classify
// as it does over HTTP, and be counted under that code.
func TestWireDurabilityFailed(t *testing.T) {
	dir := t.TempDir()
	d, _, addr := startServer(t, serve.Config{Algorithm: "firstfit", Shards: 1, DataDir: dir, SegmentBytes: 64})
	if err := os.RemoveAll(filepath.Join(dir, "shard-0000")); err != nil {
		t.Fatal(err)
	}
	c := dial(t, addr, wire.Options{Conns: 1})
	if _, err := c.Arrive(1, 0.1, nil, tp(1)); err != nil {
		t.Fatalf("arrive before rotation: %v", err)
	}
	_, err := c.Arrive(2, 0.1, nil, tp(2))
	var oe *wire.OpError
	if !errors.As(err, &oe) || oe.Status.Code() != "durability_failed" || oe.Status.HTTPStatus() != http.StatusServiceUnavailable {
		t.Fatalf("arrive after failed rotation: %v, want durability_failed 503", err)
	}
	if !errors.Is(err, serve.ErrDurability) {
		t.Fatalf("client error %v does not wrap ErrDurability", err)
	}

	wt, err := load.NewWire(addr, wire.Options{Conns: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer wt.Close()
	srv := httptest.NewServer(serve.NewHandler(d))
	defer srv.Close()
	ht := load.NewHTTP(srv.URL, 1, 5*time.Second)
	wireErr, httpErr := wt.Arrive(3, 0.1, nil, tp(3)), ht.Arrive(4, 0.1, nil, tp(4))
	if w, h := load.Classify(wireErr), load.Classify(httpErr); w != "durability_failed" || h != w {
		t.Fatalf("classified wire %q, HTTP %q; want durability_failed for both", w, h)
	}
	var we, he *load.APIError
	if !errors.As(wireErr, &we) || !errors.As(httpErr, &he) || we.Status != he.Status || he.Status != http.StatusServiceUnavailable {
		t.Fatalf("wire %v and HTTP %v disagree on the HTTP status", wireErr, httpErr)
	}
	if n := d.Stats().Rejected["durability_failed"]; n != 3 {
		t.Fatalf("stats count %d durability_failed rejections, want 3", n)
	}
}
