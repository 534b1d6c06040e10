package load

import (
	"errors"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"testing"
	"time"

	"dbp/internal/serve"
	"dbp/internal/wire"
)

// TestWireTargetRun exercises the binary transport end to end through
// the full harness: a real dispatcher behind a wire.Server on
// loopback, driven open-loop by the pooled pipelining client, with the
// error taxonomy and report config echo checked along the way.
func TestWireTargetRun(t *testing.T) {
	d, err := serve.New(serve.Config{Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	ws := wire.NewServer(d)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- ws.Serve(ln) }()
	t.Cleanup(func() {
		ws.Close()
		if err := <-done; err != nil {
			t.Errorf("wire serve: %v", err)
		}
		d.Close()
	})

	tgt, err := NewWire(ln.Addr().String(), wire.Options{Conns: 2})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { tgt.Close() })

	// Rejections carry the same stable codes as the HTTP transport.
	if err := tgt.Depart(999999, nil); classify(err) != "unknown_job" {
		t.Fatalf("unknown depart classified %q (err %v)", classify(err), err)
	}

	rep, err := Run(Options{
		Target:  tgt,
		Script:  testScript(t, 1000),
		Mode:    ModeOpen,
		Rate:    400,
		Clients: 4,
		Measure: 800 * time.Millisecond,
		Drain:   5 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Config.Target != "wire" {
		t.Fatalf("report target %q", rep.Config.Target)
	}
	if rep.Config.Transport == nil || rep.Config.Transport.Conns != 2 {
		t.Fatalf("transport tuning not echoed: %+v", rep.Config.Transport)
	}
	if rep.Ops["arrive"].Latency.Count == 0 {
		t.Fatal("no arrivals measured over the wire")
	}
	if len(rep.Ops["arrive"].Errors) > 0 || len(rep.Ops["depart"].Errors) > 0 {
		t.Errorf("unexpected errors: %+v %+v", rep.Ops["arrive"].Errors, rep.Ops["depart"].Errors)
	}
	// The Stats frame feeds the same server digest as /v1/stats, and
	// the run went through the batch path.
	if srv := rep.Server; srv == nil || srv.Arrivals != srv.Departures || srv.Rejected["unknown_job"] != 1 {
		t.Errorf("server state after wire run: %+v", rep.Server)
	} else if srv.Batches == 0 || srv.BatchOps == 0 {
		t.Errorf("wire run did not use the batch path: %+v", srv)
	}
}

// TestWireTransportErrorClass: a dead endpoint is a dial error; a
// retired client classifies as "transport", never a service code.
func TestWireTransportErrorClass(t *testing.T) {
	if _, err := NewWire("127.0.0.1:1", wire.Options{Conns: 1}); err == nil {
		t.Fatal("dial of a dead endpoint succeeded")
	}

	d, err := serve.New(serve.Config{Shards: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	ws := wire.NewServer(d)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go ws.Serve(ln)
	defer ws.Close()
	tgt, err := NewWire(ln.Addr().String(), wire.Options{Conns: 1})
	if err != nil {
		t.Fatal(err)
	}
	tgt.Close()
	err = tgt.Arrive(1, 0.5, nil, nil)
	if err == nil || classify(err) != "transport" {
		t.Fatalf("closed client: err=%v class=%q", err, classify(err))
	}
}

// TestClassifyReadsWireClass: every class the wire client can return
// (a *wire.OpError carrying its status byte) classifies to that class's
// stable code, the one the HTTP transport reports.
func TestClassifyReadsWireClass(t *testing.T) {
	for c := serve.Class(1); int(c) < serve.NumClasses; c++ {
		if got := classify(&wire.OpError{Status: c}); got != c.Code() {
			t.Errorf("class %d: wire error classifies as %q, want %q", c, got, c.Code())
		}
	}
}

// TestDurabilityFailedClassifiesAlike poisons a shard's journal: with
// the shard's directory gone, the next segment rotation cannot create
// its file. A rejection through the wire target and one through the HTTP
// target must classify alike, as durability_failed with HTTP status 503.
func TestDurabilityFailedClassifiesAlike(t *testing.T) {
	dir := t.TempDir()
	d, err := serve.New(serve.Config{Algorithm: "firstfit", Shards: 1, DataDir: dir, SegmentBytes: 64,
		Clock: func() float64 { return 0 }})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	ws := wire.NewServer(d)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go ws.Serve(ln)
	defer ws.Close()
	if err := os.RemoveAll(filepath.Join(dir, "shard-0000")); err != nil {
		t.Fatal(err)
	}
	at := func(v float64) *float64 { return &v }
	if _, err := d.Arrive(1, 0.1, nil, at(1)); err != nil {
		t.Fatalf("arrive before rotation: %v", err)
	}
	if _, err := d.Arrive(2, 0.1, nil, at(2)); !errors.Is(err, serve.ErrDurability) {
		t.Fatalf("arrive after failed rotation: %v, want ErrDurability", err)
	}

	wt, err := NewWire(ln.Addr().String(), wire.Options{Conns: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer wt.Close()
	srv := httptest.NewServer(serve.NewHandler(d))
	defer srv.Close()
	ht := NewHTTP(srv.URL, 1, 5*time.Second)
	wireErr, httpErr := wt.Arrive(3, 0.1, nil, at(3)), ht.Arrive(4, 0.1, nil, at(4))
	if w, h := classify(wireErr), classify(httpErr); w != "durability_failed" || h != w {
		t.Fatalf("classified wire %q, HTTP %q; want durability_failed for both", w, h)
	}
	var we, he *apiError
	if !errors.As(wireErr, &we) || !errors.As(httpErr, &he) || we.Status != he.Status || he.Status != http.StatusServiceUnavailable {
		t.Fatalf("wire %v and HTTP %v disagree on the HTTP status", wireErr, httpErr)
	}
	if n := d.Stats().Rejected["durability_failed"]; n != 3 {
		t.Fatalf("stats count %d durability_failed rejections, want 3", n)
	}
}
