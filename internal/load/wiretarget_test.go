package load

import (
	"net"
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
	if err := tgt.Depart(999999, nil); Classify(err) != "unknown_job" {
		t.Fatalf("unknown depart classified %q (err %v)", Classify(err), err)
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
	if err == nil || Classify(err) != "transport" {
		t.Fatalf("closed client: err=%v class=%q", err, Classify(err))
	}
}
