package wire_test

import (
	"errors"
	"net"
	"testing"

	"dbp/internal/item"
	"dbp/internal/packing"
	"dbp/internal/serve"
	"dbp/internal/wire"
)

// startServer brings up a dispatcher and a wire server on a loopback
// listener, returning the dial address. The dispatcher clock is frozen
// at 0 so explicit-time requests are golden-comparable.
func startServer(t testing.TB, cfg serve.Config) (*serve.Dispatcher, *wire.Server, string) {
	t.Helper()
	if cfg.Clock == nil {
		cfg.Clock = func() float64 { return 0 }
	}
	d, err := serve.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	s := wire.NewServer(d)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	serveDone := make(chan error, 1)
	go func() { serveDone <- s.Serve(ln) }()
	t.Cleanup(func() {
		s.Close()
		if err := <-serveDone; err != nil {
			t.Errorf("Serve returned %v", err)
		}
		d.Close()
	})
	return d, s, ln.Addr().String()
}

func dial(t testing.TB, addr string, opts wire.Options) *wire.Client {
	t.Helper()
	c, err := wire.Dial(addr, opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	return c
}

func tp(v float64) *float64 { return &v }

// TestWireGolden mirrors the HTTP golden suite over the binary
// transport: placements, departure flags, and every error class come
// back with the same stable codes the JSON API uses.
func TestWireGolden(t *testing.T) {
	_, _, addr := startServer(t, serve.Config{Algorithm: "firstfit", Shards: 1})
	c := dial(t, addr, wire.Options{Conns: 1})

	// Two arrivals that cannot share a server, then a small job that
	// first-fits onto server 0.
	res, err := c.Arrive(1, 0.6, nil, tp(0))
	if err != nil || res.Server != 0 || !res.Flag || res.Time != 0 {
		t.Fatalf("arrive 1: res=%+v err=%v", res, err)
	}
	res, err = c.Arrive(2, 0.6, nil, tp(1))
	if err != nil || res.Server != 1 || !res.Flag {
		t.Fatalf("arrive 2: res=%+v err=%v", res, err)
	}
	res, err = c.Arrive(3, 0.3, nil, tp(1))
	if err != nil || res.Server != 0 || res.Flag {
		t.Fatalf("arrive 3: res=%+v err=%v", res, err)
	}

	for _, tc := range []struct {
		name   string
		do     func() error
		status serve.Class // the wire status byte
		code   string
	}{
		{"duplicate arrive", func() error { _, err := c.Arrive(1, 0.2, nil, tp(2)); return err }, 1, "duplicate_job"},
		{"unknown depart", func() error { _, err := c.Depart(42, tp(2)); return err }, 2, "unknown_job"},
		{"oversized demand", func() error { _, err := c.Arrive(9, 1.5, nil, tp(2)); return err }, 3, "bad_demand"},
		{"time regression", func() error { _, err := c.Arrive(9, 0.2, nil, tp(0.5)); return err }, 4, "time_regression"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			err := tc.do()
			var oe *wire.OpError
			if !errors.As(err, &oe) {
				t.Fatalf("err = %v, want *OpError", err)
			}
			if oe.Status != tc.status || oe.Status.Code() != tc.code {
				t.Fatalf("status %d (%s), want %d (%s)", oe.Status, oe.Status.Code(), tc.status, tc.code)
			}
		})
	}

	// Departing job 3 leaves server 0 occupied by job 1: not closed.
	res, err = c.Depart(3, tp(3))
	if err != nil || res.Server != 0 || res.Flag {
		t.Fatalf("depart 3: res=%+v err=%v", res, err)
	}
	// Departing job 2 empties server 1: closed.
	res, err = c.Depart(2, tp(3))
	if err != nil || res.Server != 1 || !res.Flag {
		t.Fatalf("depart 2: res=%+v err=%v", res, err)
	}
}

// TestWireRefusesOversizedDemand: an arrive with more than MaxDim
// components is refused by the client with the dispatcher's own code,
// bad_demand, and never reaches the server, so the connection every
// caller shares stays up for the next op.
func TestWireRefusesOversizedDemand(t *testing.T) {
	d, _, addr := startServer(t, serve.Config{Algorithm: "firstfit", Shards: 1})
	c := dial(t, addr, wire.Options{Conns: 1})

	sizes := make([]float64, wire.MaxDim+1)
	for i := range sizes {
		sizes[i] = 0.5
	}
	_, err := c.Arrive(1, 0.5, sizes, tp(0))
	var oe *wire.OpError
	if !errors.As(err, &oe) || oe.Status.Code() != "bad_demand" {
		t.Fatalf("%d-dim arrive: err = %v, want bad_demand", len(sizes), err)
	}
	if _, derr := d.Arrive(1, 0.5, sizes, tp(0)); serve.ClassOf(derr) != oe.Status {
		t.Fatalf("dispatcher answers %v (%s), wire %s", derr, serve.ClassOf(derr).Code(), oe.Status.Code())
	}
	if res, err := c.Arrive(2, 0.5, nil, tp(0)); err != nil || res.Server != 0 {
		t.Fatalf("scalar arrive after the refused one: res=%+v err=%v", res, err)
	}
}

// TestWireVectorDemand round-trips d-dimensional jobs end to end.
func TestWireVectorDemand(t *testing.T) {
	d, _, addr := startServer(t, serve.Config{Algorithm: "firstfit", Shards: 1, Dim: 2, DataDir: t.TempDir()})
	c := dial(t, addr, wire.Options{Conns: 1})

	if _, err := c.Arrive(1, 0.7, []float64{0.5, 0.7}, tp(0)); err != nil {
		t.Fatalf("vector arrive: %v", err)
	}
	// Doesn't fit dimension 2 on server 0 → opens server 1.
	res, err := c.Arrive(2, 0.5, []float64{0.1, 0.5}, tp(1))
	if err != nil || res.Server != 1 || !res.Flag {
		t.Fatalf("vector arrive 2: res=%+v err=%v", res, err)
	}
	// Wrong dimensionality is refused by the service, not the codec.
	_, err = c.Arrive(3, 0.5, nil, tp(2))
	var oe *wire.OpError
	if !errors.As(err, &oe) || oe.Status != serve.ClassOf(packing.ErrBadDemand) {
		t.Fatalf("scalar into dim-2 service: %v", err)
	}
	// The journaled demand vector must match what went over the wire.
	evs := journal(t, d, 0)
	if len(evs) != 2 || len(evs[0].Sizes) != 2 || evs[0].Sizes[0] != 0.5 || evs[0].Sizes[1] != 0.7 {
		t.Fatalf("journal = %+v", evs)
	}
}

// TestWireStatsAndPing exercises the control frames and confirms the
// dispatcher's batch counters advance — i.e. the transport really does
// feed the batch path.
func TestWireStatsAndPing(t *testing.T) {
	_, _, addr := startServer(t, serve.Config{Algorithm: "firstfit", Shards: 2})
	c := dial(t, addr, wire.Options{Conns: 1})

	if err := c.Ping([]byte("are you there")); err != nil {
		t.Fatalf("ping: %v", err)
	}
	const n = 50
	for i := 1; i <= n; i++ {
		if _, err := c.Arrive(item.ID(i), 0.01, nil, tp(float64(i))); err != nil {
			t.Fatalf("arrive %d: %v", i, err)
		}
	}
	st, err := c.Stats()
	if err != nil {
		t.Fatalf("stats: %v", err)
	}
	if st.Arrivals != n {
		t.Fatalf("stats arrivals = %d, want %d", st.Arrivals, n)
	}
	if st.Batches == 0 || st.BatchOps != n {
		t.Fatalf("batches=%d batch_ops=%d, want >0 and %d", st.Batches, st.BatchOps, n)
	}
}

// TestWirePipelinedConcurrency hammers one small pool from many
// goroutines: every op resolves exactly once with a sensible outcome,
// and the server sees every accepted op.
func TestWirePipelinedConcurrency(t *testing.T) {
	d, _, addr := startServer(t, serve.Config{Shards: 4, DataDir: t.TempDir()})
	c := dial(t, addr, wire.Options{Conns: 2})

	const clients = 8
	const perClient = 200
	errc := make(chan error, clients)
	for g := 0; g < clients; g++ {
		go func(g int) {
			for i := 0; i < perClient; i++ {
				id := item.ID(g*perClient + i + 1)
				if _, err := c.Arrive(id, 0.25, nil, nil); err != nil {
					errc <- err
					return
				}
				if _, err := c.Depart(id, nil); err != nil {
					errc <- err
					return
				}
			}
			errc <- nil
		}(g)
	}
	for g := 0; g < clients; g++ {
		if err := <-errc; err != nil {
			t.Fatal(err)
		}
	}
	st := d.Stats()
	if st.Arrivals != clients*perClient || st.Departures != clients*perClient {
		t.Fatalf("server saw %d/%d ops, want %d/%d",
			st.Arrivals, st.Departures, clients*perClient, clients*perClient)
	}
	if st.Batches == 0 {
		t.Fatal("no batch frames were applied")
	}
	var journaled int
	for i := 0; i < d.NumShards(); i++ {
		journaled += len(journal(t, d, i))
	}
	if journaled != 2*clients*perClient {
		t.Fatalf("journaled %d events, want %d", journaled, 2*clients*perClient)
	}
}

// TestWireHandshakeRejectsStrangers: a peer with the wrong magic or
// version is refused at the handshake.
func TestWireHandshakeRejects(t *testing.T) {
	_, _, addr := startServer(t, serve.Config{})
	// Wrong magic.
	nc, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer nc.Close()
	nc.Write(wire.AppendFrame(nil, wire.FrameHello, []byte("HTTP/1.1\r\n")))
	buf := make([]byte, 256)
	n, _ := nc.Read(buf)
	if n == 0 || buf[0] != wire.FrameError {
		t.Fatalf("expected FrameError for bad magic, got %v", buf[:n])
	}
	// Wrong version.
	if _, err := wire.Dial(addr, wire.Options{Conns: 1}); err != nil {
		t.Fatalf("good handshake refused: %v", err)
	}
}
