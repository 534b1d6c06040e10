// dbpserved is the allocation-service daemon: an HTTP/JSON front end
// over the sharded online dispatcher (internal/serve), turning the
// paper's MinUsageTime DBP policies into a network service a cloud
// provider's front end would call on every session arrival/departure.
//
//	dbpserved -addr :8080 -algo firstfit -shards 8 -keepalive 0
//
//	POST /v1/arrive  {"id":1,"size":0.4}          → placement
//	POST /v1/depart  {"id":1}                     → departure
//	POST /v1/batch   {"ops":[...]}                → per-op results
//	GET  /v1/stats                                → service statistics
//	GET  /healthz                                 → liveness
//	GET  /debug/vars                              → expvar (incl. "dbpserved")
//
// With -wire-addr the daemon also serves the binary batched wire
// protocol (internal/wire) on a second listener, against the same
// dispatcher — dbpload -target wire drives it:
//
//	dbpserved -addr :8080 -wire-addr :9090
//
// With -data-dir the daemon is durable: every accepted event is
// appended to a per-shard write-ahead log before its reply (-fsync
// selects when records reach stable storage), periodic snapshots bound
// replay length, and a restart on the same directory recovers the
// exact pre-crash state — the directory refuses to open under
// different -shards/-dim/-capacity/-keepalive/-algo flags:
//
//	dbpserved -data-dir /var/lib/dbp -fsync always -snapshot-every 10000
//
// On SIGINT/SIGTERM the daemon drains in order: the wire front end
// (in-flight batches answered, GoAway delivered), then the HTTP server,
// then the dispatcher (which rolls a final durable snapshot); it logs
// the final usage-time and peak-servers totals before exiting.
package main

import (
	"context"
	"errors"
	"expvar"
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"dbp/internal/packing"
	"dbp/internal/serve"
	"dbp/internal/wire"
)

func main() {
	var (
		addr      = flag.String("addr", ":8080", "listen address")
		wireAddr  = flag.String("wire-addr", "", "also serve the binary wire protocol on this address (empty = HTTP only)")
		algo      = flag.String("algo", "firstfit", "packing policy: "+strings.Join(packing.Names(), ", "))
		shards    = flag.Int("shards", 0, "dispatcher shards (0 = GOMAXPROCS)")
		capacity  = flag.Float64("capacity", 1, "per-dimension server capacity")
		dim       = flag.Int("dim", 1, "resource dimensionality")
		keepAlive = flag.Float64("keepalive", 0, "keep emptied servers open this many time units")
		queue     = flag.Int("queue-depth", 0, "per-shard request queue depth (0 = default); bounds memory under overload")
		grace     = flag.Duration("grace", 10*time.Second, "shutdown grace period for in-flight requests")

		// Durability: with -data-dir every accepted event is journaled to
		// a per-shard write-ahead log before its reply, and startup
		// recovers the exact pre-crash state from snapshot + tail replay.
		dataDir       = flag.String("data-dir", "", "durable WAL/snapshot directory (empty = in-memory only)")
		fsync         = flag.String("fsync", "off", "WAL durability policy: always, interval (a sync every 50ms), or off")
		snapshotEvery = flag.Int("snapshot-every", 10000, "durable snapshot every N events per shard (0 = only on shutdown)")
		segmentBytes  = flag.Int64("segment-bytes", 0, "WAL segment rotation size in bytes (0 = default 64MiB)")

		// Connection hygiene: without these a slow (or hostile) client
		// can hold a connection — and its goroutine — open forever.
		readTimeout    = flag.Duration("read-timeout", 15*time.Second, "max time to read a full request, headers + body")
		writeTimeout   = flag.Duration("write-timeout", 30*time.Second, "max time to write a response")
		idleTimeout    = flag.Duration("idle-timeout", 120*time.Second, "max keep-alive idle time before the connection closes")
		maxHeaderBytes = flag.Int("max-header-bytes", 1<<20, "max request header size in bytes")
	)
	flag.Parse()

	// Fail fast on a bad policy name before any listener or shard comes
	// up; the error lists every valid name.
	if _, err := packing.ByName(*algo); err != nil {
		log.Fatalf("invalid -algo: %v", err)
	}

	d, err := serve.New(serve.Config{
		Algorithm:     *algo,
		Shards:        *shards,
		Capacity:      *capacity,
		Dim:           *dim,
		KeepAlive:     *keepAlive,
		QueueDepth:    *queue,
		DataDir:       *dataDir,
		Fsync:         *fsync,
		SnapshotEvery: *snapshotEvery,
		SegmentBytes:  *segmentBytes,
	})
	if err != nil {
		// A configuration mismatch against an existing -data-dir (or a
		// corrupt sealed segment) is fatal by design: replaying a journal
		// under the wrong shard count or dimension would silently
		// misroute every event.
		log.Fatalf("dbpserved: %v", err)
	}
	if *dataDir != "" {
		var recovered int
		for _, sh := range d.Stats().PerShard {
			recovered += sh.Events
		}
		log.Printf("dbpserved: durable mode: data-dir %s, fsync %s, snapshot every %d events; recovered %d events",
			*dataDir, *fsync, *snapshotEvery, recovered)
	}
	expvar.Publish("dbpserved", d.ExpvarFunc())

	mux := http.NewServeMux()
	mux.Handle("/", serve.NewHandler(d))
	mux.Handle("/debug/vars", expvar.Handler())
	srv := &http.Server{
		Addr:              *addr,
		Handler:           mux,
		ReadHeaderTimeout: 5 * time.Second,
		ReadTimeout:       *readTimeout,
		WriteTimeout:      *writeTimeout,
		IdleTimeout:       *idleTimeout,
		MaxHeaderBytes:    *maxHeaderBytes,
	}

	errc := make(chan error, 1)
	go func() {
		log.Printf("dbpserved: %s policy, %d shards, capacity %g, dim %d, keep-alive %g; listening on %s",
			*algo, d.NumShards(), *capacity, *dim, *keepAlive, *addr)
		errc <- srv.ListenAndServe()
	}()

	var ws *wire.Server
	if *wireAddr != "" {
		ln, err := net.Listen("tcp", *wireAddr)
		if err != nil {
			log.Fatalf("dbpserved: wire listener: %v", err)
		}
		ws = wire.NewServer(d)
		go func() {
			log.Printf("dbpserved: wire protocol v%d listening on %s", wire.Version, *wireAddr)
			if err := ws.Serve(ln); err != nil {
				errc <- fmt.Errorf("wire: %w", err)
			}
		}()
	}

	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, syscall.SIGINT, syscall.SIGTERM)
	select {
	case sig := <-sigc:
		log.Printf("dbpserved: %s — draining (grace %s)", sig, *grace)
	case err := <-errc:
		log.Fatal(err)
	}

	// Drain in dependency order: the wire front end first (in-flight
	// batches are answered and every connection gets its GoAway), then
	// the HTTP server, then the dispatcher itself.
	if ws != nil {
		ws.Close()
	}
	ctx, cancel := context.WithTimeout(context.Background(), *grace)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil && !errors.Is(err, context.DeadlineExceeded) {
		log.Printf("dbpserved: shutdown: %v", err)
	}
	final := d.Close()
	if err := d.DurabilityErr(); err != nil {
		log.Printf("dbpserved: WARNING: durability failure during run: %v", err)
	}
	log.Printf("dbpserved: final totals — usage time %.6g, peak servers %d, servers used %d, %d still open, %d arrivals, %d departures",
		final.UsageTime, final.PeakServers, final.ServersUsed, final.OpenServers, final.Arrivals, final.Departures)
	for _, sh := range final.PerShard {
		fmt.Printf("shard %d: events %d, usage %.6g, peak %d, open %d\n",
			sh.Shard, sh.Events, sh.UsageTime, sh.PeakServers, sh.OpenServers)
	}
}
