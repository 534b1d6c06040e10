// dbpload is the operator's load generator for the allocation service:
// it replays generated arrive/depart workloads through an in-process
// dispatcher or a running dbpserved (HTTP/JSON or the binary wire
// protocol), in open-loop (fixed ops/s, coordinated-omission-free) or
// closed-loop (N users issuing back to back) mode, and prints a latency and
// throughput summary. It gates nothing: performance claims are judged by
// the repository's benchmark (bench/, BENCHMARK.json).
//
//	# in-process smoke run (no daemon needed)
//	dbpload -target inproc -measure 3s
//
//	# drive a local daemon at 5000 ops/s over HTTP
//	dbpserved -addr :8080 &
//	dbpload -target http -addr localhost:8080 -mode open -rate 5000
//
//	# drive the binary wire protocol (persistent conns + batched frames)
//	dbpserved -addr :8080 -wire-addr :9090 &
//	dbpload -target wire -wire-addr localhost:9090 -rate 100000 -conns 4
//
//	# find the max rate sustaining a 5ms p99
//	dbpload -target http -addr localhost:8080 -ramp -slo-p99 5ms
//
//	# keep the full report (percentiles, server stats, ramp probes) as JSON
//	dbpload -target inproc -measure 3s -o run.json
package main

import (
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"time"

	"dbp/internal/load"
	"dbp/internal/serve"
	"dbp/internal/wire"
	"dbp/internal/workload"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		log.Fatalf("dbpload: %v", err)
	}
}

// run is main with its inputs explicit: it parses args, drives one load
// run (or ramp search), prints the summary to out, and writes the JSON
// report only when -o names a file.
func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("dbpload", flag.ExitOnError)
	var (
		target  = fs.String("target", "inproc", "transport: inproc (own dispatcher), http, or wire (running dbpserved)")
		addr    = fs.String("addr", "localhost:8080", "dbpserved host:port for -target http")
		mode    = fs.String("mode", "open", "pacing: open (fixed rate) or closed (clients issuing back to back)")
		rate    = fs.Float64("rate", 5000, "open-loop target ops/s (arrivals + departures)")
		clients = fs.Int("clients", 0, "concurrent load clients (0 = mode default)")
		warmup  = fs.Duration("warmup", 2*time.Second, "warmup phase (measured ops excluded)")
		measure = fs.Duration("measure", 10*time.Second, "measurement window")
		drain   = fs.Duration("drain", 30*time.Second, "max time to depart jobs still active at measure end")

		wl        = fs.String("workload", "uniform", "workload scenario spec: name or name:key=value,... (see -list-workloads)")
		listWl    = fs.Bool("list-workloads", false, "print every registered workload scenario with its parameter schema and exit")
		jobs      = fs.Int("jobs", 50000, "jobs per script epoch (the script loops under fresh IDs)")
		mu        = fs.Float64("mu", 10, "duration ratio of the workload")
		traceRate = fs.Float64("trace-rate", 50, "script arrival rate; with mean duration this sets the active-population level")
		seed      = fs.Int64("seed", 1, "workload seed")
		dim       = fs.Int("dim", 1, "demand dimensionality (>1 = vector jobs)")

		algo       = fs.String("algo", "firstfit", "inproc: packing policy")
		shards     = fs.Int("shards", 0, "inproc: dispatcher shards (0 = GOMAXPROCS)")
		keepAlive  = fs.Float64("keepalive", 0, "inproc: keep emptied servers open this many time units")
		queueDepth = fs.Int("queue-depth", 0, "inproc: per-shard request queue depth (0 = default)")

		dataDir       = fs.String("data-dir", "", "inproc: durable WAL directory (empty = in-memory only)")
		fsync         = fs.String("fsync", "off", "inproc: WAL durability policy for -data-dir: always, interval, or off")
		snapshotEvery = fs.Int("snapshot-every", 10000, "inproc: durable snapshot every N events per shard")

		outPath = fs.String("o", "", "write the full JSON report to this file (empty = print the summary only)")

		ramp      = fs.Bool("ramp", false, "run the max-sustainable-throughput search instead of a single rate")
		sloP99    = fs.Duration("slo-p99", 5*time.Millisecond, "ramp: p99 latency SLO")
		rampStart = fs.Float64("ramp-start", 500, "ramp: starting rate, ops/s")
		rampMax   = fs.Float64("ramp-max", 512000, "ramp: rate ceiling, ops/s")
		rampProbe = fs.Duration("ramp-probe", 3*time.Second, "ramp: measure window per probe")

		wireAddr = fs.String("wire-addr", "localhost:9090", "dbpserved wire address for -target wire")
		conns    = fs.Int("conns", 4, "wire: persistent connections in the client pool")
	)
	fs.Parse(args) // ExitOnError: usage and exit 2 on a bad flag, exit 0 on -h
	if *listWl {
		workload.List(out)
		return nil
	}
	logf := log.New(out, "", 0).Printf

	script, err := load.GenerateScript(*wl, *jobs, *traceRate, *mu, *seed, *dim)
	if err != nil {
		return err
	}

	var tgt load.Target
	switch *target {
	case "inproc":
		d, err := serve.New(serve.Config{
			Algorithm: *algo, Shards: *shards, Dim: *dim, KeepAlive: *keepAlive, QueueDepth: *queueDepth,
			DataDir: *dataDir, Fsync: *fsync, SnapshotEvery: *snapshotEvery,
		})
		if err != nil {
			return err
		}
		defer d.Close()
		tgt = &load.InProc{D: d}
	case "http":
		nc := *clients
		if nc <= 0 {
			nc = 128
		}
		tgt = load.NewHTTP("http://"+*addr, nc, 30*time.Second)
	case "wire":
		wt, err := load.NewWire(*wireAddr, wire.Options{Conns: *conns})
		if err != nil {
			return err
		}
		defer wt.Close()
		tgt = wt
	default:
		return fmt.Errorf("unknown -target %q (want inproc, http, or wire)", *target)
	}

	opts := load.Options{
		Target:  tgt,
		Script:  script,
		Mode:    load.Mode(*mode),
		Rate:    *rate,
		Clients: *clients,
		Warmup:  *warmup,
		Measure: *measure,
		Drain:   *drain,
		WorkloadLabel: fmt.Sprintf("%s jobs=%d mu=%g trace-rate=%g seed=%d dim=%d",
			*wl, *jobs, *mu, *traceRate, *seed, *dim),
	}

	var rep *load.Report
	if *ramp {
		logf("dbpload: ramp search on %s target, SLO p99 %s, %g..%g ops/s",
			tgt.Name(), *sloP99, *rampStart, *rampMax)
		rr, err := load.RampSearch(opts, load.RampOptions{
			Start: *rampStart, Max: *rampMax, SLOp99: *sloP99, Probe: *rampProbe,
		})
		if err != nil {
			return err
		}
		for _, p := range rr.Probes {
			status := "ok"
			if !p.OK {
				status = "FAIL: " + p.Why
			}
			logf("  probe %7.0f ops/s: achieved %7.0f, worst p99 %8.0fus — %s",
				p.Rate, p.Achieved, p.P99US, status)
		}
		logf("dbpload: max sustainable rate under %s p99 SLO: %.0f ops/s", *sloP99, rr.MaxSustainable)
		// The final report re-measures at the sustained rate so it
		// carries real percentiles, with the search trajectory attached.
		if rr.MaxSustainable > 0 {
			opts.Rate = rr.MaxSustainable
			opts.Mode = load.ModeOpen
			opts.IDBase = int64(len(rr.Probes)+1) * 1_000_000_000_000
			rep, err = load.Run(opts)
			if err != nil {
				return err
			}
		} else {
			rep = &load.Report{}
		}
		rep.Ramp = rr
	} else {
		logf("dbpload: %s %s run, %s warmup + %s measure (workload %s)",
			*mode, tgt.Name(), *warmup, *measure, opts.WorkloadLabel)
		rep, err = load.Run(opts)
		if err != nil {
			return err
		}
	}

	summarize(logf, rep)

	if *outPath != "" {
		if err := rep.WriteFile(*outPath); err != nil {
			return err
		}
		logf("dbpload: wrote %s", *outPath)
	}
	return nil
}

// summarize prints the human-readable digest of a run.
func summarize(logf func(string, ...any), rep *load.Report) {
	if m, ok := rep.Phases["measure"]; ok {
		logf("dbpload: measure: %d ops in %.1fs = %.0f ops/s (requested %.0f)",
			m.Ops, m.DurationSec, m.Throughput, rep.RequestedRate)
	}
	for _, op := range []string{"arrive", "depart"} {
		o, ok := rep.Ops[op]
		if !ok || o.Latency.Count == 0 {
			continue
		}
		l := o.Latency
		logf("dbpload: %-6s n=%-8d p50=%.0fus p90=%.0fus p99=%.0fus p99.9=%.0fus max=%.0fus errors=%v",
			op, l.Count, l.P50US, l.P90US, l.P99US, l.P999US, l.MaxUS, o.Errors)
	}
	if d, ok := rep.Phases["drain"]; ok && (d.Ops > 0 || d.Leaked > 0) {
		logf("dbpload: drain: %d departs in %.2fs, %d leaked", d.Ops, d.DurationSec, d.Leaked)
	}
	if sk := rep.ShardSkew; sk != nil {
		logf("dbpload: shard skew: %d shards, events min/mean/max = %d/%.0f/%d, imbalance %.3f, cv %.3f",
			sk.Shards, sk.MinEvents, sk.MeanEvents, sk.MaxEvents, sk.Imbalance, sk.CV)
	}
	if srv := rep.Server; srv != nil {
		for _, op := range []string{"arrive", "depart"} {
			if l, ok := srv.Latency[op]; ok && l.Count > 0 {
				logf("dbpload: server-side %-6s p50=%.1fus p99=%.1fus (n=%d)", op, l.P50US, l.P99US, l.Count)
			}
		}
	}
}
