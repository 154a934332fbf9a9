// Command poseidond serves a Poseidon graph database over the framed
// wire protocol (see internal/wire and DESIGN.md).
//
// Usage:
//
//	poseidond [-listen :7687] [-metrics :7688] [-mode adaptive]
//	          [-dram] [-shards N] [-persons N] [-seed S]
//	          [-max-inflight N] [-max-queue N] [-queue-timeout D]
//	          [-stmt-timeout D] [-drain-timeout D] [-session-max-txs N]
//	          [-trace] [-trace-sample P] [-trace-ring N] [-trace-slow D]
//
// With -persons > 0 the server preloads an LDBC-style SNB dataset (and
// its workload indexes) before listening, so remote load harnesses can
// immediately drive the "ldbc:srN"/"ldbc:iuN" built-in statements.
// SIGTERM/SIGINT starts a graceful drain: in-flight statements finish,
// new RUN/BEGIN requests are rejected with DRAINING, and the process
// exits once the last statement completes or -drain-timeout expires.
package main

import (
	"context"
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

	"poseidon"
	"poseidon/internal/index"
	"poseidon/internal/ldbc"
	"poseidon/internal/server"
)

// version labels the poseidon_build_info gauge; override at build time
// with -ldflags "-X main.version=...".
var version = "dev"

func parseMode(s string) (poseidon.ExecMode, error) {
	switch strings.ToLower(s) {
	case "interpret":
		return poseidon.Interpret, nil
	case "parallel":
		return poseidon.Parallel, nil
	case "jit":
		return poseidon.JIT, nil
	case "adaptive":
		return poseidon.Adaptive, nil
	}
	return 0, fmt.Errorf("unknown mode %q (want interpret, parallel, jit or adaptive)", s)
}

func main() {
	listen := flag.String("listen", ":7687", "wire-protocol listen address")
	metricsAddr := flag.String("metrics", "", "serve /metrics and /debug on this address (empty = off)")
	mode := flag.String("mode", "adaptive", "default execution mode: interpret, parallel, jit, adaptive")
	dram := flag.Bool("dram", false, "use the DRAM engine instead of simulated pmem")
	shards := flag.Int("shards", 0, "engine shard count (0 = GOMAXPROCS)")
	poolMB := flag.Int("pool-mb", 512, "device pool size in MiB")
	workers := flag.Int("workers", 0, "parallel/adaptive workers (0 = GOMAXPROCS)")
	persons := flag.Int("persons", 0, "preload an LDBC dataset at this scale (0 = empty database)")
	seed := flag.Int64("seed", 42, "LDBC dataset seed")
	maxInflight := flag.Int("max-inflight", 64, "statements executing concurrently before admission queues")
	maxQueue := flag.Int("max-queue", 0, "RUNs allowed to wait for a slot (0 = max-inflight)")
	queueTimeout := flag.Duration("queue-timeout", 250*time.Millisecond, "longest a queued RUN waits before QUEUE_FULL")
	stmtTimeout := flag.Duration("stmt-timeout", 30*time.Second, "per-statement deadline")
	drainTimeout := flag.Duration("drain-timeout", 30*time.Second, "graceful-drain deadline on SIGTERM")
	sessionMaxTxs := flag.Int("session-max-txs", 8, "live transactions per connection before SESSION_LIMIT")
	traceOn := flag.Bool("trace", false, "enable request tracing (spans wire→commit; export at /debug/traces)")
	traceSample := flag.Float64("trace-sample", 0.1, "tail-sampling keep probability for unremarkable traces")
	traceRing := flag.Int("trace-ring", 0, "retained-trace ring size (0 = default 256)")
	traceSlow := flag.Duration("trace-slow", 0, "slow-query threshold: count statements and pin traces at least this slow (0 = 100ms)")
	flag.Parse()

	execMode, err := parseMode(*mode)
	if err != nil {
		log.Fatalf("poseidond: %v", err)
	}

	dbMode := poseidon.PMem
	if *dram {
		dbMode = poseidon.DRAM
	}
	db, err := poseidon.Open(poseidon.Config{
		Mode:     dbMode,
		PoolSize: *poolMB << 20,
		Workers:  *workers,
		Shards:   *shards,
		Telemetry: poseidon.TelemetryConfig{
			Enabled:            true,
			SlowQueryThreshold: *traceSlow,
			Trace: poseidon.TraceConfig{
				Enabled:    *traceOn,
				RingSize:   *traceRing,
				SampleRate: *traceSample,
			},
		},
	})
	if err != nil {
		log.Fatalf("poseidond: open: %v", err)
	}
	defer db.Close()

	if *persons > 0 {
		start := time.Now()
		ds := ldbc.Generate(ldbc.Config{Persons: *persons, Seed: *seed})
		if err := ds.LoadCore(db.Engine(), true, index.Hybrid); err != nil {
			log.Fatalf("poseidond: load ldbc: %v", err)
		}
		log.Printf("poseidond: loaded ldbc persons=%d (%d nodes, %d edges, indexed) in %v",
			*persons, len(ds.Nodes), len(ds.Edges), time.Since(start).Round(time.Millisecond))
	}

	srv, err := server.New(server.Config{
		DB:            db,
		Mode:          execMode,
		StmtTimeout:   *stmtTimeout,
		MaxInflight:   *maxInflight,
		MaxQueue:      *maxQueue,
		QueueTimeout:  *queueTimeout,
		SessionMaxTxs: *sessionMaxTxs,
		Version:       version,
		Logf:          log.Printf,
	})
	if err != nil {
		log.Fatalf("poseidond: %v", err)
	}

	if *metricsAddr != "" {
		go func() {
			log.Printf("poseidond: metrics on http://%s/metrics", *metricsAddr)
			if err := http.ListenAndServe(*metricsAddr, db.DebugMux()); err != nil {
				log.Printf("poseidond: metrics server: %v", err)
			}
		}()
	}

	l, err := net.Listen("tcp", *listen)
	if err != nil {
		log.Fatalf("poseidond: listen: %v", err)
	}
	log.Printf("poseidond: version=%s mode=%s engine=%s listening on %s (max-inflight=%d)",
		version, execMode, dbMode, l.Addr(), *maxInflight)

	errCh := make(chan error, 1)
	go func() { errCh <- srv.Serve(l) }()

	sigCh := make(chan os.Signal, 1)
	signal.Notify(sigCh, syscall.SIGTERM, syscall.SIGINT)
	select {
	case sig := <-sigCh:
		log.Printf("poseidond: %v: draining (timeout %v)", sig, *drainTimeout)
		ctx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
		defer cancel()
		if err := srv.Shutdown(ctx); err != nil {
			log.Printf("poseidond: drain cut short: %v", err)
			os.Exit(1)
		}
		log.Printf("poseidond: drained cleanly")
	case err := <-errCh:
		if err != nil {
			log.Fatalf("poseidond: serve: %v", err)
		}
	}
}
