// Command poseidon-load is an LDBC-driver-style load harness for
// poseidond: it simulates many concurrent clients, each on its own TCP
// connection, driving the built-in "ldbc:srN"/"ldbc:iuN" workload
// statements in a configurable short-read / interactive-update mix.
//
// Usage:
//
//	poseidon-load -addr host:7687 [-clients 1000] [-duration 15s]
//	              [-mix sr=80,iu=20] [-think 0] [-persons 1000] [-seed 42]
//	              [-mode default] [-warmup 2s] [-reconnect] [-strict]
//	              [-trace] [-json BENCH_PR7.json]
//
// With -trace every request carries a propagated trace ID; the report
// lists the top-5 slowest ops per class with their IDs (look them up at
// the server's /debug/traces or via "sys:trace:<id>") and verifies the
// server can still export them after the run, counting
// trace_export_failures in the error taxonomy. The server pins only
// traces that were slow on its side of the connection; an op that was
// slow on the client's side alone is kept only while ring churn spares
// it.
//
// Closed loop by default: each client issues its next request as soon
// as the previous one completes; -think inserts an exponentially
// jittered pause (open-loop-ish arrivals). -persons/-seed must match
// the server's preload flags — the harness regenerates the same
// dataset locally to draw valid query parameters, and partitions the
// fresh-insert id space per client so updates never collide on
// business ids.
//
// Error accounting is deliberately strict about what counts as broken:
// MVTO CONFLICT aborts and QUEUE_FULL/DRAINING shedding are expected
// workload outcomes and tallied separately; connection drops are
// transport errors (with -reconnect the client redials and goes on,
// surviving a server drain/restart mid-run); protocol_errors counts
// malformed or unexpected frames only and must be zero on a healthy
// run. -strict exits nonzero if it is not.
//
// -json writes schema "poseidon-load/v1": the configuration, totals,
// and per-class (sr/iu) throughput and latency percentiles.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"math/rand"
	"os"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"poseidon/client"
	"poseidon/internal/ldbc"
	"poseidon/internal/query"
	"poseidon/internal/trace"
	"poseidon/internal/wire"
)

type cfg struct {
	addr      string
	clients   int
	duration  time.Duration
	warmup    time.Duration
	think     time.Duration
	srPct     int
	persons   int
	seed      int64
	mode      string
	reconnect bool
	strict    bool
	traceOn   bool
	jsonPath  string
}

// slowOp is one of the slowest requests of a class: its latency, the
// statement it ran, and (with -trace) the trace ID the server retains
// it under — the handle into /debug/traces or "sys:trace:<id>".
type slowOp struct {
	LatMs   float64 `json:"lat_ms"`
	Stmt    string  `json:"stmt"`
	TraceID string  `json:"trace_id,omitempty"`
}

// slowTop is how many slowest ops are kept per class.
const slowTop = 5

// addSlow inserts op into the descending-by-latency top-k list.
func addSlow(list []slowOp, op slowOp) []slowOp {
	i := sort.Search(len(list), func(i int) bool { return list[i].LatMs < op.LatMs })
	if i >= slowTop {
		return list
	}
	list = append(list, slowOp{})
	copy(list[i+1:], list[i:])
	list[i] = op
	if len(list) > slowTop {
		list = list[:slowTop]
	}
	return list
}

// counters aggregates one client's outcomes; merged after the run.
type counters struct {
	ops        [2]uint64 // by class
	conflicts  uint64
	shed       uint64 // QUEUE_FULL
	drained    uint64 // DRAINING
	serverErrs uint64 // other server error frames
	transport  uint64
	reconnects uint64
	protocol   uint64
	lat        [2][]float64 // seconds, by class
	slow       [2][]slowOp  // top slowTop by class, descending
}

const (
	classSR = 0
	classIU = 1
)

var classNames = [2]string{"sr", "iu"}

func parseMix(s string) (srPct int, err error) {
	srPct = -1
	for _, part := range strings.Split(s, ",") {
		k, v, ok := strings.Cut(strings.TrimSpace(part), "=")
		if !ok {
			return 0, fmt.Errorf("bad mix element %q", part)
		}
		n, err := strconv.Atoi(v)
		if err != nil || n < 0 || n > 100 {
			return 0, fmt.Errorf("bad mix percentage %q", part)
		}
		switch k {
		case "sr":
			srPct = n
		case "iu":
			if srPct < 0 {
				srPct = 100 - n
			}
		default:
			return 0, fmt.Errorf("unknown mix class %q", k)
		}
	}
	if srPct < 0 {
		return 0, fmt.Errorf("mix %q names no class", s)
	}
	return srPct, nil
}

func modeByte(s string) (uint8, error) {
	switch strings.ToLower(s) {
	case "", "default":
		return wire.ModeDefault, nil
	case "interpret":
		return 0, nil
	case "parallel":
		return 1, nil
	case "jit":
		return 2, nil
	case "adaptive":
		return 3, nil
	}
	return 0, fmt.Errorf("unknown mode %q", s)
}

func main() {
	var c cfg
	var mix string
	flag.StringVar(&c.addr, "addr", "127.0.0.1:7687", "poseidond address")
	flag.IntVar(&c.clients, "clients", 1000, "concurrent simulated clients (one TCP connection each)")
	flag.DurationVar(&c.duration, "duration", 15*time.Second, "measured run length")
	flag.DurationVar(&c.warmup, "warmup", 2*time.Second, "unmeasured warmup before the run")
	flag.DurationVar(&c.think, "think", 0, "mean think time between requests (0 = closed loop)")
	flag.StringVar(&mix, "mix", "sr=80,iu=20", "workload mix (percent)")
	flag.IntVar(&c.persons, "persons", 1000, "server dataset scale (must match poseidond -persons)")
	flag.Int64Var(&c.seed, "seed", 42, "server dataset seed (must match poseidond -seed)")
	flag.StringVar(&c.mode, "mode", "default", "execution mode pin: default, interpret, parallel, jit, adaptive")
	flag.BoolVar(&c.reconnect, "reconnect", false, "redial on connection loss (survives a server drain/restart)")
	flag.BoolVar(&c.strict, "strict", false, "exit 1 on any protocol error")
	flag.BoolVar(&c.traceOn, "trace", false, "propagate trace IDs and report the slowest ops per class with theirs")
	flag.StringVar(&c.jsonPath, "json", "", "write the machine-readable result here")
	flag.Parse()

	srPct, err := parseMix(mix)
	if err != nil {
		fmt.Fprintln(os.Stderr, "poseidon-load:", err)
		os.Exit(2)
	}
	c.srPct = srPct
	mb, err := modeByte(c.mode)
	if err != nil {
		fmt.Fprintln(os.Stderr, "poseidon-load:", err)
		os.Exit(2)
	}

	// The same generator config the server preloaded with: identical id
	// pools, so every drawn parameter hits a real entity.
	ds := ldbc.Generate(ldbc.Config{Persons: c.persons, Seed: c.seed})
	srQ, iuQ := ldbc.SRQueries(), ldbc.IUQueries()

	opts := client.Options{UserAgent: "poseidon-load"}
	if mb != wire.ModeDefault {
		opts.Mode = &mb
	}
	if c.traceOn {
		// One tracer shared by every simulated client: the harness only
		// needs it to mint and propagate IDs, so the local ring is tiny
		// and the sample rate irrelevant to what the server retains.
		opts.Tracer = trace.New(trace.Config{RingSize: 16, SampleRate: 0})
	}

	fmt.Printf("poseidon-load: addr=%s clients=%d duration=%v mix=sr:%d/iu:%d think=%v persons=%d\n",
		c.addr, c.clients, c.duration, c.srPct, 100-c.srPct, c.think, c.persons)

	var measuring atomic.Bool
	stop := make(chan struct{})
	results := make([]counters, c.clients)
	var wg sync.WaitGroup
	for i := 0; i < c.clients; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			runClient(&c, i, ds, srQ, iuQ, opts, &measuring, stop, &results[i])
		}(i)
	}

	time.Sleep(c.warmup)
	measuring.Store(true)
	start := time.Now()
	time.Sleep(c.duration)
	measuring.Store(false)
	elapsed := time.Since(start)
	close(stop)
	wg.Wait()

	report(&c, opts, results, elapsed)
}

// verifyTraceExports asks the server for each slow op's trace via
// "sys:trace:<id>" on a fresh connection. Traces the server no longer
// retains — or a failed export request — count as export failures.
func verifyTraceExports(c *cfg, opts client.Options, slow [2][]slowOp) uint64 {
	var ids []string
	for cl := 0; cl < 2; cl++ {
		for _, s := range slow[cl] {
			if s.TraceID != "" {
				ids = append(ids, s.TraceID)
			}
		}
	}
	if len(ids) == 0 {
		return 0
	}
	conn, err := client.Dial(c.addr, opts)
	if err != nil {
		return uint64(len(ids))
	}
	defer conn.Close()
	var failed uint64
	for _, id := range ids {
		meta, err := conn.Sys("trace:" + id)
		if err != nil {
			failed++
			continue
		}
		if s, _ := meta["trace"].(string); s == "" {
			failed++
		}
	}
	return failed
}

// runClient is one simulated client: dial, then issue requests until
// stop closes. Latencies are only recorded while measuring is set.
func runClient(c *cfg, id int, ds *ldbc.Dataset, srQ, iuQ []ldbc.QueryID,
	opts client.Options, measuring *atomic.Bool, stop chan struct{}, out *counters) {
	rng := rand.New(rand.NewSource(c.seed + int64(id)*7919))
	pg := ldbc.NewParamGen(ds, c.seed+int64(id))
	pg.Partition(id + 1)

	conn := dialRetry(c, opts, out, stop)
	if conn == nil {
		return
	}
	defer func() {
		if conn != nil {
			conn.Close()
		}
	}()

	for {
		select {
		case <-stop:
			return
		default:
		}
		if c.think > 0 {
			d := time.Duration(rng.ExpFloat64() * float64(c.think))
			select {
			case <-time.After(d):
			case <-stop:
				return
			}
		}

		class := classIU
		if rng.Intn(100) < c.srPct {
			class = classSR
		}
		var stmt string
		var params query.Params
		if class == classSR {
			q := srQ[rng.Intn(len(srQ))]
			stmt = "ldbc:sr" + q.Name()
			params = pg.SRParams(q)
		} else {
			q := iuQ[rng.Intn(len(iuQ))]
			stmt = "ldbc:iu" + q.Name()
			params = pg.IUParams(q)
		}

		t0 := time.Now()
		var err error
		if class == classSR {
			_, err = conn.QueryText(stmt, params)
		} else {
			_, err = conn.ExecText(stmt, params)
		}
		lat := time.Since(t0)

		record := measuring.Load()
		switch {
		case err == nil:
			if record {
				out.ops[class]++
				out.lat[class] = append(out.lat[class], lat.Seconds())
				out.slow[class] = addSlow(out.slow[class], slowOp{
					LatMs: lat.Seconds() * 1e3, Stmt: stmt, TraceID: conn.LastTraceID(),
				})
			}
		case client.IsCode(err, wire.CodeConflict):
			if record {
				out.conflicts++
			}
		case client.IsCode(err, wire.CodeQueueFull):
			if record {
				out.shed++
			}
		case client.IsCode(err, wire.CodeDraining):
			if record {
				out.drained++
			}
			// The server is going away; fall through to a reconnect so
			// the client survives the restart.
			if c.reconnect {
				conn.Close()
				conn = dialRetry(c, opts, out, stop)
				if conn == nil {
					return
				}
			}
		default:
			if _, ok := err.(*client.ServerError); ok {
				// An unexpected but well-formed server error.
				out.serverErrs++
				continue
			}
			if conn.Broken() {
				out.transport++
				conn.Close()
				if !c.reconnect {
					return
				}
				conn = dialRetry(c, opts, out, stop)
				if conn == nil {
					return
				}
				continue
			}
			// Well-framed connection, inexplicable client-side failure:
			// that is a protocol bug.
			out.protocol++
		}
	}
}

// dialRetry dials until it succeeds or stop closes; transient failures
// (e.g. the server restarting mid-drain) are retried with backoff.
func dialRetry(c *cfg, opts client.Options, out *counters, stop chan struct{}) *client.Conn {
	backoff := 10 * time.Millisecond
	for attempt := 0; ; attempt++ {
		conn, err := client.Dial(c.addr, opts)
		if err == nil {
			if attempt > 0 {
				out.reconnects++
			}
			return conn
		}
		if !c.reconnect && attempt >= 10 {
			out.transport++
			return nil
		}
		select {
		case <-time.After(backoff):
		case <-stop:
			return nil
		}
		if backoff < 500*time.Millisecond {
			backoff *= 2
		}
	}
}

// classStats is the per-class slice of the JSON report.
type classStats struct {
	Ops        uint64  `json:"ops"`
	Throughput float64 `json:"throughput_per_sec"`
	P50Ms      float64 `json:"p50_ms"`
	P95Ms      float64 `json:"p95_ms"`
	P99Ms      float64 `json:"p99_ms"`
	MeanMs     float64 `json:"mean_ms"`
	MaxMs      float64 `json:"max_ms"`
}

type result struct {
	Schema     string    `json:"schema"`
	Timestamp  time.Time `json:"timestamp"`
	Addr       string    `json:"addr"`
	Clients    int       `json:"clients"`
	DurationS  float64   `json:"duration_s"`
	MixSRPct   int       `json:"mix_sr_pct"`
	ThinkMs    float64   `json:"think_ms"`
	Persons    int       `json:"persons"`
	Seed       int64     `json:"seed"`
	Mode       string    `json:"mode"`
	Ops        uint64    `json:"ops"`
	Throughput float64   `json:"throughput_per_sec"`

	Classes map[string]classStats `json:"classes"`

	Conflicts      uint64 `json:"conflicts"`
	QueueFull      uint64 `json:"queue_full"`
	Draining       uint64 `json:"draining"`
	ServerErrors   uint64 `json:"server_errors"`
	TransportErrs  uint64 `json:"transport_errors"`
	Reconnects     uint64 `json:"reconnects"`
	ProtocolErrors uint64 `json:"protocol_errors"`
	// TraceExportFailures counts traced slow ops whose server-side trace
	// could not be exported afterwards (evicted, sampled out, or the
	// export request itself failed). Part of the error taxonomy so a
	// traced run that loses its evidence is visibly degraded, but not a
	// protocol error: eviction under pressure is by design.
	TraceExportFailures uint64 `json:"trace_export_failures"`

	// Slowest lists the slowTop slowest successful ops per class with
	// their trace IDs (with -trace), newest-run data only.
	Slowest map[string][]slowOp `json:"slowest,omitempty"`
}

func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	idx := int(math.Ceil(p/100*float64(len(sorted)))) - 1
	if idx < 0 {
		idx = 0
	}
	if idx >= len(sorted) {
		idx = len(sorted) - 1
	}
	return sorted[idx]
}

func report(c *cfg, opts client.Options, results []counters, elapsed time.Duration) {
	var total counters
	lat := [2][]float64{}
	for i := range results {
		r := &results[i]
		for cl := 0; cl < 2; cl++ {
			total.ops[cl] += r.ops[cl]
			lat[cl] = append(lat[cl], r.lat[cl]...)
			for _, s := range r.slow[cl] {
				total.slow[cl] = addSlow(total.slow[cl], s)
			}
		}
		total.conflicts += r.conflicts
		total.shed += r.shed
		total.drained += r.drained
		total.serverErrs += r.serverErrs
		total.transport += r.transport
		total.reconnects += r.reconnects
		total.protocol += r.protocol
	}

	out := result{
		Schema:    "poseidon-load/v1",
		Timestamp: time.Now().UTC(),
		Addr:      c.addr, Clients: c.clients,
		DurationS: elapsed.Seconds(), MixSRPct: c.srPct,
		ThinkMs: float64(c.think) / float64(time.Millisecond),
		Persons: c.persons, Seed: c.seed, Mode: c.mode,
		Ops:       total.ops[0] + total.ops[1],
		Classes:   map[string]classStats{},
		Conflicts: total.conflicts, QueueFull: total.shed, Draining: total.drained,
		ServerErrors: total.serverErrs, TransportErrs: total.transport,
		Reconnects: total.reconnects, ProtocolErrors: total.protocol,
	}
	out.Throughput = float64(out.Ops) / elapsed.Seconds()

	for cl := 0; cl < 2; cl++ {
		ls := lat[cl]
		sort.Float64s(ls)
		st := classStats{
			Ops:        total.ops[cl],
			Throughput: float64(total.ops[cl]) / elapsed.Seconds(),
			P50Ms:      percentile(ls, 50) * 1e3,
			P95Ms:      percentile(ls, 95) * 1e3,
			P99Ms:      percentile(ls, 99) * 1e3,
			MaxMs:      percentile(ls, 100) * 1e3,
		}
		if len(ls) > 0 {
			sum := 0.0
			for _, v := range ls {
				sum += v
			}
			st.MeanMs = sum / float64(len(ls)) * 1e3
		}
		out.Classes[classNames[cl]] = st
	}

	// With -trace, check the slowest ops' traces are still exportable
	// from the server; every one that is not counts as an export failure.
	out.Slowest = map[string][]slowOp{}
	for cl := 0; cl < 2; cl++ {
		if len(total.slow[cl]) > 0 {
			out.Slowest[classNames[cl]] = total.slow[cl]
		}
	}
	if c.traceOn {
		out.TraceExportFailures = verifyTraceExports(c, opts, total.slow)
	}

	fmt.Printf("\n%-6s %10s %10s %9s %9s %9s %9s\n", "class", "ops", "ops/s", "p50 ms", "p95 ms", "p99 ms", "mean ms")
	for _, name := range classNames {
		st := out.Classes[name]
		fmt.Printf("%-6s %10d %10.0f %9.2f %9.2f %9.2f %9.2f\n",
			name, st.Ops, st.Throughput, st.P50Ms, st.P95Ms, st.P99Ms, st.MeanMs)
	}
	fmt.Printf("total  %10d %10.0f  conflicts=%d queue_full=%d draining=%d server_errs=%d transport=%d reconnects=%d protocol=%d trace_export_failures=%d\n",
		out.Ops, out.Throughput, out.Conflicts, out.QueueFull, out.Draining,
		out.ServerErrors, out.TransportErrs, out.Reconnects, out.ProtocolErrors,
		out.TraceExportFailures)
	for cl := 0; cl < 2; cl++ {
		for i, s := range total.slow[cl] {
			id := s.TraceID
			if id == "" {
				id = "-"
			}
			fmt.Printf("slowest %s #%d: %8.2f ms  %-16s trace=%s\n",
				classNames[cl], i+1, s.LatMs, s.Stmt, id)
		}
	}

	if c.jsonPath != "" {
		data, err := json.MarshalIndent(&out, "", "  ")
		if err == nil {
			err = os.WriteFile(c.jsonPath, append(data, '\n'), 0o644)
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, "poseidon-load: json:", err)
			os.Exit(1)
		}
		fmt.Printf("wrote %s\n", c.jsonPath)
	}

	if c.strict && out.ProtocolErrors > 0 {
		fmt.Fprintf(os.Stderr, "poseidon-load: %d protocol errors\n", out.ProtocolErrors)
		os.Exit(1)
	}
}
