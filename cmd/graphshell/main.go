// Command graphshell is a small interactive shell over the public API:
// create nodes and relationships, traverse, and run simple lookups, with
// crash/recover commands that exercise the PMem durability path.
//
// Commands:
//
//	node <label> [key=value ...]          create a node
//	rel <src> <dst> <label> [key=value]   create a relationship
//	get <id>                              show a node
//	out <id> / in <id>                    list relationships
//	scan <label>                          list nodes with a label
//	find <label> <key> <value>            indexed lookup (auto-creates index)
//	set <id> key=value ...                update properties
//	del <id>                              detach-delete a node
//	stats                                 device statistics
//	:metrics                              telemetry snapshot + slow queries
//	:profile                              stage breakdown of the last statement
//	:trace [id]                           retained traces / Chrome JSON export
//	crash                                 simulate power failure + recover
//	help / quit
//
// With -connect host:port the shell runs against a remote poseidond
// over the wire protocol instead of an embedded database: cypher and
// "ldbc:" statements, plus begin/commit/rollback, execute server-side
// (see remote.go for the reduced command set).
package main

import (
	"bufio"
	"context"
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"
	"time"

	"poseidon"
	"poseidon/internal/core"
	"poseidon/internal/query"
	"poseidon/internal/trace"
)

// shell bundles the database with the session every statement runs in.
// The session pins a 30s statement deadline, so a runaway scan cancels
// itself instead of hanging the prompt.
type shell struct {
	db   *poseidon.DB
	sess *poseidon.Session
}

func (sh *shell) reset(db *poseidon.DB) {
	if sh.sess != nil {
		sh.sess.Close()
	}
	sh.db = db
	sh.sess = db.NewSession(poseidon.SessionConfig{Timeout: 30 * time.Second})
}

func main() {
	connect := flag.String("connect", "", "run against a remote poseidond at this host:port instead of an embedded database")
	flag.Parse()
	if *connect != "" {
		if err := remoteShell(*connect); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		return
	}
	db, err := poseidon.Open(poseidon.Config{Mode: poseidon.PMem, PoolSize: 256 << 20, Telemetry: shellTelemetry})
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	sh := &shell{}
	sh.reset(db)
	defer func() {
		sh.sess.Close()
		sh.db.Close()
	}()
	fmt.Println("poseidon graph shell (PMem mode). Type 'help' for commands.")

	indexed := map[[2]string]bool{}
	sc := bufio.NewScanner(os.Stdin)
	for {
		fmt.Print("> ")
		if !sc.Scan() {
			return
		}
		line := sc.Text()
		if rest, ok := cutPrefixFold(line, "explain "); ok {
			out, err := sh.db.ExplainCypher(rest)
			if err != nil {
				fmt.Println("error:", err)
				continue
			}
			fmt.Print(out)
			continue
		}
		if rest, ok := cutPrefixFold(line, "cypher "); ok {
			if err := sh.cypher(rest); err != nil {
				fmt.Println("error:", err)
			}
			continue
		}
		fields := strings.Fields(line)
		if len(fields) == 0 {
			continue
		}
		cmd, args := strings.TrimPrefix(fields[0], ":"), fields[1:]
		if err := run(sh, cmd, args, indexed); err != nil {
			if err == errQuit {
				return
			}
			fmt.Println("error:", err)
		}
	}
}

// cypher prepares the statement (cached across repeats — see 'stats')
// and either commits it as an update or streams the result row by row.
func (sh *shell) cypher(src string) error {
	stmt, err := sh.db.Prepare(src)
	if err != nil {
		return err
	}
	if stmt.Plan().HasUpdates() {
		n, err := sh.sess.Exec(context.Background(), stmt, nil)
		if err != nil {
			return err
		}
		fmt.Printf("(%d rows, committed)\n", n)
		return nil
	}
	rows, err := sh.sess.Query(context.Background(), stmt, nil)
	if err != nil {
		return err
	}
	defer rows.Close()
	n := 0
	for rows.Next() {
		vals, err := rows.Values()
		if err != nil {
			return err
		}
		fmt.Println(vals)
		n++
	}
	if err := rows.Err(); err != nil {
		return err
	}
	fmt.Printf("(%d rows)\n", n)
	return nil
}

var errQuit = fmt.Errorf("quit")

// shellTelemetry instruments the shell's DB so :metrics has data; the
// 50ms threshold keeps the slow-query view to statements a human would
// actually call slow at interactive scale. Tracing retains every trace
// (sample rate 1) because an interactive shell issues statements at
// human rates — :profile and :trace always have the last one.
var shellTelemetry = poseidon.TelemetryConfig{
	Enabled:            true,
	SlowQueryThreshold: 50 * time.Millisecond,
	Trace:              poseidon.TraceConfig{Enabled: true, SampleRate: 1},
}

// printMetrics pretty-prints the DB.Metrics() snapshot, reading each
// series by the name /metrics serves it under, and the most recent slow
// queries (pinned traces; ':trace <id>' exports one).
func printMetrics(db *poseidon.DB) error {
	m := db.Metrics()
	v := func(series string) uint64 { return uint64(m.Values[series]) }
	fmt.Printf("graph:      %d nodes, %d rels\n", v("poseidon_nodes"), v("poseidon_rels"))
	fmt.Printf("pmem:       reads=%d writes=%d blockWrites=%d flushes=%d drains=%d cacheHit=%d cacheMiss=%d\n",
		v("poseidon_pmem_reads_total"), v("poseidon_pmem_writes_total"), v("poseidon_pmem_block_writes_total"),
		v("poseidon_pmem_line_flushes_total"), v("poseidon_pmem_drains_total"),
		v("poseidon_pmem_cache_hits_total"), v("poseidon_pmem_cache_misses_total"))
	fmt.Printf("tx:         begun=%d committed=%d active=%d\n",
		v("poseidon_tx_begun_total"), v("poseidon_tx_commits_total"), v("poseidon_txs_active"))
	fmt.Print("aborts:    ")
	for r := 0; r < core.NumAbortReasons; r++ {
		reason := core.AbortReason(r).String()
		fmt.Printf(" %s=%d", reason, v(`poseidon_tx_aborts_total{reason="`+reason+`"}`))
	}
	fmt.Println()
	if w := m.Histograms["poseidon_mvto_chain_walk_length"]; w.Count > 0 {
		fmt.Printf("mvto:       %d chain walks, p50=%.1f p95=%.1f versions\n",
			w.Count, w.Quantile(0.50), w.Quantile(0.95))
	}
	lat := m.Histograms["poseidon_query_duration_seconds"]
	fmt.Printf("queries:    %d total, %d errors, %d rows streamed, %d slow\n", lat.Count,
		v("poseidon_query_errors_total"), v("poseidon_query_rows_total"), v("poseidon_slow_queries_total"))
	fmt.Print("  by mode: ")
	for mode := poseidon.Interpret; mode <= poseidon.Adaptive; mode++ {
		fmt.Printf(" %v=%d", mode, v(`poseidon_queries_total{mode="`+mode.String()+`"}`))
	}
	fmt.Println()
	if lat.Count > 0 {
		fmt.Printf("  latency:  p50=%.3fms p95=%.3fms\n", lat.Quantile(0.50)*1e3, lat.Quantile(0.95)*1e3)
	}
	fmt.Printf("jit:        %d compiles, cache hits mem=%d persist=%d, morsels interp=%d compiled=%d, switchovers=%d\n",
		v("poseidon_jit_compiles_total"),
		v(`poseidon_jit_code_cache_hits_total{tier="memory"}`), v(`poseidon_jit_code_cache_hits_total{tier="persistent"}`),
		v(`poseidon_jit_morsels_total{path="interpreted"}`), v(`poseidon_jit_morsels_total{path="compiled"}`),
		v("poseidon_jit_adaptive_switchovers_total"))
	fmt.Printf("stmt cache: %d cached, %d hits, %d misses, %d evictions\n",
		v("poseidon_stmt_cache_size"), v("poseidon_stmt_cache_hits_total"),
		v("poseidon_stmt_cache_misses_total"), v("poseidon_stmt_cache_evictions_total"))

	slow := db.SlowQueries()
	if len(slow) == 0 {
		fmt.Printf("slow log:   empty (threshold %v)\n", db.SlowQueryThreshold())
		return nil
	}
	fmt.Printf("slow log:   %d most recent (threshold %v):\n", len(slow), db.SlowQueryThreshold())
	for i, p := range slow {
		if i == 5 {
			fmt.Printf("  ... %d more\n", len(slow)-5)
			break
		}
		run := p.Stage("stmt.run")
		compile, _ := run.Attr("compile_ns").(int64)
		fmt.Printf("  trace=%s %v total (compile %v) rows=%v mode=%v  %v\n",
			p.TraceID, p.Total.Round(time.Microsecond), time.Duration(compile).Round(time.Microsecond),
			run.Attr("rows"), run.Attr("mode"), run.Attr("query"))
	}
	return nil
}

// cutPrefixFold strips a case-insensitive prefix.
func cutPrefixFold(s, prefix string) (string, bool) {
	if len(s) >= len(prefix) && strings.EqualFold(s[:len(prefix)], prefix) {
		return s[len(prefix):], true
	}
	return s, false
}

func parseProps(args []string) map[string]any {
	props := map[string]any{}
	for _, a := range args {
		k, v, ok := strings.Cut(a, "=")
		if !ok {
			continue
		}
		if n, err := strconv.ParseInt(v, 10, 64); err == nil {
			props[k] = n
		} else if f, err := strconv.ParseFloat(v, 64); err == nil {
			props[k] = f
		} else if v == "true" || v == "false" {
			props[k] = v == "true"
		} else {
			props[k] = v
		}
	}
	return props
}

func parseID(s string) (uint64, error) {
	n, err := strconv.ParseUint(s, 10, 64)
	if err != nil {
		return 0, fmt.Errorf("bad id %q", s)
	}
	return n, nil
}

func run(sh *shell, cmd string, args []string, indexed map[[2]string]bool) error {
	db := sh.db
	switch cmd {
	case "help":
		fmt.Println("node rel get out in scan find set del stats crash quit")
		fmt.Println("cypher <statement>   e.g. cypher MATCH (p:Person) RETURN p.name LIMIT 5")
		fmt.Println("explain <statement>  show plan signature, JIT and parallelism info")
		fmt.Println(":metrics             engine telemetry snapshot and recent slow queries")
		fmt.Println(":profile             stage-by-stage breakdown of the last statement")
		fmt.Println(":trace [id]          list retained traces, or export one as Chrome JSON")
		return nil
	case "quit", "exit":
		return errQuit

	case "node":
		if len(args) < 1 {
			return fmt.Errorf("usage: node <label> [k=v ...]")
		}
		tx := db.Begin()
		id, err := tx.CreateNode(args[0], parseProps(args[1:]))
		if err != nil {
			tx.Abort()
			return err
		}
		if err := tx.Commit(); err != nil {
			return err
		}
		fmt.Printf("node %d\n", id)
		return nil

	case "rel":
		if len(args) < 3 {
			return fmt.Errorf("usage: rel <src> <dst> <label> [k=v ...]")
		}
		src, err := parseID(args[0])
		if err != nil {
			return err
		}
		dst, err := parseID(args[1])
		if err != nil {
			return err
		}
		tx := db.Begin()
		id, err := tx.CreateRel(src, dst, args[2], parseProps(args[3:]))
		if err != nil {
			tx.Abort()
			return err
		}
		if err := tx.Commit(); err != nil {
			return err
		}
		fmt.Printf("rel %d\n", id)
		return nil

	case "get":
		if len(args) != 1 {
			return fmt.Errorf("usage: get <id>")
		}
		id, err := parseID(args[0])
		if err != nil {
			return err
		}
		tx := db.Begin()
		defer tx.Abort()
		snap, err := tx.GetNode(id)
		if err != nil {
			return err
		}
		label, _ := db.Engine().Dict().Decode(uint64(snap.Rec.Label))
		props, err := db.Engine().DecodeProps(snap.Props())
		if err != nil {
			return err
		}
		fmt.Printf("node %d :%s %v\n", id, label, props)
		return nil

	case "out", "in":
		if len(args) != 1 {
			return fmt.Errorf("usage: %s <id>", cmd)
		}
		id, err := parseID(args[0])
		if err != nil {
			return err
		}
		tx := db.Begin()
		defer tx.Abort()
		snap, err := tx.GetNode(id)
		if err != nil {
			return err
		}
		show := func(r core.RelSnap) bool {
			label, _ := db.Engine().Dict().Decode(uint64(r.Rec.Label))
			fmt.Printf("rel %d :%s %d -> %d\n", r.ID, label, r.Rec.Src, r.Rec.Dst)
			return true
		}
		if cmd == "out" {
			return tx.OutRels(snap, show)
		}
		return tx.InRels(snap, show)

	case "scan":
		if len(args) != 1 {
			return fmt.Errorf("usage: scan <label>")
		}
		stmt, err := db.PreparePlan(&query.Plan{Root: &query.NodeScan{Label: args[0]}})
		if err != nil {
			return err
		}
		rows, err := sh.sess.Query(context.Background(), stmt, nil)
		if err != nil {
			return err
		}
		defer rows.Close()
		n := 0
		for rows.Next() {
			vals, err := rows.Values()
			if err != nil {
				return err
			}
			fmt.Printf("node %v\n", vals[0])
			n++
		}
		if err := rows.Err(); err != nil {
			return err
		}
		fmt.Printf("(%d nodes)\n", n)
		return nil

	case "find":
		if len(args) != 3 {
			return fmt.Errorf("usage: find <label> <key> <value>")
		}
		ik := [2]string{args[0], args[1]}
		if !indexed[ik] {
			if err := db.CreateIndex(args[0], args[1], poseidon.HybridIndex); err != nil {
				return err
			}
			indexed[ik] = true
			fmt.Printf("(created hybrid index on %s.%s)\n", args[0], args[1])
		}
		var val any = args[2]
		if n, err := strconv.ParseInt(args[2], 10, 64); err == nil {
			val = n
		}
		plan := &query.Plan{Root: &query.IndexScan{Label: args[0], Key: args[1], Value: &query.Param{Name: "v"}}}
		rows, err := db.QueryCtx(context.Background(), plan, query.Params{"v": val})
		if err != nil {
			return err
		}
		for _, r := range rows {
			fmt.Printf("node %v\n", r[0])
		}
		fmt.Printf("(%d hits)\n", len(rows))
		return nil

	case "set":
		if len(args) < 2 {
			return fmt.Errorf("usage: set <id> k=v ...")
		}
		id, err := parseID(args[0])
		if err != nil {
			return err
		}
		tx := db.Begin()
		if err := tx.SetNodeProps(id, parseProps(args[1:])); err != nil {
			tx.Abort()
			return err
		}
		return tx.Commit()

	case "del":
		if len(args) != 1 {
			return fmt.Errorf("usage: del <id>")
		}
		id, err := parseID(args[0])
		if err != nil {
			return err
		}
		tx := db.Begin()
		if err := tx.DetachDeleteNode(id); err != nil {
			tx.Abort()
			return err
		}
		return tx.Commit()

	case "stats":
		st := db.Device().Stats.Snapshot()
		fmt.Printf("nodes=%d rels=%d reads=%d writes=%d flushes=%d drains=%d cacheHit=%d cacheMiss=%d\n",
			db.NodeCount(), db.RelCount(),
			st.Reads, st.Writes, st.LineFlushes, st.Drains, st.CacheHits, st.CacheMisses)
		cs := db.CacheStats()
		fmt.Printf("stmt cache: %d cached, %d hits, %d misses, %d evictions\n",
			cs.Size, cs.Hits, cs.Misses, cs.Evictions)
		return nil

	case "metrics":
		return printMetrics(db)

	case "profile":
		out := sh.sess.LastProfile().Format()
		if !strings.HasSuffix(out, "\n") {
			out += "\n"
		}
		fmt.Print(out)
		return nil

	case "trace":
		if len(args) == 1 {
			id, err := trace.ParseID(args[0])
			if err != nil {
				return err
			}
			tr := db.Tracer().Trace(id)
			if tr == nil {
				return fmt.Errorf("trace %s not retained (evicted, or tracing disabled)", args[0])
			}
			buf, err := trace.ChromeJSON([]*trace.Trace{tr})
			if err != nil {
				return err
			}
			fmt.Println(string(buf))
			return nil
		}
		traces := db.Traces()
		if len(traces) == 0 {
			fmt.Println("no traces retained")
			return nil
		}
		fmt.Printf("%-16s %10s %6s %-6s %s\n", "id", "total", "spans", "", "root / kinds")
		for _, tr := range traces {
			s := trace.Summarize(tr)
			flag := ""
			if s.Err != "" {
				flag = "ERR"
			} else if s.Pinned {
				flag = "slow"
			}
			fmt.Printf("%-16s %9.3fms %6d %-6s %s [%s]\n",
				s.ID, s.DurationMS, s.Spans, flag, s.Root, strings.Join(s.Kinds, " "))
		}
		fmt.Println("(':trace <id>' exports Chrome trace-event JSON for chrome://tracing)")
		return nil

	case "crash":
		fmt.Println("simulating power failure...")
		dev := db.Crash()
		db2, err := poseidon.Reopen(dev, poseidon.Config{Mode: poseidon.PMem, Telemetry: shellTelemetry})
		if err != nil {
			return err
		}
		sh.reset(db2)
		fmt.Printf("recovered: %d nodes, %d rels\n", db2.NodeCount(), db2.RelCount())
		return nil

	default:
		return fmt.Errorf("unknown command %q (try 'help')", cmd)
	}
}
