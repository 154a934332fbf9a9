package main

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"net"
	"time"

	"poseidon"
	"poseidon/client"
	"poseidon/internal/core"
	"poseidon/internal/index"
	"poseidon/internal/ldbc"
	"poseidon/internal/pmem"
	"poseidon/internal/query"
	"poseidon/internal/server"
	"poseidon/internal/wire"
)

// defaultPool is the simulated device capacity of the databases the
// benchmark opens. The slices behind it are only touched where data
// lands, so the resident cost is the dataset, not the capacity.
const defaultPool = 1 << 30

// maxRetries is how often one op is re-run after an MVTO conflict before
// it counts as failed. MVTO readers never wait for a write lock, so on
// mix_wire an immediate retry usually finds the writer still inside its
// ~50 µs commit; the waits double from retryBackoff, which gives a
// descheduled writer ~13 ms in total to finish. The issue's 3 immediate
// retries failed about one op in 15,000 on the 2-core host.
const (
	maxRetries   = 8
	retryBackoff = 50 * time.Microsecond
)

// workload fixes everything about one traffic shape. The names are cited
// by later issues; do not rename.
type workload struct {
	name string
	why  string
	// srOf5 is how many of every five ops are short reads: 5 = read only,
	// 0 = update only, 4 = the 80/20 mix.
	srOf5 int
	// indexed selects ldbc.SRPlan(q, true) point lookups; false gives the
	// label-scan + filter plans (the paper's -s/-p configurations).
	indexed bool
	mode    poseidon.ExecMode
	wire    bool
	clients int
	// cold drops the simulated CPU cache before every op, so each op pays
	// the device's read latency once per line it touches.
	cold bool
	// trialOps is the fixed op count of one trial per client; warmOps and
	// ladderOps size the untimed warm-up and the traced replay.
	trialOps, warmOps, ladderOps int
}

var workloads = []*workload{
	{
		name: "sr_inproc", srOf5: 5, indexed: true, mode: poseidon.Interpret, clients: 1,
		trialOps: 6000, warmOps: 2000, ladderOps: 2000,
		why: "indexed LDBC short reads in process: session hand-off, index lookup, MVTO read and device loads; no commit, log or wire",
	},
	{
		name: "iu_inproc", srOf5: 0, indexed: true, mode: poseidon.Interpret, clients: 1,
		trialOps: 6000, warmOps: 2000, ladderOps: 2000,
		why: "LDBC inserts in process: commit, pmemobj undo lane, flush and drain dominate, so a read-path gain that costs writes shows here",
	},
	{
		name: "mix_wire", srOf5: 4, indexed: true, mode: poseidon.Adaptive, wire: true, clients: 2,
		trialOps: 2000, warmOps: 1000, ladderOps: 2000,
		why: "80/20 read/insert mix over loopback TCP on 2 connections: wire codec, admission, per-connection sessions, and the only concurrent readers and writers",
	},
	{
		name: "scan_adaptive", srOf5: 5, indexed: false, mode: poseidon.Adaptive, clients: 1, cold: true,
		trialOps: 24, warmOps: 48, ladderOps: 36,
		why: "unindexed short reads (label scan + filter) under adaptive execution: operator code, morsel loop and device loads; index, commit and wire are bypassed",
	},
}

func workloadByName(name string) *workload {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}

// scale shrinks the fixed op counts for the smoke test.
func (w *workload) scale(trialOps int) *workload {
	if trialOps <= 0 {
		return w
	}
	c := *w
	ratio := float64(trialOps) / float64(w.trialOps)
	if ratio > 1 {
		ratio = 1
	}
	shrink := func(n int) int {
		if m := int(float64(n) * ratio); m >= 12 {
			return m
		}
		return 12
	}
	c.trialOps, c.warmOps, c.ladderOps = shrink(w.trialOps), shrink(w.warmOps), shrink(w.ladderOps)
	return &c
}

// op is one logical request of the stream.
type op struct {
	sr     bool
	qi     int // index into env.srQ or env.iuQ
	params query.Params
}

// opGen draws the seeded op stream of one client. Classes and queries are
// dealt from shuffled decks (every 5 ops hold exactly srOf5 reads, every
// 12 reads hold each SR query once, every 8 updates each IU query once):
// the marginals are uniform as in the LDBC mix, but a short trial cannot
// be skewed by the luck of the draw, which on scan_adaptive — where query
// costs differ 10× — would otherwise swamp every timing.
type opGen struct {
	rng   *rand.Rand
	pg    *ldbc.ParamGen
	srOf5 int
	srQ   []ldbc.QueryID
	iuQ   []ldbc.QueryID

	classDeck, srDeck, iuDeck []int
}

// newOpGen seeds one client's stream. part selects the block of fresh
// business ids its inserts use, so replays of the same stream (same seed,
// another part) pick the same existing entities without colliding.
func newOpGen(e *env, seed int64, part int) *opGen {
	pg := ldbc.NewParamGen(e.ds, seed)
	pg.Partition(part)
	return &opGen{
		rng: rand.New(rand.NewSource(seed ^ 0x5eed)), pg: pg,
		srOf5: e.w.srOf5, srQ: e.srQ, iuQ: e.iuQ,
	}
}

func (g *opGen) deal(deck *[]int, n int) int {
	if len(*deck) == 0 {
		*deck = g.rng.Perm(n)
	}
	last := len(*deck) - 1
	v := (*deck)[last]
	*deck = (*deck)[:last]
	return v
}

func (g *opGen) next() op {
	sr := g.srOf5 == 5
	if g.srOf5 > 0 && g.srOf5 < 5 {
		sr = g.deal(&g.classDeck, 5) < g.srOf5
	}
	if sr {
		qi := g.deal(&g.srDeck, len(g.srQ))
		return op{sr: true, qi: qi, params: g.pg.SRParams(g.srQ[qi])}
	}
	qi := g.deal(&g.iuDeck, len(g.iuQ))
	return op{qi: qi, params: g.pg.IUParams(g.iuQ[qi])}
}

// iuEffect is what one acknowledged IU op adds to the graph: the result
// check sums these and compares with NodeCount/RelCount deltas.
type iuEffect struct {
	nodes, rels int
	label, key  string // the inserted entity and its id parameter, if any
}

func effectOf(q ldbc.QueryID) iuEffect {
	switch q.Num {
	case 1:
		return iuEffect{1, 2, "Person", "personId"}
	case 4:
		return iuEffect{1, 1, "Forum", "forumId"}
	case 6:
		return iuEffect{1, 2, "Post", "postId"}
	case 7:
		return iuEffect{1, 2, "Comment", "commentId"}
	default: // 2, 3, 5, 8: one relationship between existing nodes
		return iuEffect{0, 1, "", ""}
	}
}

// setupTimes splits setup_s.
type setupTimes struct {
	generate, open, load, prepare, listen, total time.Duration
	loadStats                                    pmem.StatsSnapshot
	entities                                     int
}

// env is one loaded system under test.
type env struct {
	w        *workload
	cfg      poseidon.Config
	ds       *ldbc.Dataset
	db       *poseidon.DB
	srQ, iuQ []ldbc.QueryID
	srPlans  []*query.Plan
	iuPlans  []*query.Plan
	srStmts  []*poseidon.Stmt
	iuStmts  []*poseidon.Stmt
	// srText and iuText are the statements' server-side names.
	srText, iuText []string

	srv      *server.Server
	addr     string
	serveErr chan error

	times setupTimes
}

// newEnv names the workload's queries; setup does the rest.
func newEnv(w *workload) *env {
	e := &env{w: w, srQ: ldbc.SRQueries(), iuQ: ldbc.IUQueries()}
	for _, q := range e.srQ {
		e.srText = append(e.srText, "ldbc:sr"+q.Name())
	}
	for _, q := range e.iuQ {
		e.iuText = append(e.iuText, "ldbc:iu"+q.Name())
	}
	return e
}

// setup generates the dataset from seed, opens a PMem database, loads and
// indexes it, prepares the workload's statements and, for the wire
// workload, starts the server on a loopback port. Its wall time is
// setup_s.
func setup(w *workload, seed int64, persons, pool int) (*env, error) {
	e := newEnv(w)
	e.cfg = poseidon.Config{Mode: poseidon.PMem, PoolSize: pool}
	t0 := time.Now()
	e.ds = ldbc.Generate(ldbc.Config{Persons: persons, Seed: seed})
	t1 := time.Now()
	db, err := poseidon.Open(e.cfg)
	if err != nil {
		return nil, fmt.Errorf("open: %w", err)
	}
	e.db = db
	t2 := time.Now()
	pre := db.Device().Stats.Snapshot()
	if err := e.ds.LoadCore(db.Engine(), true, index.Hybrid); err != nil {
		db.Close()
		return nil, fmt.Errorf("load: %w", err)
	}
	e.times.loadStats = db.Device().Stats.Snapshot().Sub(pre)
	e.times.entities = len(e.ds.Nodes) + len(e.ds.Edges)
	t3 := time.Now()
	if err := e.prepare(); err != nil {
		db.Close()
		return nil, err
	}
	t4 := time.Now()
	if w.wire {
		if err := e.listen(); err != nil {
			db.Close()
			return nil, err
		}
	}
	t5 := time.Now()
	e.times.generate, e.times.open, e.times.load = t1.Sub(t0), t2.Sub(t1), t3.Sub(t2)
	e.times.prepare, e.times.listen, e.times.total = t4.Sub(t3), t5.Sub(t4), t5.Sub(t0)
	return e, nil
}

func (e *env) prepare() error {
	for _, q := range e.srQ {
		plan, err := ldbc.SRPlan(q, e.w.indexed)
		if err != nil {
			return err
		}
		st, err := e.db.PreparePlan(plan)
		if err != nil {
			return fmt.Errorf("prepare sr%s: %w", q.Name(), err)
		}
		e.srPlans, e.srStmts = append(e.srPlans, plan), append(e.srStmts, st)
	}
	for _, q := range e.iuQ {
		plan, err := ldbc.IUPlan(q, true)
		if err != nil {
			return err
		}
		st, err := e.db.PreparePlan(plan)
		if err != nil {
			return fmt.Errorf("prepare iu%s: %w", q.Name(), err)
		}
		e.iuPlans, e.iuStmts = append(e.iuPlans, plan), append(e.iuStmts, st)
	}
	return nil
}

func (e *env) listen() error {
	srv, err := server.New(server.Config{DB: e.db, Mode: e.w.mode})
	if err != nil {
		return err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	e.srv, e.addr = srv, ln.Addr().String()
	e.serveErr = make(chan error, 1)
	go func() { e.serveErr <- srv.Serve(ln) }()
	return nil
}

// stopServer drains the server and waits for its accept loop to return.
func (e *env) stopServer() error {
	if e.srv == nil {
		return nil
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	err := e.srv.Shutdown(ctx)
	if serr := <-e.serveErr; err == nil {
		err = serr
	}
	e.srv = nil
	return err
}

// close releases everything setup started.
func (e *env) close() {
	_ = e.stopServer() // a drain error after the measurements changes nothing
	e.db.Close()
	e.db = nil
}

// runner executes ops for one generator at the workload's top rung: a
// Session in process, a client connection over the wire.
type runner struct {
	e    *env
	gen  *opGen
	sess *poseidon.Session
	conn *client.Conn
}

func newRunner(e *env, seed int64, part int) (*runner, error) {
	r := &runner{e: e, gen: newOpGen(e, seed, part)}
	if e.w.wire {
		c, err := client.Dial(e.addr, client.Options{UserAgent: "poseidon-benchmark"})
		if err != nil {
			return nil, fmt.Errorf("dial: %w", err)
		}
		r.conn = c
		return r, nil
	}
	r.sess = e.db.NewSession(poseidon.SessionConfig{Mode: e.w.mode, Workers: e.w.clientWorkers()})
	return r, nil
}

// clientWorkers is the morsel-worker budget of one session.
func (w *workload) clientWorkers() int {
	if w.mode == poseidon.Adaptive && !w.wire {
		return 2
	}
	return 0
}

func (r *runner) close() {
	if r.conn != nil {
		r.conn.Close()
	}
	if r.sess != nil {
		r.sess.Close()
	}
}

// stmtText is the server-side name of an op's statement.
func (e *env) stmtText(o op) string {
	if o.sr {
		return e.srText[o.qi]
	}
	return e.iuText[o.qi]
}

// fetch runs o a single time and returns its rows and row count (rows
// affected for an update, which has no rows to return).
func (r *runner) fetch(ctx context.Context, o op) ([][]any, int, error) {
	switch {
	case r.conn != nil && o.sr:
		rows, err := r.conn.QueryText(r.e.stmtText(o), o.params)
		return rows, len(rows), err
	case r.conn != nil:
		n, err := r.conn.ExecText(r.e.stmtText(o), o.params)
		return nil, int(n), err
	case o.sr:
		rows, err := r.sess.QueryAll(ctx, r.e.srStmts[o.qi], o.params)
		return rows, len(rows), err
	default:
		n, err := r.sess.Exec(ctx, r.e.iuStmts[o.qi], o.params)
		return nil, n, err
	}
}

func (r *runner) once(ctx context.Context, o op) (int, error) {
	_, n, err := r.fetch(ctx, o)
	return n, err
}

// outcome is what one timed op did.
type outcome struct {
	rows, retries int
	shed          bool
	err           error
}

func isConflict(err error) bool {
	return errors.Is(err, core.ErrAborted) || client.IsCode(err, wire.CodeConflict)
}

// retrying wraps a single attempt with the conflict-retry policy and the
// per-op result check: an op fails when retries run out, on any other
// error, or when its row count is impossible.
func retrying(e *env, o op, attempt func() (int, error)) outcome {
	var out outcome
	for {
		out.rows, out.err = attempt()
		if out.err == nil {
			out.err = e.checkRows(o, out.rows)
			return out
		}
		if !isConflict(out.err) || out.retries == maxRetries {
			out.shed = client.IsCode(out.err, wire.CodeQueueFull)
			return out
		}
		time.Sleep(retryBackoff << out.retries)
		out.retries++
	}
}

func (r *runner) do(ctx context.Context, o op) outcome {
	return retrying(r.e, o, func() (int, error) { return r.once(ctx, o) })
}

// beforeOp puts the simulated CPU cache in the state the workload
// prescribes; it runs outside the op's latency timer.
func (e *env) beforeOp() {
	if e.w.cold {
		e.db.Device().DropCache()
	}
}

// checkRows is the cheap per-op result check. Every IU plan emits one
// tuple per created entity chain, so 0 rows means a lookup missed and
// the insert silently did nothing; SR 1/4/5/6 address one existing
// entity and must return exactly one row.
func (e *env) checkRows(o op, rows int) error {
	if !o.sr {
		if rows != 1 {
			return fmt.Errorf("iu%s affected %d rows, want 1", e.iuQ[o.qi].Name(), rows)
		}
		return nil
	}
	switch q := e.srQ[o.qi]; q.Num {
	case 1, 4, 5, 6:
		if rows != 1 {
			return fmt.Errorf("sr%s returned %d rows, want 1", q.Name(), rows)
		}
	}
	return nil
}
