package server

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"net"
	"strings"
	"sync/atomic"
	"time"

	"poseidon"
	"poseidon/internal/query"
	"poseidon/internal/trace"
	"poseidon/internal/wire"
)

// handshakeTimeout bounds how long a fresh connection may take to
// complete the handshake before the server gives up on it.
const handshakeTimeout = 10 * time.Second

// readAhead bounds how many pipelined requests the reader goroutine
// buffers ahead of the processor, so a fire-hose client cannot make
// the server queue unbounded frames in memory.
const readAhead = 16

// conn is one client connection: a reader goroutine that decodes
// frames (and whose EOF cancels the connection context, aborting any
// statement running on behalf of a vanished client), and a processor
// that drives the request state machine. Requests on one connection
// are processed strictly in order; pipelining is just write-ahead.
type conn struct {
	srv    *Server
	nc     net.Conn
	br     *bufio.Reader
	bw     *bufio.Writer
	ctx    context.Context
	cancel context.CancelFunc

	// sessions holds one Session per execution mode, created lazily:
	// the public Session pins its mode at creation, and RUN may
	// override the connection default per statement.
	sessions [4]*poseidon.Session
	defMode  poseidon.ExecMode

	// tx is the connection's explicit transaction, if BEGIN is open.
	tx *poseidon.Tx
	// rows is the currently streaming result; while non-nil the
	// connection holds one admission slot.
	rows *poseidon.Rows

	stmts    map[uint32]*poseidon.Stmt
	nextStmt uint32
	helloed  bool

	// version is the wire version the handshake negotiated.
	version uint32
	// wireSpan is the server.run root span of the currently streaming
	// result; it ends (sealing the trace) when the result closes.
	wireSpan *trace.Span
	// lastTrace is the most recent finished trace rooted by this
	// connection — the backing store for the sys:profile statement.
	lastTrace atomic.Pointer[trace.Trace]
}

func newConn(s *Server, nc net.Conn) *conn {
	base := s.cfg.BaseContext
	if base == nil {
		//poseidonlint:ignore ctx-threading connection root context; no caller exists to thread one from
		base = context.Background()
	}
	ctx, cancel := context.WithCancel(base)
	return &conn{
		srv:     s,
		nc:      nc,
		br:      bufio.NewReaderSize(nc, 16<<10),
		bw:      bufio.NewWriterSize(nc, 32<<10),
		ctx:     ctx,
		cancel:  cancel,
		defMode: s.cfg.Mode,
		stmts:   make(map[uint32]*poseidon.Stmt),
	}
}

// shutdown force-closes the connection from the drain path.
func (c *conn) shutdown() {
	c.cancel()
	c.nc.Close()
}

// serve runs the connection to completion and releases every resource
// it holds: the open result's admission slot, the explicit
// transaction, and the per-mode sessions.
func (c *conn) serve() {
	defer func() {
		c.cancel()
		c.closeRows()
		if c.tx != nil {
			c.tx.Abort()
			c.tx = nil
		}
		for _, sess := range c.sessions {
			if sess != nil {
				sess.Close()
			}
		}
		c.nc.Close()
	}()

	if err := c.handshake(); err != nil {
		c.srv.logf("handshake %s: %v", c.nc.RemoteAddr(), err)
		return
	}

	// The reader goroutine turns client disconnects into context
	// cancellation even while the processor is mid-statement.
	type incoming struct {
		msg wire.Message
		err error
	}
	msgs := make(chan incoming, readAhead)
	go func() {
		defer close(msgs)
		for {
			m, err := wire.ReadMessage(c.br)
			select {
			case msgs <- incoming{m, err}:
			case <-c.ctx.Done():
				return
			}
			if err != nil {
				c.cancel()
				return
			}
		}
	}()

	for in := range msgs {
		if in.err != nil {
			// Framing is unrecoverable after a decode error; tell the
			// client why if the error was structural, then hang up.
			if in.err != nil && c.ctx.Err() == nil {
				_ = wire.WriteMessage(c.bw, &wire.Error{
					Code: wire.CodeProtocol, Message: in.err.Error()})
				_ = c.bw.Flush()
			}
			return
		}
		start := time.Now()
		ok := c.handle(in.msg)
		c.srv.tel.Observe(wire.MsgName(in.msg.Type()), time.Since(start))
		// Flush before honoring a close decision: a terminal error frame
		// must still reach the client.
		if err := c.bw.Flush(); err != nil || !ok {
			return
		}
	}
}

// handshake negotiates the protocol version under a deadline.
func (c *conn) handshake() error {
	c.nc.SetDeadline(time.Now().Add(handshakeTimeout))
	defer c.nc.SetDeadline(time.Time{})
	versions, err := wire.ReadClientHandshake(c.br)
	if err != nil {
		return err
	}
	v := wire.ChooseVersion(versions)
	if err := wire.WriteServerHandshake(c.bw, v); err != nil {
		return err
	}
	if err := c.bw.Flush(); err != nil {
		return err
	}
	if v == 0 {
		return wire.ErrVersionMismatch
	}
	c.version = v
	return nil
}

// startRun roots the wire-level span for one RUN. A v2 client that
// propagated its trace context continues that trace (the client span
// becomes the remote parent); otherwise a fresh trace is rooted here.
// Returns ctx unchanged and a nil span when tracing is disabled.
func (c *conn) startRun(r *wire.Run) (context.Context, *trace.Span) {
	tracer := c.srv.db.Tracer()
	if tracer == nil {
		return c.ctx, nil
	}
	var sc trace.SpanContext
	if r.Trace != nil {
		sc = trace.SpanContext{TraceID: r.Trace.TraceID, SpanID: r.Trace.SpanID}
	}
	ctx := trace.WithFinishSink(c.ctx, func(tr *trace.Trace) { c.lastTrace.Store(tr) })
	ctx, sp := tracer.StartRemote(ctx, sc, "server.run", trace.KindWire)
	if sc.Valid() {
		sp.SetAttr("remote", true)
	}
	return ctx, sp
}

// handle dispatches one request; false means close the connection.
func (c *conn) handle(m wire.Message) bool {
	if !c.helloed {
		h, ok := m.(*wire.Hello)
		if !ok {
			return c.reply(&wire.Error{Code: wire.CodeProtocol,
				Message: fmt.Sprintf("expected HELLO, got %s", wire.MsgName(m.Type()))}) && false
		}
		return c.handleHello(h)
	}
	switch t := m.(type) {
	case *wire.Hello:
		return c.reply(&wire.Error{Code: wire.CodeProtocol, Message: "duplicate HELLO"})
	case *wire.Prepare:
		return c.handlePrepare(t)
	case *wire.Run:
		return c.handleRun(t)
	case *wire.Pull:
		return c.handlePull(t)
	case *wire.Discard:
		return c.handleDiscard()
	case *wire.Begin:
		return c.handleBegin()
	case *wire.Commit:
		return c.handleCommit()
	case *wire.Rollback:
		return c.handleRollback()
	case *wire.Reset:
		return c.handleReset()
	case *wire.Goodbye:
		return false
	default:
		return c.reply(&wire.Error{Code: wire.CodeProtocol,
			Message: fmt.Sprintf("unexpected %s", wire.MsgName(m.Type()))})
	}
}

// reply writes one response frame; false means the connection is dead.
func (c *conn) reply(m wire.Message) bool {
	return wire.WriteMessage(c.bw, m) == nil
}

// sessFor returns the connection's session pinned to mode, creating it
// on first use. Every session shares the statement deadline and the
// per-connection transaction bound.
func (c *conn) sessFor(mode poseidon.ExecMode) *poseidon.Session {
	if c.sessions[mode] == nil {
		c.sessions[mode] = c.srv.db.NewSession(poseidon.SessionConfig{
			Mode:    mode,
			Timeout: c.srv.cfg.StmtTimeout,
			MaxTxs:  c.srv.cfg.SessionMaxTxs,
		})
	}
	return c.sessions[mode]
}

func (c *conn) handleHello(h *wire.Hello) bool {
	if h.Mode != wire.ModeDefault && h.Mode <= uint8(poseidon.Adaptive) {
		c.defMode = poseidon.ExecMode(h.Mode)
	}
	c.helloed = true
	// A traced HELLO records the connection setup as a (tiny) trace of
	// its own — tail sampling keeps it only if it was slow or errored.
	if tracer := c.srv.db.Tracer(); tracer != nil && h.Trace != nil {
		_, sp := tracer.StartRemote(c.ctx,
			trace.SpanContext{TraceID: h.Trace.TraceID, SpanID: h.Trace.SpanID},
			"server.hello", trace.KindWire)
		sp.SetAttr("user_agent", h.UserAgent)
		sp.End()
	}
	return c.reply(&wire.Success{Meta: map[string]any{
		"server":   "poseidond",
		"version":  c.srv.cfg.Version,
		"mode":     c.defMode.String(),
		"protocol": int64(c.version),
	}})
}

func (c *conn) handlePrepare(p *wire.Prepare) bool {
	stmt, err := c.srv.prepare(p.Text)
	if err != nil {
		return c.reply(&wire.Error{Code: wire.CodeSyntax, Message: err.Error()})
	}
	c.nextStmt++
	id := c.nextStmt
	c.stmts[id] = stmt
	return c.reply(&wire.Success{Meta: map[string]any{
		"stmt_id":     int64(id),
		"has_updates": stmt.Plan().HasUpdates(),
	}})
}

// runMode resolves a RUN's effective execution mode.
func (c *conn) runMode(m uint8) (poseidon.ExecMode, error) {
	if m == wire.ModeDefault {
		return c.defMode, nil
	}
	if m > uint8(poseidon.Adaptive) {
		return 0, fmt.Errorf("unknown execution mode %d", m)
	}
	return poseidon.ExecMode(m), nil
}

func (c *conn) handleRun(r *wire.Run) bool {
	if c.srv.draining.Load() {
		return c.reply(errorFrame(errDraining))
	}
	if c.rows != nil {
		return c.reply(&wire.Error{Code: wire.CodeProtocol,
			Message: "a result is still streaming; PULL or DISCARD it first"})
	}
	// Introspection statements bypass prepare and admission: they read
	// volatile telemetry, not the graph.
	if r.StmtID == 0 && strings.HasPrefix(r.Text, "sys:") {
		return c.handleSys(r.Text)
	}
	var stmt *poseidon.Stmt
	if r.StmtID != 0 {
		stmt = c.stmts[r.StmtID]
		if stmt == nil {
			return c.reply(&wire.Error{Code: wire.CodeUnknownStmt,
				Message: fmt.Sprintf("statement %d was never prepared on this connection", r.StmtID)})
		}
	} else {
		var err error
		if stmt, err = c.srv.prepare(r.Text); err != nil {
			return c.reply(&wire.Error{Code: wire.CodeSyntax, Message: err.Error()})
		}
	}
	mode, err := c.runMode(r.Mode)
	if err != nil {
		return c.reply(&wire.Error{Code: wire.CodeProtocol, Message: err.Error()})
	}
	ctx, rspan := c.startRun(r)
	rspan.SetAttr("mode", mode.String())
	if text := stmt.Text(); text != "" {
		rspan.SetAttr("text", text)
	} else if r.Text != "" {
		rspan.SetAttr("text", r.Text)
	}
	asp := rspan.Child("server.admit", trace.KindAdmission)
	aerr := c.srv.admit(c.ctx)
	asp.SetError(aerr)
	asp.End()
	if aerr != nil {
		rspan.SetError(aerr)
		rspan.End()
		return c.reply(errorFrame(aerr))
	}
	//poseidonlint:ignore lifecycle sessFor caches the session per connection; conn.Close releases all four (one per mode, created lazily)
	sess := c.sessFor(mode)
	params := query.Params(r.Params)

	// Inside an explicit transaction every statement — reads and
	// updates alike — joins it; committing stays with the client.
	if c.tx != nil {
		rows, err := sess.QueryTx(ctx, c.tx, stmt, params)
		if err != nil {
			c.srv.release()
			rspan.SetError(err)
			rspan.End()
			return c.reply(errorFrame(err))
		}
		c.rows = rows
		c.wireSpan = rspan
		return c.reply(&wire.Success{Meta: map[string]any{"streaming": true}})
	}

	// Auto-commit: updates run to completion and commit before the
	// SUCCESS; reads open a streaming result the client PULLs.
	if stmt.Plan().HasUpdates() {
		n, err := sess.Exec(ctx, stmt, params)
		c.srv.release()
		rspan.SetError(err)
		rspan.End()
		if err != nil {
			return c.reply(errorFrame(err))
		}
		return c.reply(&wire.Success{Meta: map[string]any{
			"rows_affected": int64(n),
			"committed":     true,
		}})
	}
	rows, err := sess.Query(ctx, stmt, params)
	if err != nil {
		c.srv.release()
		rspan.SetError(err)
		rspan.End()
		return c.reply(errorFrame(err))
	}
	c.rows = rows
	// The wire span covers the full streaming lifetime; closeRows seals
	// the trace after the session span (owned by the Rows cleanup) ends.
	c.wireSpan = rspan
	return c.reply(&wire.Success{Meta: map[string]any{"streaming": true}})
}

// handleSys serves the sys:* introspection statements added alongside
// protocol v2 (plain RUN text, so they work over v1 framing too).
func (c *conn) handleSys(name string) bool {
	switch {
	case name == "sys:profile":
		// The per-connection equivalent of Session.LastProfile: the
		// profile of the most recent trace this connection rooted.
		return c.reply(&wire.Success{Meta: map[string]any{
			"profile": trace.BuildProfile(c.lastTrace.Load()).Format(),
		}})
	case name == "sys:traces":
		trs := c.srv.db.Traces()
		sums := make([]trace.Summary, 0, len(trs))
		for _, tr := range trs {
			sums = append(sums, trace.Summarize(tr))
		}
		b, err := json.Marshal(sums)
		if err != nil {
			return c.reply(&wire.Error{Code: wire.CodeInternal, Message: err.Error()})
		}
		return c.reply(&wire.Success{Meta: map[string]any{"traces": string(b)}})
	case strings.HasPrefix(name, "sys:trace:"):
		tracer := c.srv.db.Tracer()
		if tracer == nil {
			return c.reply(&wire.Error{Code: wire.CodeInternal, Message: "tracing is disabled"})
		}
		id, err := trace.ParseID(strings.TrimPrefix(name, "sys:trace:"))
		if err != nil {
			return c.reply(&wire.Error{Code: wire.CodeSyntax, Message: err.Error()})
		}
		tr := tracer.Trace(id)
		if tr == nil {
			return c.reply(&wire.Error{Code: wire.CodeSyntax,
				Message: fmt.Sprintf("trace %s is not retained (evicted or sampled out)", trace.FormatID(id))})
		}
		b, err := trace.ChromeJSON([]*trace.Trace{tr})
		if err != nil {
			return c.reply(&wire.Error{Code: wire.CodeInternal, Message: err.Error()})
		}
		return c.reply(&wire.Success{Meta: map[string]any{"trace": string(b)}})
	default:
		return c.reply(&wire.Error{Code: wire.CodeSyntax,
			Message: fmt.Sprintf("unknown sys statement %q (want sys:profile, sys:traces or sys:trace:<id>)", name)})
	}
}

// closeRows closes the open result, if any, and returns its admission
// slot.
func (c *conn) closeRows() error {
	if c.rows == nil {
		return nil
	}
	err := c.rows.Close()
	c.rows = nil
	// Close ran the Rows cleanup, which ended the session span; ending
	// the wire root now seals the trace and hands it to tail sampling.
	if c.wireSpan != nil {
		c.wireSpan.SetError(err)
		c.wireSpan.End()
		c.wireSpan = nil
	}
	c.srv.release()
	return err
}

func (c *conn) handlePull(p *wire.Pull) bool {
	if c.rows == nil {
		return c.reply(&wire.Error{Code: wire.CodeProtocol, Message: "no open result to PULL"})
	}
	sent := int64(0)
	for p.N < 0 || sent < p.N {
		if !c.rows.Next() {
			err := c.rows.Err()
			if cerr := c.closeRows(); err == nil {
				err = cerr
			}
			if err != nil {
				return c.reply(errorFrame(err))
			}
			return c.reply(&wire.Success{Meta: map[string]any{"has_more": false}})
		}
		vals, err := c.rows.Values()
		if err != nil {
			c.closeRows()
			return c.reply(errorFrame(err))
		}
		if !c.reply(&wire.Record{Values: vals}) {
			return false
		}
		sent++
	}
	return c.reply(&wire.Success{Meta: map[string]any{"has_more": true}})
}

func (c *conn) handleDiscard() bool {
	if c.rows == nil {
		return c.reply(&wire.Error{Code: wire.CodeProtocol, Message: "no open result to DISCARD"})
	}
	if err := c.closeRows(); err != nil {
		return c.reply(errorFrame(err))
	}
	return c.reply(&wire.Success{})
}

func (c *conn) handleBegin() bool {
	if c.srv.draining.Load() {
		return c.reply(errorFrame(errDraining))
	}
	if c.tx != nil {
		return c.reply(&wire.Error{Code: wire.CodeProtocol, Message: "transaction already open"})
	}
	tx, err := c.sessFor(c.defMode).Begin()
	if err != nil {
		return c.reply(errorFrame(err))
	}
	c.tx = tx
	return c.reply(&wire.Success{})
}

func (c *conn) handleCommit() bool {
	if c.tx == nil {
		return c.reply(&wire.Error{Code: wire.CodeProtocol, Message: "no open transaction"})
	}
	if c.rows != nil {
		// The producer goroutine shares the transaction; committing
		// under a live cursor would race it.
		return c.reply(&wire.Error{Code: wire.CodeProtocol,
			Message: "a result is still streaming; PULL or DISCARD it before COMMIT"})
	}
	tx := c.tx
	c.tx = nil
	// Root a trace for the explicit COMMIT and ride it on the
	// transaction's context so the core commit spans (lock wait, pmem
	// persist) attach under it.
	var sp *trace.Span
	if tracer := c.srv.db.Tracer(); tracer != nil {
		ctx := trace.WithFinishSink(c.ctx, func(tr *trace.Trace) { c.lastTrace.Store(tr) })
		ctx, sp = tracer.Start(ctx, "server.commit", trace.KindWire)
		tx.WithContext(ctx)
	}
	err := tx.Commit()
	sp.SetError(err)
	sp.End()
	if err != nil {
		return c.reply(errorFrame(err))
	}
	return c.reply(&wire.Success{Meta: map[string]any{"committed": true}})
}

func (c *conn) handleRollback() bool {
	if c.tx == nil {
		return c.reply(&wire.Error{Code: wire.CodeProtocol, Message: "no open transaction"})
	}
	if c.rows != nil {
		return c.reply(&wire.Error{Code: wire.CodeProtocol,
			Message: "a result is still streaming; PULL or DISCARD it before ROLLBACK"})
	}
	c.tx.Abort()
	c.tx = nil
	return c.reply(&wire.Success{})
}

func (c *conn) handleReset() bool {
	c.closeRows()
	if c.tx != nil {
		c.tx.Abort()
		c.tx = nil
	}
	return c.reply(&wire.Success{})
}
