// Package client is the Go driver for poseidond's framed wire
// protocol. A Conn is one TCP connection with its own handshake,
// statement namespace, and (optionally) one open transaction; it is
// not safe for concurrent use — use a Pool to share connections
// between goroutines.
package client

import (
	"bufio"
	"context"
	"fmt"
	"net"
	"time"

	"poseidon/internal/trace"
	"poseidon/internal/wire"
)

// ServerError is an ERROR frame from the server, carrying the
// machine-readable code (wire.Code*) alongside the message.
type ServerError struct {
	Code    string
	Message string
}

func (e *ServerError) Error() string { return "poseidond: " + e.Code + ": " + e.Message }

// IsCode reports whether err is a ServerError with the given code.
func IsCode(err error, code string) bool {
	se, ok := err.(*ServerError)
	return ok && se.Code == code
}

// Options parameterize Dial.
type Options struct {
	// UserAgent identifies the client in HELLO (default "poseidon-go").
	UserAgent string
	// Mode, when set, pins the connection's default execution mode to
	// one of the poseidon.ExecMode values; leave nil for the server
	// default.
	Mode *uint8
	// DialTimeout bounds connection establishment plus the handshake
	// (default 10s).
	DialTimeout time.Duration
	// MaxMessage caps the size of a received frame body (default
	// wire.MaxMessage).
	MaxMessage int
	// Tracer, when set, roots a client-side span around every request
	// and propagates the trace identity to the server, which continues
	// the same trace through admission, execution and commit. The
	// metadata rides protocol version 2; against a v1 server the
	// request is still traced locally but nothing is propagated.
	Tracer *trace.Tracer
}

func (o *Options) fill() {
	if o.UserAgent == "" {
		o.UserAgent = "poseidon-go"
	}
	if o.DialTimeout == 0 {
		o.DialTimeout = 10 * time.Second
	}
	if o.MaxMessage == 0 {
		o.MaxMessage = wire.MaxMessage
	}
}

// Stmt is a statement prepared on one connection. It is only valid on
// the connection that prepared it.
type Stmt struct {
	ID         uint32
	HasUpdates bool
	text       string
}

// Conn is one client connection to a poseidond server.
type Conn struct {
	nc    net.Conn
	br    *bufio.Reader
	bw    *bufio.Writer
	codec wire.Codec
	opts  Options

	// runMsg and tc are the RUN and its trace context every statement
	// sends, rewritten per request.
	runMsg wire.Run
	tc     wire.TraceContext
	// rec is the RECORD every row of a result is decoded into; each row
	// keeps its own Values.
	rec wire.Record

	// broken marks the connection unusable after an I/O or protocol
	// error (server error frames do NOT break the connection).
	broken bool
	inTx   bool
	srv    map[string]any

	// version is the protocol version the handshake negotiated.
	version uint32
	// lastTraceID identifies the most recent traced request (0 = none).
	lastTraceID uint64
}

// Dial connects, handshakes, and says HELLO.
func Dial(addr string, opts Options) (*Conn, error) {
	opts.fill()
	nc, err := net.DialTimeout("tcp", addr, opts.DialTimeout)
	if err != nil {
		return nil, err
	}
	c := &Conn{
		nc:    nc,
		br:    bufio.NewReaderSize(nc, 16<<10),
		bw:    bufio.NewWriterSize(nc, 32<<10),
		codec: wire.Codec{Max: opts.MaxMessage},
		opts:  opts,
	}
	nc.SetDeadline(time.Now().Add(opts.DialTimeout))
	if err := c.handshakeHello(); err != nil {
		nc.Close()
		return nil, err
	}
	nc.SetDeadline(time.Time{})
	return c, nil
}

func (c *Conn) handshakeHello() error {
	// Preference order: v3 (pull-all RUN) first, then v2 (trace
	// metadata), v1 for old servers.
	if err := wire.WriteClientHandshake(c.bw, wire.Version3, wire.Version2, wire.Version1); err != nil {
		return err
	}
	if err := c.bw.Flush(); err != nil {
		return err
	}
	v, err := wire.ReadServerHandshake(c.br)
	if err != nil {
		return err
	}
	c.version = v
	mode := uint8(wire.ModeDefault)
	if c.opts.Mode != nil {
		mode = *c.opts.Mode
	}
	sp, tc := c.traceStart("client.hello")
	meta, err := c.request(&wire.Hello{UserAgent: c.opts.UserAgent, Mode: mode, Trace: tc})
	sp.SetError(err)
	sp.End()
	if err != nil {
		return err
	}
	c.srv = meta
	return nil
}

// ProtocolVersion returns the wire version the handshake negotiated.
func (c *Conn) ProtocolVersion() uint32 { return c.version }

// traceStart roots a client span for one request, recording its trace
// ID on the connection. The returned wire context is nil when tracing
// is off — or when the server only speaks v1, which has no metadata
// slot; the request is still traced locally in that case.
func (c *Conn) traceStart(name string) (*trace.Span, *wire.TraceContext) {
	if c.opts.Tracer == nil {
		return nil, nil
	}
	//poseidonlint:ignore ctx-threading the driver API is context-free; the span roots its own trace
	_, sp := c.opts.Tracer.Start(context.Background(), name, trace.KindClient)
	c.lastTraceID = sp.TraceID()
	if c.version < wire.Version2 {
		return sp, nil
	}
	sc := sp.Context()
	c.tc = wire.TraceContext{TraceID: sc.TraceID, SpanID: sc.SpanID}
	return sp, &c.tc
}

// LastTraceID returns the trace ID of the most recent traced request in
// the hex form /debug/traces accepts, or "" when tracing is off. The
// server retains the same ID for propagated traces, so this is the
// handle to look up a slow request's server-side spans.
func (c *Conn) LastTraceID() string {
	if c.lastTraceID == 0 {
		return ""
	}
	return trace.FormatID(c.lastTraceID)
}

// ServerInfo returns the metadata from the HELLO response (server
// name, version, default mode).
func (c *Conn) ServerInfo() map[string]any { return c.srv }

// Broken reports whether the connection hit an I/O or protocol error
// and must be discarded.
func (c *Conn) Broken() bool { return c.broken }

// InTx reports whether an explicit transaction is open.
func (c *Conn) InTx() bool { return c.inTx }

// Close says GOODBYE (best-effort) and closes the connection.
func (c *Conn) Close() error {
	if !c.broken {
		_ = c.codec.WriteMessage(c.bw, &wire.Goodbye{})
		_ = c.bw.Flush()
	}
	return c.nc.Close()
}

// send writes one message and flushes; any failure breaks the conn.
func (c *Conn) send(m wire.Message) error {
	if c.broken {
		return fmt.Errorf("client: connection is broken")
	}
	if err := c.codec.WriteMessage(c.bw, m); err != nil {
		c.broken = true
		return err
	}
	if err := c.bw.Flush(); err != nil {
		c.broken = true
		return err
	}
	return nil
}

// recv reads one response frame. ERROR frames are returned as
// *ServerError without breaking the connection; transport and decode
// failures break it.
func (c *Conn) recv() (wire.Message, error) {
	m, err := c.codec.ReadMessageInto(c.br, &c.rec)
	if err != nil {
		c.broken = true
		return nil, err
	}
	if e, ok := m.(*wire.Error); ok {
		return nil, &ServerError{Code: e.Code, Message: e.Message}
	}
	return m, nil
}

// request performs one send/SUCCESS round trip.
func (c *Conn) request(m wire.Message) (map[string]any, error) {
	if err := c.send(m); err != nil {
		return nil, err
	}
	resp, err := c.recv()
	if err != nil {
		return nil, err
	}
	s, ok := resp.(*wire.Success)
	if !ok {
		c.broken = true
		return nil, fmt.Errorf("client: expected SUCCESS, got %s", wire.MsgName(resp.Type()))
	}
	return s.Meta, nil
}

// Prepare registers a statement on the server. Text is Cypher, or an
// "ldbc:<name>" built-in workload statement (e.g. "ldbc:sr2-post").
func (c *Conn) Prepare(text string) (*Stmt, error) {
	meta, err := c.request(&wire.Prepare{Text: text})
	if err != nil {
		return nil, err
	}
	id, _ := meta["stmt_id"].(int64)
	if id <= 0 {
		c.broken = true
		return nil, fmt.Errorf("client: PREPARE response missing stmt_id")
	}
	upd, _ := meta["has_updates"].(bool)
	return &Stmt{ID: uint32(id), HasUpdates: upd, text: text}, nil
}

// newRun rewrites the connection's RUN for one statement and roots its
// client span.
func (c *Conn) newRun(stmt *Stmt, text string, params map[string]any) (*wire.Run, *trace.Span) {
	r := &c.runMsg
	*r = wire.Run{Text: text, Params: params, Mode: wire.ModeDefault}
	if stmt != nil {
		r.StmtID = stmt.ID
	}
	sp, tc := c.traceStart("client.request")
	r.Trace = tc
	if sp != nil {
		if text != "" {
			sp.SetAttr("text", text)
		} else if stmt != nil {
			sp.SetAttr("text", stmt.text)
		}
	}
	return r, sp
}

// run issues RUN and returns its SUCCESS metadata.
func (c *Conn) run(stmt *Stmt, text string, params map[string]any) (map[string]any, error) {
	r, sp := c.newRun(stmt, text, params)
	meta, err := c.request(r)
	sp.SetError(err)
	sp.End()
	return meta, err
}

// statement runs one statement to completion and returns its records and
// the metadata of the SUCCESS that ended it. Against a Version3 server
// that is one exchange: a pull-all RUN, answered by the records and the
// final SUCCESS. Older servers answer RUN with SUCCESS{streaming} and the
// records take a PULL(-1) of their own.
func (c *Conn) statement(stmt *Stmt, text string, params map[string]any) (rows [][]any, meta map[string]any, err error) {
	r, sp := c.newRun(stmt, text, params)
	if c.version >= wire.Version3 {
		r.PullAll = true
		if err = c.send(r); err == nil {
			rows, meta, err = c.result()
		}
	} else if meta, err = c.request(r); err == nil {
		if streaming, _ := meta["streaming"].(bool); streaming {
			rows, err = c.pullAll()
		}
	}
	sp.SetError(err)
	sp.End()
	return rows, meta, err
}

// result reads RECORDs until the SUCCESS that ends a result, returning
// the records and that SUCCESS's metadata.
func (c *Conn) result() ([][]any, map[string]any, error) {
	var rows [][]any
	for {
		m, err := c.recv()
		if err != nil {
			return nil, nil, err
		}
		switch t := m.(type) {
		case *wire.Record:
			rows = append(rows, t.Values)
		case *wire.Success:
			return rows, t.Meta, nil
		default:
			c.broken = true
			return nil, nil, fmt.Errorf("client: unexpected %s in result stream", wire.MsgName(m.Type()))
		}
	}
}

// pullAll drains the open result with PULL(-1).
func (c *Conn) pullAll() ([][]any, error) {
	if err := c.send(&wire.Pull{N: -1}); err != nil {
		return nil, err
	}
	rows, _, err := c.result()
	return rows, err
}

// Run starts a streaming statement by text without pulling any
// records: the server holds an admission slot until PullAll or a
// DISCARD/RESET releases it. It is the one call that keeps a result open
// on the server; Query/QueryText/Exec/ExecText take one exchange per
// statement. Run exists for callers that interleave pulling with other
// work.
func (c *Conn) Run(text string, params map[string]any) error {
	meta, err := c.run(nil, text, params)
	if err != nil {
		return err
	}
	if streaming, _ := meta["streaming"].(bool); !streaming {
		return fmt.Errorf("client: Run on non-streaming statement")
	}
	return nil
}

// PullAll drains the result opened by Run.
func (c *Conn) PullAll() ([][]any, error) { return c.pullAll() }

// Query runs a prepared read statement and returns all rows. Inside an
// explicit transaction the statement observes the transaction's
// uncommitted effects. An update in auto-commit returns no rows.
func (c *Conn) Query(stmt *Stmt, params map[string]any) ([][]any, error) {
	rows, _, err := c.statement(stmt, "", params)
	return rows, err
}

// QueryText is Query for one-shot statement text (no PREPARE).
func (c *Conn) QueryText(text string, params map[string]any) ([][]any, error) {
	rows, _, err := c.statement(nil, text, params)
	return rows, err
}

// Exec runs a prepared statement for effect. Outside a transaction an
// update auto-commits and Exec returns its rows-affected count; inside
// one (or for a read statement) the result is drained and its row
// count returned.
func (c *Conn) Exec(stmt *Stmt, params map[string]any) (int64, error) {
	return affected(c.statement(stmt, "", params))
}

// ExecText is Exec for one-shot statement text (no PREPARE).
func (c *Conn) ExecText(text string, params map[string]any) (int64, error) {
	return affected(c.statement(nil, text, params))
}

// affected is Exec's count: an auto-committed update reports its rows
// affected, anything else the records it returned.
func affected(rows [][]any, meta map[string]any, err error) (int64, error) {
	if err != nil {
		return 0, err
	}
	if n, ok := meta["rows_affected"].(int64); ok {
		return n, nil
	}
	return int64(len(rows)), nil
}

// Sys runs a "sys:<name>" introspection statement and returns its
// response metadata: Sys("profile") is the profile of the connection's
// most recent traced request, Sys("traces") the retained trace
// summaries as JSON, and Sys("trace:<id>") one trace as Chrome
// trace-event JSON.
func (c *Conn) Sys(name string) (map[string]any, error) {
	return c.run(nil, "sys:"+name, nil)
}

// Begin opens an explicit transaction on the connection.
func (c *Conn) Begin() error {
	if c.inTx {
		return fmt.Errorf("client: transaction already open")
	}
	if _, err := c.request(&wire.Begin{}); err != nil {
		return err
	}
	c.inTx = true
	return nil
}

// Commit commits the open transaction. A CONFLICT ServerError means
// MVTO validation aborted it; the transaction is over either way.
func (c *Conn) Commit() error {
	c.inTx = false
	_, err := c.request(&wire.Commit{})
	return err
}

// Rollback aborts the open transaction.
func (c *Conn) Rollback() error {
	c.inTx = false
	_, err := c.request(&wire.Rollback{})
	return err
}

// Reset returns the connection to a clean state: any open result is
// discarded and any open transaction rolled back.
func (c *Conn) Reset() error {
	c.inTx = false
	_, err := c.request(&wire.Reset{})
	return err
}

// Ping round-trips a RESET to verify the connection is alive.
func (c *Conn) Ping(ctx context.Context) error {
	if d, ok := ctx.Deadline(); ok {
		c.nc.SetDeadline(d)
		defer c.nc.SetDeadline(time.Time{})
	}
	return c.Reset()
}
