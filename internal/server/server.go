// Package server implements poseidond: the network front door that
// maps wire-protocol connections onto the public Session/Stmt/Rows
// API. One Server owns the accept loop, the admission-control
// semaphore that bounds concurrently executing statements (shedding
// QUEUE_FULL beyond the bound and its wait queue), per-connection
// state machines with statement caches, and the graceful drain path:
// Shutdown stops accepting, lets in-flight statements finish, rejects
// new RUN/BEGIN requests with DRAINING, and finally closes whatever
// connections remain.
package server

import (
	"context"
	"errors"
	"fmt"
	"net"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"poseidon"
	"poseidon/internal/core"
	"poseidon/internal/ldbc"
	"poseidon/internal/query"
	"poseidon/internal/wire"
)

// Config parameterizes a Server.
type Config struct {
	// DB is the engine the server fronts. Required.
	DB *poseidon.DB
	// Mode is the default execution mode for sessions whose HELLO does
	// not pin one.
	Mode poseidon.ExecMode
	// StmtTimeout is the per-statement deadline (default 30s).
	StmtTimeout time.Duration
	// MaxInflight bounds statements executing concurrently across all
	// connections — the admission-control semaphore (default 64).
	MaxInflight int
	// MaxQueue bounds how many RUNs may wait for an in-flight slot
	// before admission sheds with QUEUE_FULL (default == MaxInflight).
	MaxQueue int
	// QueueTimeout is the longest a queued RUN waits for a slot before
	// it too is shed (default 250ms).
	QueueTimeout time.Duration
	// SessionMaxTxs bounds live transactions per connection session
	// (default 8; see poseidon.SessionConfig.MaxTxs).
	SessionMaxTxs int
	// Version labels the poseidon_build_info gauge (default "dev").
	Version string
	// BaseContext, when set, parents every connection's context; its
	// cancellation aborts all running statements.
	BaseContext context.Context
	// Logf, when set, receives connection-level diagnostics.
	Logf func(format string, args ...any)
}

func (c *Config) fill() {
	if c.StmtTimeout == 0 {
		c.StmtTimeout = 30 * time.Second
	}
	if c.MaxInflight == 0 {
		c.MaxInflight = 64
	}
	if c.MaxQueue == 0 {
		c.MaxQueue = c.MaxInflight
	}
	if c.QueueTimeout == 0 {
		c.QueueTimeout = 250 * time.Millisecond
	}
	if c.SessionMaxTxs == 0 {
		c.SessionMaxTxs = 8
	}
	if c.Version == "" {
		c.Version = "dev"
	}
}

// Admission-control shed signals, mapped to their wire error codes by
// errorFrame.
var (
	errQueueFull = errors.New("server: admission queue full")
	errDraining  = errors.New("server: draining")
)

// Server is one poseidond instance.
type Server struct {
	cfg Config
	db  *poseidon.DB
	tel *poseidon.ServerTelemetry

	// slots is the bounded in-flight statement semaphore; waiters
	// bounds the queue of RUNs allowed to wait for a slot.
	slots   chan struct{}
	waiters chan struct{}

	draining atomic.Bool

	// ldbcPlans holds every "ldbc:" statement's plan, built in New and
	// read-only after.
	ldbcPlans map[ldbcName]*query.Plan

	mu        sync.Mutex
	closed    bool
	listeners map[net.Listener]struct{}
	conns     map[*conn]struct{}

	// inflight tracks admitted statements for the drain barrier;
	// connWG tracks connection goroutines for final teardown.
	inflight sync.WaitGroup
	connWG   sync.WaitGroup
}

// New builds a Server over cfg.DB. Metric series are registered on the
// DB's telemetry registry (no-ops when telemetry is disabled).
func New(cfg Config) (*Server, error) {
	if cfg.DB == nil {
		return nil, errors.New("server: Config.DB is required")
	}
	cfg.fill()
	plans, err := buildLDBCPlans()
	if err != nil {
		return nil, err
	}
	return &Server{
		cfg:       cfg,
		db:        cfg.DB,
		tel:       cfg.DB.RegisterServer(cfg.Version, wire.RequestNames()),
		slots:     make(chan struct{}, cfg.MaxInflight),
		waiters:   make(chan struct{}, cfg.MaxQueue),
		ldbcPlans: plans,
		listeners: make(map[net.Listener]struct{}),
		conns:     make(map[*conn]struct{}),
	}, nil
}

// logf forwards to the configured logger, if any.
func (s *Server) logf(format string, args ...any) {
	if s.cfg.Logf != nil {
		s.cfg.Logf(format, args...)
	}
}

// Serve accepts connections on l until the listener is closed (by
// Shutdown or externally). It returns nil on a drain-initiated close.
func (s *Server) Serve(l net.Listener) error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return errors.New("server: already shut down")
	}
	s.listeners[l] = struct{}{}
	s.mu.Unlock()
	defer func() {
		s.mu.Lock()
		delete(s.listeners, l)
		s.mu.Unlock()
	}()
	for {
		nc, err := l.Accept()
		if err != nil {
			if s.draining.Load() {
				return nil
			}
			return err
		}
		c := newConn(s, nc)
		s.mu.Lock()
		if s.closed {
			s.mu.Unlock()
			nc.Close()
			return nil
		}
		s.conns[c] = struct{}{}
		s.mu.Unlock()
		s.tel.ConnsOpen.Add(1)
		s.connWG.Add(1)
		go func() {
			defer s.connWG.Done()
			c.serve()
			s.mu.Lock()
			delete(s.conns, c)
			s.mu.Unlock()
			s.tel.ConnsOpen.Add(-1)
		}()
	}
}

// ListenAndServe listens on addr and serves until Shutdown.
func (s *Server) ListenAndServe(addr string) error {
	l, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	return s.Serve(l)
}

// Shutdown drains the server: stop accepting, reject new RUN/BEGIN
// requests with DRAINING, wait for every admitted statement to finish
// (or ctx to expire), then close the remaining connections. It returns
// ctx.Err() if the drain deadline cut statements short, nil otherwise.
func (s *Server) Shutdown(ctx context.Context) error {
	s.draining.Store(true)
	s.mu.Lock()
	s.closed = true
	for l := range s.listeners {
		l.Close()
	}
	s.mu.Unlock()

	done := make(chan struct{})
	go func() {
		s.inflight.Wait()
		close(done)
	}()
	var err error
	select {
	case <-done:
	case <-ctx.Done():
		err = ctx.Err()
	}

	// In-flight work is finished (or abandoned): close every remaining
	// connection; their sessions roll back whatever is still open.
	s.mu.Lock()
	conns := make([]*conn, 0, len(s.conns))
	for c := range s.conns {
		conns = append(conns, c)
	}
	s.mu.Unlock()
	for _, c := range conns {
		c.shutdown()
	}
	s.connWG.Wait()
	return err
}

// Draining reports whether Shutdown has started.
func (s *Server) Draining() bool { return s.draining.Load() }

// admit takes an in-flight slot, waiting up to QueueTimeout in the
// bounded queue; beyond either bound the request is shed with
// errQueueFull. A successful admit registers with the drain barrier.
// Every call's wait, admitted or shed, is observed in
// poseidon_admission_wait_seconds.
func (s *Server) admit(ctx context.Context) error {
	start := time.Now()
	defer func() { s.tel.AdmissionWait.ObserveDuration(time.Since(start)) }()
	acquired := false
	select {
	case s.slots <- struct{}{}:
		acquired = true
	default:
	}
	if !acquired {
		select {
		case s.waiters <- struct{}{}:
		default:
			s.tel.AdmissionRejects.Inc()
			return errQueueFull
		}
		t := time.NewTimer(s.cfg.QueueTimeout)
		select {
		case s.slots <- struct{}{}:
			acquired = true
		case <-t.C:
		case <-ctx.Done():
		}
		t.Stop()
		<-s.waiters
		if !acquired {
			if err := ctx.Err(); err != nil {
				return err
			}
			s.tel.AdmissionRejects.Inc()
			return errQueueFull
		}
	}
	// A drain that raced the acquisition must not run new work behind
	// the barrier's back.
	if s.draining.Load() {
		<-s.slots
		return errDraining
	}
	s.inflight.Add(1)
	s.tel.InflightStmts.Add(1)
	return nil
}

// release returns an in-flight slot.
func (s *Server) release() {
	<-s.slots
	s.tel.InflightStmts.Add(-1)
	s.inflight.Done()
}

// prepare resolves statement text: Cypher, or an "ldbc:<name>"
// workload statement served from the built-in plan registry (the
// LDBC SR/IU queries are algebra plans, not Cypher — exposing them by
// name is what lets remote load harnesses drive the paper's workload).
// Either way the statement comes from the DB's prepared-statement
// cache, which CreateIndex purges.
func (s *Server) prepare(text string) (*poseidon.Stmt, error) {
	if name, ok := strings.CutPrefix(text, "ldbc:"); ok {
		plan, err := s.ldbcPlan(name)
		if err != nil {
			return nil, err
		}
		return s.db.PreparePlan(plan)
	}
	return s.db.Prepare(text)
}

// ldbcName is a parsed workload statement name. Plans are keyed by it,
// not by the text, so "sr01" and "sr1" name the same plan.
type ldbcName struct {
	iu bool
	q  ldbc.QueryID
}

// buildLDBCPlans builds the plan of every statement in the workload
// registry (ldbc.SRQueries and ldbc.IUQueries).
func buildLDBCPlans() (map[ldbcName]*query.Plan, error) {
	plans := make(map[ldbcName]*query.Plan)
	for _, q := range ldbc.SRQueries() {
		plan, err := ldbc.SRPlan(q, true)
		if err != nil {
			return nil, err
		}
		plans[ldbcName{q: q}] = plan
	}
	for _, q := range ldbc.IUQueries() {
		plan, err := ldbc.IUPlan(q, true)
		if err != nil {
			return nil, err
		}
		plans[ldbcName{iu: true, q: q}] = plan
	}
	return plans, nil
}

// ldbcPlan returns the registry plan of a workload statement name:
// "sr1", "sr2-post", "iu6", …
func (s *Server) ldbcPlan(name string) (*query.Plan, error) {
	rest, sr := strings.CutPrefix(name, "sr")
	iu := false
	if !sr {
		rest, iu = strings.CutPrefix(name, "iu")
	}
	num, variant, _ := strings.Cut(rest, "-")
	n, err := strconv.Atoi(num)
	if plan := s.ldbcPlans[ldbcName{iu: iu, q: ldbc.QueryID{Num: n, Variant: variant}}]; (sr || iu) && err == nil && plan != nil {
		return plan, nil
	}
	return nil, fmt.Errorf("unknown ldbc statement %q (want sr<N>[-post|-cmt] or iu<N>)", name)
}

// errorFrame maps an execution error to its wire ERROR frame.
func errorFrame(err error) *wire.Error {
	var code string
	switch {
	case errors.Is(err, errQueueFull):
		code = wire.CodeQueueFull
	case errors.Is(err, errDraining):
		code = wire.CodeDraining
	case errors.Is(err, poseidon.ErrSessionLimit):
		code = wire.CodeSessionLimit
	case errors.Is(err, core.ErrAborted), errors.Is(err, core.ErrTxDone):
		code = wire.CodeConflict
	case errors.Is(err, context.DeadlineExceeded), errors.Is(err, context.Canceled):
		code = wire.CodeCancelled
	case errors.Is(err, poseidon.ErrSessionClosed):
		code = wire.CodeCancelled
	default:
		code = wire.CodeInternal
	}
	return &wire.Error{Code: code, Message: err.Error()}
}
