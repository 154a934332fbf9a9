// Package trace is the request-tracing subsystem: spans that follow one
// statement from the client driver over the wire, through admission,
// session dispatch, interpreter/JIT execution, per-shard commit locks,
// and pmem flush batches. Like internal/telemetry it is stdlib-only and
// nil-safe: every method on a nil *Tracer or nil *Span is a no-op, so
// instrumented code never branches on "is tracing enabled" — it just
// calls through a possibly-nil handle. Completed traces land in a
// fixed-size tail-sampling ring (errored and slow traces are always
// kept, the rest are sampled probabilistically) from which they can be
// exported as Chrome trace-event JSON.
package trace

import (
	"context"
	"fmt"
	"strconv"
	"sync"
	"sync/atomic"
	"time"
)

// Kind classifies a span by the layer that produced it. The set is the
// span taxonomy documented in DESIGN.md; CI's trace-smoke asserts a
// complete write path covers wire→commit→pmem.
type Kind string

const (
	KindClient    Kind = "client"    // poseidon/client request round trip
	KindWire      Kind = "wire"      // server-side request handling
	KindAdmission Kind = "admission" // bounded in-flight admission wait
	KindSession   Kind = "session"   // Session/Stmt dispatch
	KindExec      Kind = "exec"      // interpreter / parallel morsel execution
	KindJIT       Kind = "jit"       // compilation and adaptive tier switch
	KindCommit    Kind = "commit"    // core MVTO begin/commit
	KindPMem      Kind = "pmem"      // flush/fence batches during persist
)

// SpanContext is the propagated identity of a span: what travels over
// the wire as the optional HELLO/RUN trace metadata entry.
type SpanContext struct {
	TraceID uint64
	SpanID  uint64
}

// Valid reports whether the context names a real trace.
func (sc SpanContext) Valid() bool { return sc.TraceID != 0 }

// Attr is one key/value annotation on a span. Values are kept as any
// but should be int64/uint64/float64/string/bool so they JSON-export
// cleanly.
type Attr struct {
	Key   string `json:"key"`
	Value any    `json:"value"`
}

// SpanData is the immutable record of a finished span inside a Trace.
type SpanData struct {
	ID       uint64        `json:"id"`
	Parent   uint64        `json:"parent"`
	Name     string        `json:"name"`
	Kind     Kind          `json:"kind"`
	Start    time.Time     `json:"start"`
	Duration time.Duration `json:"duration_ns"`
	Attrs    []Attr        `json:"attrs,omitempty"`
	Err      string        `json:"err,omitempty"`
}

// Trace is one finished request: the root span plus every child that
// ended before the root, in end order (root last).
type Trace struct {
	ID           uint64        `json:"id"`
	RemoteParent uint64        `json:"remote_parent,omitempty"`
	Start        time.Time     `json:"start"`
	Duration     time.Duration `json:"duration_ns"`
	Err          string        `json:"err,omitempty"`
	// Pinned means the trace was retained unconditionally by tail
	// sampling (it errored or crossed the slow threshold) and may not
	// be evicted by a merely-sampled trace.
	Pinned bool       `json:"pinned"`
	Spans  []SpanData `json:"spans"`
}

// Root returns the root span's data (the last span to end), or a zero
// SpanData for a malformed trace.
func (t *Trace) Root() SpanData {
	if t == nil || len(t.Spans) == 0 {
		return SpanData{}
	}
	return t.Spans[len(t.Spans)-1]
}

// Kinds returns the distinct span kinds present, in first-seen order.
func (t *Trace) Kinds() []Kind {
	if t == nil {
		return nil
	}
	var out []Kind
	seen := map[Kind]bool{}
	for i := range t.Spans {
		if k := t.Spans[i].Kind; !seen[k] {
			seen[k] = true
			out = append(out, k)
		}
	}
	return out
}

// Config sizes a Tracer. Zero values pick the documented defaults.
type Config struct {
	// RingSize caps the number of retained traces (default 256).
	RingSize int
	// SampleRate is the probability an unremarkable (no error, not
	// slow) trace is kept; default 0.1. Errored and slow traces are
	// always kept — sampling is applied at trace end ("tail"), when
	// the outcome is known.
	SampleRate float64
	// SlowThreshold pins traces at least this slow (default 25ms).
	// Negative pins nothing for slowness; errored traces still pin.
	SlowThreshold time.Duration
}

// Tracer creates spans and retains finished traces. A nil *Tracer is
// the disabled state: Start returns a nil span and every downstream
// call no-ops.
type Tracer struct {
	ring          *ring
	sampleRate    float64
	slowThreshold time.Duration
	rng           atomic.Uint64

	started atomic.Uint64 // traces started
	kept    atomic.Uint64 // traces retained in the ring
	sampled atomic.Uint64 // unremarkable traces dropped by sampling
	dropped atomic.Uint64 // traces dropped because the ring was all-pinned
}

// New builds an enabled Tracer. Pass the result around as *Tracer; a
// nil handle disables tracing with no other code change.
func New(cfg Config) *Tracer {
	if cfg.RingSize <= 0 {
		cfg.RingSize = 256
	}
	if cfg.SampleRate <= 0 {
		cfg.SampleRate = 0.1
	}
	if cfg.SampleRate > 1 {
		cfg.SampleRate = 1
	}
	if cfg.SlowThreshold == 0 {
		cfg.SlowThreshold = 25 * time.Millisecond
	}
	t := &Tracer{
		ring:          newRing(cfg.RingSize),
		sampleRate:    cfg.SampleRate,
		slowThreshold: cfg.SlowThreshold,
	}
	t.rng.Store(uint64(time.Now().UnixNano()) | 1)
	return t
}

// splitmix64 steps the tracer's ID/sampling stream. Statistical
// quality, not secrecy, is what trace IDs need.
func (t *Tracer) next() uint64 {
	for {
		old := t.rng.Load()
		z := old + 0x9e3779b97f4a7c15
		if !t.rng.CompareAndSwap(old, z) {
			continue
		}
		z = (z ^ (z >> 30)) * 0xbf58476d1ce4b91f
		z = (z ^ (z >> 27)) * 0x94d049bb133111eb
		return z ^ (z >> 31)
	}
}

func (t *Tracer) newID() uint64 {
	for {
		if id := t.next(); id != 0 {
			return id
		}
	}
}

// activeTrace accumulates the spans of one in-flight trace.
type activeTrace struct {
	tracer *Tracer
	id     uint64
	remote uint64 // client-side parent span id, 0 when the root is local
	root   *Span
	sink   func(*Trace)

	mu     sync.Mutex
	spans  []SpanData
	sealed bool
}

// Start begins a new local root span and returns a context carrying it.
// On a nil tracer it returns ctx unchanged and a nil span.
func (t *Tracer) Start(ctx context.Context, name string, kind Kind) (context.Context, *Span) {
	return t.StartRemote(ctx, SpanContext{}, name, kind)
}

// StartRemote begins a root span that continues a trace started by a
// remote peer (the client driver): the trace keeps the propagated
// TraceID and the root span records the remote span as its parent.
// A zero SpanContext degrades to Start.
func (t *Tracer) StartRemote(ctx context.Context, sc SpanContext, name string, kind Kind) (context.Context, *Span) {
	if t == nil {
		return ctx, nil
	}
	t.started.Add(1)
	id := sc.TraceID
	if id == 0 {
		id = t.newID()
	}
	at := &activeTrace{tracer: t, id: id, remote: sc.SpanID, sink: sinkFromContext(ctx)}
	s := &Span{
		at:     at,
		id:     t.newID(),
		parent: sc.SpanID,
		name:   name,
		kind:   kind,
		start:  time.Now(),
	}
	at.root = s
	return ContextWithSpan(ctx, s), s
}

// Span is one in-flight timed region. All methods are nil-safe; a span
// may be annotated from the goroutine that created it (spans are not
// internally shared across goroutines — create a Child per worker).
type Span struct {
	at     *activeTrace
	id     uint64
	parent uint64
	name   string
	kind   Kind
	start  time.Time

	mu    sync.Mutex
	attrs []Attr
	err   string
	ended bool
}

// Child starts a sub-span. Returns nil on a nil receiver, so deep
// layers can instrument unconditionally.
func (s *Span) Child(name string, kind Kind) *Span {
	if s == nil {
		return nil
	}
	return &Span{
		at:     s.at,
		id:     s.at.tracer.newID(),
		parent: s.id,
		name:   name,
		kind:   kind,
		start:  time.Now(),
	}
}

// Context returns the span's wire identity (zero on nil).
func (s *Span) Context() SpanContext {
	if s == nil {
		return SpanContext{}
	}
	return SpanContext{TraceID: s.at.id, SpanID: s.id}
}

// TraceID returns the owning trace's ID, 0 on nil.
func (s *Span) TraceID() uint64 {
	if s == nil {
		return 0
	}
	return s.at.id
}

// SetAttr attaches one key/value annotation.
func (s *Span) SetAttr(key string, value any) {
	if s == nil {
		return
	}
	s.mu.Lock()
	s.attrs = append(s.attrs, Attr{Key: key, Value: value})
	s.mu.Unlock()
}

// SetError marks the span (and therefore its trace) failed. A nil err
// is ignored.
func (s *Span) SetError(err error) {
	if s == nil || err == nil {
		return
	}
	s.mu.Lock()
	s.err = err.Error()
	s.mu.Unlock()
}

// End finishes the span. Ending the root span seals the trace: the
// finish sink (if any) fires and tail sampling decides retention.
// Double-End is a no-op.
func (s *Span) End() {
	if s == nil {
		return
	}
	now := time.Now()
	s.mu.Lock()
	if s.ended {
		s.mu.Unlock()
		return
	}
	s.ended = true
	sd := SpanData{
		ID:       s.id,
		Parent:   s.parent,
		Name:     s.name,
		Kind:     s.kind,
		Start:    s.start,
		Duration: now.Sub(s.start),
		Attrs:    s.attrs,
		Err:      s.err,
	}
	s.mu.Unlock()

	at := s.at
	at.mu.Lock()
	if at.sealed {
		at.mu.Unlock()
		return
	}
	at.spans = append(at.spans, sd)
	if s != at.root {
		at.mu.Unlock()
		return
	}
	at.sealed = true
	spans := at.spans
	at.mu.Unlock()
	// A failure anywhere in the tree fails (and pins) the trace, even
	// when the root itself returned cleanly.
	errStr := sd.Err
	for i := 0; errStr == "" && i < len(spans); i++ {
		errStr = spans[i].Err
	}
	at.tracer.finish(&Trace{
		ID:           at.id,
		RemoteParent: at.remote,
		Start:        sd.Start,
		Duration:     sd.Duration,
		Err:          errStr,
		Spans:        spans,
	}, at.sink)
}

// finish applies tail sampling and offers the trace to the ring.
func (t *Tracer) finish(tr *Trace, sink func(*Trace)) {
	tr.Pinned = tr.Err != "" || (t.slowThreshold > 0 && tr.Duration >= t.slowThreshold)
	if sink != nil {
		sink(tr)
	}
	if !tr.Pinned {
		// splitmix output is uniform over uint64; compare against the
		// rate scaled into that range.
		if float64(t.next()) >= t.sampleRate*float64(1<<63)*2 {
			t.sampled.Add(1)
			return
		}
	}
	if t.ring.insert(tr) {
		t.kept.Add(1)
	} else {
		t.dropped.Add(1)
	}
}

// Traces returns retained traces, most recent last.
func (t *Tracer) Traces() []*Trace {
	if t == nil {
		return nil
	}
	return t.ring.snapshot()
}

// Trace returns the retained trace with the given ID, or nil.
func (t *Tracer) Trace(id uint64) *Trace {
	if t == nil {
		return nil
	}
	for _, tr := range t.ring.snapshot() {
		if tr.ID == id {
			return tr
		}
	}
	return nil
}

// Stats reports lifetime counters: traces started, kept in the ring,
// dropped by probabilistic sampling, and dropped because the ring was
// full of pinned traces.
func (t *Tracer) Stats() (started, kept, sampledOut, dropped uint64) {
	if t == nil {
		return 0, 0, 0, 0
	}
	return t.started.Load(), t.kept.Load(), t.sampled.Load(), t.dropped.Load()
}

// FormatID renders a trace/span ID the way tools print and accept it.
func FormatID(id uint64) string { return fmt.Sprintf("%016x", id) }

// ParseID parses FormatID output (with or without leading zeros).
func ParseID(s string) (uint64, error) {
	v, err := strconv.ParseUint(s, 16, 64)
	if err != nil {
		return 0, fmt.Errorf("trace id %q: %w", s, err)
	}
	return v, nil
}

type ctxKey struct{}
type sinkKey struct{}

// ContextWithSpan returns a context carrying the span.
func ContextWithSpan(ctx context.Context, s *Span) context.Context {
	if s == nil {
		return ctx
	}
	return context.WithValue(ctx, ctxKey{}, s)
}

// FromContext returns the context's span, or nil. This is the only
// cost tracing adds to a disabled hot path: one context lookup miss.
func FromContext(ctx context.Context) *Span {
	if ctx == nil {
		return nil
	}
	s, _ := ctx.Value(ctxKey{}).(*Span)
	return s
}

// StartSpan begins a child of the context's span, returning a context
// carrying the child. With no span in ctx it returns (ctx, nil).
func StartSpan(ctx context.Context, name string, kind Kind) (context.Context, *Span) {
	parent := FromContext(ctx)
	if parent == nil {
		return ctx, nil
	}
	child := parent.Child(name, kind)
	return ContextWithSpan(ctx, child), child
}

// WithFinishSink returns a context that makes any trace *rooted* under
// it deliver its finished *Trace to fn (before sampling, so the sink
// always sees the trace). Sessions use this to expose the last
// statement's profile.
func WithFinishSink(ctx context.Context, fn func(*Trace)) context.Context {
	if fn == nil {
		return ctx
	}
	return context.WithValue(ctx, sinkKey{}, fn)
}

func sinkFromContext(ctx context.Context) func(*Trace) {
	if ctx == nil {
		return nil
	}
	fn, _ := ctx.Value(sinkKey{}).(func(*Trace))
	return fn
}
