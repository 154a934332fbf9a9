package poseidon

import (
	"time"

	"poseidon/internal/trace"
)

// TraceConfig enables and tunes per-request tracing (see
// internal/trace): spans following one statement from the wire (or the
// local session) through admission, session dispatch, interpreter/JIT
// execution, per-shard commit locking and pmem flush batches. Disabled
// by default; when off, the DB holds a nil *trace.Tracer and every
// instrumented call site no-ops through the nil handle.
type TraceConfig struct {
	// Enabled turns request tracing on.
	Enabled bool
	// RingSize bounds the retained-trace ring (default 256).
	RingSize int
	// SampleRate is the probability an unremarkable trace is retained
	// after it finishes — tail sampling, so errored traces and traces at
	// least TelemetryConfig.SlowQueryThreshold long are always kept
	// regardless (default 0.1).
	SampleRate float64
}

// newTracer builds the DB's tracer, or nil when tracing is disabled.
// slow is the DB's resolved threshold; trace.New reads 0 as "default",
// so "nothing is slow" travels as a negative value.
func newTracer(cfg TraceConfig, slow time.Duration) *trace.Tracer {
	if !cfg.Enabled {
		return nil
	}
	if slow == 0 {
		slow = -1
	}
	return trace.New(trace.Config{RingSize: cfg.RingSize, SampleRate: cfg.SampleRate, SlowThreshold: slow})
}

// installTracer pushes the trace handle into the engine layers that
// cannot see the context at span-creation time, and registers the
// tracer's lifetime counters on the telemetry registry.
func (db *DB) installTracer() {
	if db.tracer == nil {
		return
	}
	if db.tel != nil {
		tr := db.tracer
		reg := db.tel.reg
		reg.CounterFunc("poseidon_traces_started_total", "Request traces started.",
			func() uint64 { s, _, _, _ := tr.Stats(); return s })
		reg.CounterFunc("poseidon_traces_kept_total", "Request traces retained in the trace ring.",
			func() uint64 { _, k, _, _ := tr.Stats(); return k })
		reg.CounterFunc("poseidon_traces_sampled_out_total", "Unremarkable traces dropped by tail sampling.",
			func() uint64 { _, _, s, _ := tr.Stats(); return s })
		reg.CounterFunc("poseidon_traces_dropped_total", "Traces dropped because the ring held only pinned traces.",
			func() uint64 { _, _, _, d := tr.Stats(); return d })
	}
}

// Tracer exposes the DB's request tracer; nil when tracing is disabled.
// The handle is nil-safe, so callers may use it unconditionally.
func (db *DB) Tracer() *trace.Tracer { return db.tracer }

// Traces returns the retained (tail-sampled) traces, oldest first, or
// nil when tracing is disabled.
func (db *DB) Traces() []*trace.Trace { return db.tracer.Traces() }
