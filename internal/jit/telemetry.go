package jit

import "poseidon/internal/telemetry"

// Telemetry holds the JIT engine's metric handles. The zero value (all
// nil) is the disabled state; every operation on a nil handle no-ops.
type Telemetry struct {
	// Compiles counts full compilations (codegen + SimplifyCFG +
	// lowering), i.e. both cache tiers missed.
	Compiles *telemetry.Counter
	// CompileTime observes full-compilation wall time in nanoseconds.
	CompileTime *telemetry.Histogram
	// MemHits counts in-memory code-cache hits (already-linked code).
	MemHits *telemetry.Counter
	// PersistHits counts persistent code-cache hits (stored code relinked
	// from PMem — the paper's instant-restart path).
	PersistHits *telemetry.Counter
	// MorselsInterpreted / MorselsCompiled count morsels processed by each
	// path of the adaptive executor (§6.2).
	MorselsInterpreted *telemetry.Counter
	MorselsCompiled    *telemetry.Counter
	// Switchovers counts adaptive runs that actually flipped from the
	// interpreter to compiled code mid-query (both morsel kinds > 0).
	Switchovers *telemetry.Counter
}

// SetTelemetry installs the metric handles. Call before the engine
// serves queries; handles are read without synchronization.
func (j *Engine) SetTelemetry(t Telemetry) { j.tel = t }
