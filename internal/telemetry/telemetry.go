// Package telemetry is the engine-wide measurement substrate: a
// low-overhead metrics core (sharded atomic counters, gauges and
// fixed-bucket histograms), a registry that snapshots every series, and
// a Prometheus-text exposition endpoint. Per-request records (stage
// timings, the slow-query view) belong to internal/trace.
//
// Every metric type has a true no-op path: the nil pointer. A disabled
// engine simply never constructs a Registry, every subsystem holds nil
// metric handles, and every operation on a nil handle is a single
// predictable branch — no allocation, no atomic write, no lock. This is
// what lets telemetry be compiled into every hot path (MVTO commit,
// morsel workers, the JIT) without a measurable cost when off.
//
// The package is deliberately dependency-free (stdlib only) and imported
// by the lowest layers (core, jit); it must never import them back.
package telemetry

import (
	"fmt"
	"sort"
	"strings"
	"sync"
)

// metricKind is the Prometheus metric type of a family.
type metricKind string

const (
	kindCounter   metricKind = "counter"
	kindGauge     metricKind = "gauge"
	kindHistogram metricKind = "histogram"
)

// sample is one exposed time series: a metric name plus an optional
// label pair and a way to read its current value(s).
type sample struct {
	labels string // `reason="validation"` or "" — rendered inside {}
	value  func() float64
	hist   *Histogram // set for histogram samples instead of value
}

// family is one named metric family (HELP/TYPE emitted once, then every
// registered series of that name).
type family struct {
	name    string
	help    string
	kind    metricKind
	samples []sample
}

// Registry holds the engine's metric families in registration order and
// renders them in the Prometheus text exposition format. A nil *Registry
// is valid: every constructor returns a nil metric handle whose
// operations no-op.
type Registry struct {
	mu       sync.Mutex
	families []*family
	byName   map[string]*family
}

// NewRegistry creates an empty registry.
func NewRegistry() *Registry {
	return &Registry{byName: make(map[string]*family)}
}

// Label is one constant key="value" pair attached to a series at
// registration time. Dynamic label values are deliberately unsupported:
// every series the engine exports is known at startup, which keeps the
// hot path allocation-free.
type Label struct {
	Key   string
	Value string
}

func renderLabels(labels []Label) string {
	if len(labels) == 0 {
		return ""
	}
	parts := make([]string, len(labels))
	for i, l := range labels {
		parts[i] = fmt.Sprintf("%s=%q", l.Key, l.Value)
	}
	return strings.Join(parts, ",")
}

// register appends a sample to the named family, creating the family on
// first use. Families are exposed in first-registration order.
func (r *Registry) register(name, help string, kind metricKind, s sample) {
	r.mu.Lock()
	defer r.mu.Unlock()
	f := r.byName[name]
	if f == nil {
		f = &family{name: name, help: help, kind: kind}
		r.byName[name] = f
		r.families = append(r.families, f)
	}
	f.samples = append(f.samples, s)
}

// Counter registers a sharded, monotonically increasing counter.
// Returns nil (a valid no-op handle) on a nil registry.
func (r *Registry) Counter(name, help string, labels ...Label) *Counter {
	if r == nil {
		return nil
	}
	c := &Counter{}
	r.register(name, help, kindCounter, sample{
		labels: renderLabels(labels),
		value:  func() float64 { return float64(c.Value()) },
	})
	return c
}

// Gauge registers a gauge (a value that can go up and down).
func (r *Registry) Gauge(name, help string, labels ...Label) *Gauge {
	if r == nil {
		return nil
	}
	g := &Gauge{}
	r.register(name, help, kindGauge, sample{
		labels: renderLabels(labels),
		value:  func() float64 { return float64(g.Value()) },
	})
	return g
}

// CounterFunc registers a counter series whose value is sampled from fn
// at scrape time. Used to re-export counters a subsystem already
// maintains (the pmem device stats, the statement cache) without double
// counting on the hot path.
func (r *Registry) CounterFunc(name, help string, fn func() uint64, labels ...Label) {
	if r == nil {
		return
	}
	r.register(name, help, kindCounter, sample{
		labels: renderLabels(labels),
		value:  func() float64 { return float64(fn()) },
	})
}

// GaugeFunc registers a gauge series sampled from fn at scrape time.
func (r *Registry) GaugeFunc(name, help string, fn func() float64, labels ...Label) {
	if r == nil {
		return
	}
	r.register(name, help, kindGauge, sample{labels: renderLabels(labels), value: fn})
}

// Histogram registers a fixed-bucket histogram. bounds are inclusive
// upper bounds in raw units (must be sorted ascending); unit divides raw
// values for exposition (1e9 turns nanoseconds into seconds).
func (r *Registry) Histogram(name, help string, bounds []uint64, unit float64, labels ...Label) *Histogram {
	if r == nil {
		return nil
	}
	h := newHistogram(bounds, unit)
	r.register(name, help, kindHistogram, sample{labels: renderLabels(labels), hist: h})
	return h
}

// list copies the family list so rendering runs outside the lock; nil
// on a nil registry.
func (r *Registry) list() []*family {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]*family(nil), r.families...)
}

// seriesName renders a series the way /metrics prints it: the name,
// then the label set in braces when there is one.
func seriesName(name, labels string) string {
	if labels == "" {
		return name
	}
	return name + "{" + labels + "}"
}

// WritePrometheus renders every registered family in the text exposition
// format (version 0.0.4), in registration order.
func (r *Registry) WritePrometheus(w *strings.Builder) {
	for _, f := range r.list() {
		fmt.Fprintf(w, "# HELP %s %s\n", f.name, f.help)
		fmt.Fprintf(w, "# TYPE %s %s\n", f.name, f.kind)
		for _, s := range f.samples {
			if s.hist != nil {
				s.hist.writePrometheus(w, f.name, s.labels)
				continue
			}
			fmt.Fprintf(w, "%s %s\n", seriesName(f.name, s.labels), formatValue(s.value()))
		}
	}
}

// Snapshot is a point-in-time copy of every registered series, keyed as
// /metrics prints it (`poseidon_tx_aborts_total{reason="validation"}`).
// Values holds the counters and gauges; Histograms holds one entry per
// histogram series under the family name (plus labels), whose Count and
// Sum are the exposition's _count and _sum lines.
type Snapshot struct {
	Values     map[string]float64           `json:"values"`
	Histograms map[string]HistogramSnapshot `json:"histograms"`
}

// Snapshot reads every registered series once (none on a nil registry).
// It walks the same list WritePrometheus renders, so a series registered
// once reaches both.
func (r *Registry) Snapshot() Snapshot {
	out := Snapshot{Values: map[string]float64{}, Histograms: map[string]HistogramSnapshot{}}
	for _, f := range r.list() {
		for _, s := range f.samples {
			key := seriesName(f.name, s.labels)
			if s.hist != nil {
				out.Histograms[key] = s.hist.Snapshot()
			} else {
				out.Values[key] = s.value()
			}
		}
	}
	return out
}

// formatValue renders a float without the exponent noise %v produces for
// large integral counters.
func formatValue(v float64) string {
	if v == float64(uint64(v)) {
		return fmt.Sprintf("%d", uint64(v))
	}
	return fmt.Sprintf("%g", v)
}

// LatencyBuckets returns exponential-ish latency bucket bounds in
// nanoseconds, from 10µs to 10s — wide enough for a point lookup on the
// simulated DRAM device and a cold multi-second analytical scan alike.
func LatencyBuckets() []uint64 {
	us := uint64(1_000)
	ms := 1_000 * us
	return []uint64{
		10 * us, 25 * us, 50 * us, 100 * us, 250 * us, 500 * us,
		1 * ms, 2*ms + 500*us, 5 * ms, 10 * ms, 25 * ms, 50 * ms, 100 * ms,
		250 * ms, 500 * ms, 1000 * ms, 2500 * ms, 5000 * ms, 10_000 * ms,
	}
}

// LengthBuckets returns power-of-two bucket bounds for small discrete
// quantities such as version-chain walk lengths.
func LengthBuckets(max uint64) []uint64 {
	var out []uint64
	for b := uint64(1); b <= max; b *= 2 {
		out = append(out, b)
	}
	return out
}

// sortedCheck verifies bounds are strictly ascending; it panics on a
// programming error rather than mis-bucketing silently.
func sortedCheck(bounds []uint64) {
	if !sort.SliceIsSorted(bounds, func(i, j int) bool { return bounds[i] < bounds[j] }) {
		panic("telemetry: histogram bounds must be sorted ascending")
	}
}
