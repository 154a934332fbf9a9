package telemetry

import (
	"encoding/json"
	"fmt"
	"math"
	"strings"
	"sync/atomic"
	"time"
)

// Histogram is a fixed-bucket histogram over non-negative integer
// observations (nanoseconds, walk lengths, row counts). Buckets are
// chosen at construction; observing is one bounded linear scan plus two
// atomic adds — no allocation, no lock. A nil *Histogram no-ops.
type Histogram struct {
	bounds []uint64        // inclusive upper bounds, ascending
	unit   float64         // exposition divisor (1e9: ns → s)
	counts []atomic.Uint64 // len(bounds)+1; last bucket is +Inf
	sum    atomic.Uint64   // sum of raw observations
}

func newHistogram(bounds []uint64, unit float64) *Histogram {
	sortedCheck(bounds)
	if unit == 0 {
		unit = 1
	}
	return &Histogram{
		bounds: bounds,
		unit:   unit,
		counts: make([]atomic.Uint64, len(bounds)+1),
	}
}

// Observe records one value in raw units.
func (h *Histogram) Observe(v uint64) {
	if h == nil {
		return
	}
	i := 0
	// Linear scan: bucket counts are ~20 and the loop is branch-predictor
	// friendly; binary search costs more below ~64 buckets.
	for i < len(h.bounds) && v > h.bounds[i] {
		i++
	}
	h.counts[i].Add(1)
	h.sum.Add(v)
}

// ObserveDuration records a duration; the histogram's raw unit is
// nanoseconds by convention for latency metrics.
func (h *Histogram) ObserveDuration(d time.Duration) {
	if h == nil {
		return
	}
	if d < 0 {
		d = 0
	}
	h.Observe(uint64(d.Nanoseconds()))
}

// Bucket is one cumulative histogram bucket in exposition units.
type Bucket struct {
	UpperBound float64 `json:"le"` // +Inf encoded as math.Inf(1)
	Count      uint64  `json:"count"`
}

// MarshalJSON encodes the +Inf bound as the string "+Inf" (JSON numbers
// cannot represent infinity; encoding/json would otherwise error out on
// every snapshot containing the overflow bucket).
func (b Bucket) MarshalJSON() ([]byte, error) {
	le := any(b.UpperBound)
	if math.IsInf(b.UpperBound, 1) {
		le = "+Inf"
	}
	return json.Marshal(struct {
		Le    any    `json:"le"`
		Count uint64 `json:"count"`
	}{le, b.Count})
}

// UnmarshalJSON accepts both the numeric and the "+Inf" encodings.
func (b *Bucket) UnmarshalJSON(data []byte) error {
	var raw struct {
		Le    any    `json:"le"`
		Count uint64 `json:"count"`
	}
	if err := json.Unmarshal(data, &raw); err != nil {
		return err
	}
	switch le := raw.Le.(type) {
	case float64:
		b.UpperBound = le
	case string:
		if le != "+Inf" {
			return fmt.Errorf("telemetry: bucket bound %q", le)
		}
		b.UpperBound = math.Inf(1)
	default:
		return fmt.Errorf("telemetry: bucket bound %T", raw.Le)
	}
	b.Count = raw.Count
	return nil
}

// HistogramSnapshot is a plain-value copy of a histogram, in exposition
// units (seconds for latency histograms).
type HistogramSnapshot struct {
	Count   uint64   `json:"count"`
	Sum     float64  `json:"sum"`
	Buckets []Bucket `json:"buckets,omitempty"`
}

// Snapshot copies the current state. Buckets are cumulative, matching
// the Prometheus exposition semantics.
func (h *Histogram) Snapshot() HistogramSnapshot {
	if h == nil {
		return HistogramSnapshot{}
	}
	var s HistogramSnapshot
	var cum uint64
	for i := range h.counts {
		cum += h.counts[i].Load()
		ub := math.Inf(1)
		if i < len(h.bounds) {
			ub = float64(h.bounds[i]) / h.unit
		}
		s.Buckets = append(s.Buckets, Bucket{UpperBound: ub, Count: cum})
	}
	s.Count = cum
	s.Sum = float64(h.sum.Load()) / h.unit
	return s
}

// Quantile estimates the q-quantile (0 < q <= 1) from the cumulative
// buckets with linear interpolation inside the target bucket — the same
// estimate Prometheus's histogram_quantile computes. Returns 0 for an
// empty histogram; the highest finite bound when the quantile lands in
// the +Inf bucket.
func (s HistogramSnapshot) Quantile(q float64) float64 {
	if s.Count == 0 || len(s.Buckets) == 0 {
		return 0
	}
	rank := q * float64(s.Count)
	for i, b := range s.Buckets {
		if float64(b.Count) < rank {
			continue
		}
		if math.IsInf(b.UpperBound, 1) {
			// Off the top: report the largest finite bound.
			if i > 0 {
				return s.Buckets[i-1].UpperBound
			}
			return 0
		}
		lower, prevCount := 0.0, uint64(0)
		if i > 0 {
			lower = s.Buckets[i-1].UpperBound
			prevCount = s.Buckets[i-1].Count
		}
		width := float64(b.Count - prevCount)
		if width == 0 {
			return b.UpperBound
		}
		return lower + (b.UpperBound-lower)*(rank-float64(prevCount))/width
	}
	return s.Buckets[len(s.Buckets)-1].UpperBound
}

// writePrometheus renders the histogram's _bucket/_sum/_count series.
func (h *Histogram) writePrometheus(w *strings.Builder, name, labels string) {
	snap := h.Snapshot()
	sep := ""
	if labels != "" {
		sep = labels + ","
	}
	for _, b := range snap.Buckets {
		le := "+Inf"
		if !math.IsInf(b.UpperBound, 1) {
			le = fmt.Sprintf("%g", b.UpperBound)
		}
		fmt.Fprintf(w, "%s_bucket{%sle=%q} %d\n", name, sep, le, b.Count)
	}
	fmt.Fprintf(w, "%s %g\n", seriesName(name+"_sum", labels), snap.Sum)
	fmt.Fprintf(w, "%s %d\n", seriesName(name+"_count", labels), snap.Count)
}
