package main

import (
	"math"
	"sort"
	"time"

	"poseidon/internal/pmem"
)

// percentile returns the nearest-rank p-th percentile (0 < p <= 1) of
// samples. It sorts a copy; an empty input gives 0.
func percentile(samples []float64, p float64) float64 {
	if len(samples) == 0 {
		return 0
	}
	s := append([]float64(nil), samples...)
	sort.Float64s(s)
	i := int(math.Ceil(p*float64(len(s)))) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(s) {
		i = len(s) - 1
	}
	return s[i]
}

// median returns the middle value (mean of the two middle values for an
// even count). Timing metrics are the median over trials of the
// per-trial value.
func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	if n := len(s); n%2 == 1 {
		return s[n/2]
	} else {
		return (s[n/2-1] + s[n/2]) / 2
	}
}

func mean(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range v {
		sum += x
	}
	return sum / float64(len(v))
}

// spread is the interquartile range as a share of the median — the same
// steadiness figure the driver computes over repeated runs.
func spread(v []float64) float64 {
	if len(v) < 2 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	m := median(s)
	if m == 0 {
		return 0
	}
	return (quantile(s, 0.75) - quantile(s, 0.25)) / math.Abs(m)
}

// quantile interpolates like Python's statistics.quantiles (exclusive
// method) on sorted input.
func quantile(sorted []float64, q float64) float64 {
	n := len(sorted)
	pos := q*float64(n+1) - 1
	if pos <= 0 {
		return sorted[0]
	}
	if pos >= float64(n-1) {
		return sorted[n-1]
	}
	lo := int(pos)
	return sorted[lo] + (pos-float64(lo))*(sorted[lo+1]-sorted[lo])
}

// deviceModel is the modelled PMem time for a counter delta under a
// latency profile: what the simulator's spin-waits add up to, computed
// from counts so it does not depend on the host's clock.
//
//	misses·ReadMiss + blockWrites·WriteBlock
//	  + (lineFlushes − blockWrites)·FlushLine + drains·Drain
func deviceModel(d pmem.StatsSnapshot, p pmem.Profile) time.Duration {
	marginal := uint64(0)
	if d.LineFlushes > d.BlockWrites {
		marginal = d.LineFlushes - d.BlockWrites
	}
	return time.Duration(d.CacheMisses)*p.ReadMiss +
		time.Duration(d.BlockWrites)*p.WriteBlock +
		time.Duration(marginal)*p.FlushLine +
		time.Duration(d.Drains)*p.Drain
}

func perOp(total float64, ops int) float64 {
	if ops == 0 {
		return 0
	}
	return total / float64(ops)
}

func frac(part, whole float64) float64 {
	if whole == 0 {
		return 0
	}
	return part / whole
}

func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }
