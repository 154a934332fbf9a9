package pmem

import (
	"sync/atomic"
	"testing"
)

// benchWindow is the region one benchmark goroutine reads: disjoint per
// goroutine, and small enough to stay resident in the simulated cache so
// the loop times the hit path.
const benchWindow = 1 << 20

// newTaxDevice is a PMem-profile device with the read-miss latency zeroed:
// loads still go through range check, counters and cache probe, but never
// spin, so only the simulator's own tax is timed.
func newTaxDevice(windows int) *Device {
	prof := PMemProfile()
	prof.ReadMiss = 0
	return New(Config{
		Name:       "tax",
		Size:       windows * benchWindow,
		Profile:    prof,
		CacheBytes: 4 << 20,
		Persistent: true,
	})
}

var benchSink atomic.Uint64

// readWindow loads one word per line, round and round the window at base.
func readWindow(d *Device, base uint64, next func() bool) {
	var sum uint64
	for off := uint64(0); next(); off = (off + LineSize) % benchWindow {
		sum += d.ReadU64(base + off)
	}
	benchSink.Add(sum)
}

func BenchmarkReadU64(b *testing.B) {
	d := newTaxDevice(1)
	i := 0
	b.ResetTimer()
	readWindow(d, 0, func() bool { i++; return i <= b.N })
}

// BenchmarkReadU64Parallel is the contention guard: ns/op at -cpu 2 must
// not exceed ns/op at -cpu 1, because a cache hit writes nothing shared
// (the probe only loads tags) and the 4 KiB regions of disjoint windows
// hash to the same counter stripe only by chance.
func BenchmarkReadU64Parallel(b *testing.B) {
	const maxWindows = 64
	d := newTaxDevice(maxWindows)
	var nextWindow atomic.Uint64
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		w := nextWindow.Add(1) - 1
		readWindow(d, w%maxWindows*benchWindow, pb.Next)
	})
}

// BenchmarkDrainFresh and BenchmarkDrainAfterLargeEpoch are the barrier
// guard: flush+flush+Drain must cost the same on a device that once ended
// a 1000-block epoch (every bulk load has them) as on a fresh one, and
// allocate nothing. TestBarrierCostIndependentOfHistory asserts the ratio.
func BenchmarkDrainFresh(b *testing.B) {
	d := wcDevice(2 << 20)
	b.ReportAllocs()
	b.ResetTimer()
	barrierLoop(d, b.N)
}

func BenchmarkDrainAfterLargeEpoch(b *testing.B) {
	d := wcDevice(2 << 20)
	largeEpoch(d, 1000)
	b.ReportAllocs()
	b.ResetTimer()
	barrierLoop(d, b.N)
}
