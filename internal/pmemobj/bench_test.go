package pmemobj

import (
	"testing"

	"poseidon/internal/pmem"
)

// BenchmarkSnapshotManyRanges is the bulk-load shape: one transaction
// snapshotting 4096 disjoint ranges. Each Snapshot asks whether an earlier
// one covers it, which was a scan over all of them — quadratic in the
// transaction — and allocated a copy buffer.
func BenchmarkSnapshotManyRanges(b *testing.B) {
	const ranges = 4096
	dev := pmem.New(pmem.Config{Name: "b", Size: 4 << 20, Persistent: true})
	p, err := Create(dev, Options{LogCap: 1 << 20})
	if err != nil {
		b.Fatal(err)
	}
	defer p.Close()
	area, err := p.Alloc(ranges * 64)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		err := p.RunTx(func(tx *Tx) error {
			for r := uint64(0); r < ranges; r++ {
				if err := tx.Snapshot(area+r*64, 24); err != nil {
					return err
				}
			}
			return nil
		})
		if err != nil {
			b.Fatal(err)
		}
	}
}
