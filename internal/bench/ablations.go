package bench

import (
	"fmt"

	"poseidon/internal/pmem"
	"poseidon/internal/pmemobj"
	"poseidon/internal/storage"
)

// buildLinkedChain lays out a hops-long chain of 64-byte blocks linked
// both ways the DG6 ablation compares: an 8-byte next offset at +0 and a
// 16-byte persistent pointer at +8. Every block is persisted before the
// chain is returned, so readers (and crash recovery) see all hops.
func buildLinkedChain(dev *pmem.Device, pool *pmemobj.Pool, hops int) ([]uint64, error) {
	offs, err := pool.GroupAlloc(hops, 64)
	if err != nil {
		return nil, err
	}
	for i, off := range offs {
		next := uint64(0)
		if i+1 < hops {
			next = offs[i+1]
		}
		dev.WriteU64(off, next) // 8B offset
		//poseidonlint:ignore torn-store benchmark chain setup, fully persisted below before any reader; discarded after the run
		pool.WritePPtr(off+8, pmemobj.PPtr{Pool: pool.UUID(), Off: next}) // 16B pptr
	}
	// Allocated blocks carry a header and line-alignment padding, so the
	// chain spans [offs[0], offs[last]+64), strictly more than 64*hops
	// bytes; persisting only 64*hops left the tail of the chain unflushed
	// (caught by the pmem strict-flush checker).
	dev.Persist(offs[0], offs[len(offs)-1]+64-offs[0])
	return offs, nil
}

// Ablations quantifies the design decisions DESIGN.md calls out, each as
// a pair of variants (the chosen design vs. the alternative the paper's
// design goals reject). All numbers are averages in microseconds.
func (s *Setup) Ablations() (*Table, error) {
	t := &Table{
		Name:    "Ablations: design decisions (us per operation batch)",
		Columns: []string{"chosen", "alternative", "factor"},
		Notes: []string{
			"dirty-versions:   DG1/DG2  version copies in DRAM vs persisted to PMem at write time",
			"offset-links:     DG6      8B-offset hops vs 16B persistent-pointer dereference per hop",
			"group-alloc:      DG5      one 64-block group allocation vs 64 single allocations",
			"atomic-commit:    DG4      undo-logged failure-atomic commit vs unlogged writes (unsafe)",
			"commit-mechanism: §5.1     PMDK-style undo-log tx vs PMwCAS for a 4-word atomic flip",
			"aligned-chunks:   DG3      256B-aligned record flushes vs block-straddling flushes",
		},
	}
	runs := s.Opts.Runs * 10

	add := func(name string, chosen, alt Dist) {
		row := TableRow{Query: name}
		row.set("chosen", chosen)
		row.set("alternative", alt)
		if chosen.Mean > 0 {
			row.Cells["factor"] = alt.Mean / chosen.Mean
		}
		t.Rows = append(t.Rows, row)
	}

	// --- DG1/DG2: dirty versions in DRAM vs in PMem ---
	// The §5.2 design keeps every uncommitted version in DRAM; the
	// rejected alternative persists each version copy at write time.
	{
		pdev := pmem.NewPMem(8 << 20)
		ddev := pmem.NewDRAM(8 << 20)
		const versions = 64
		words := make([]uint64, storage.NodeRecordSize/8)
		dram, err := measure(runs, func(int) error {
			for v := uint64(0); v < versions; v++ {
				ddev.WriteWords(v*64, words)
			}
			return nil
		})
		if err != nil {
			return nil, err
		}
		pmemT, err := measure(runs, func(int) error {
			for v := uint64(0); v < versions; v++ {
				//poseidonlint:ignore torn-store ablation of the rejected persist-at-write-time design; scratch benchmark data, never read back
				pdev.WriteWords(v*64, words)
				pdev.Flush(v*64, storage.NodeRecordSize)
			}
			pdev.Drain()
			return nil
		})
		if err != nil {
			return nil, err
		}
		add("dirty-versions", dram, pmemT)
	}

	// --- DG6: offset links vs persistent-pointer dereference ---
	{
		dev := pmem.NewPMem(16 << 20)
		pool, err := pmemobj.Create(dev, pmemobj.Options{})
		if err != nil {
			return nil, err
		}
		defer pool.Close()
		// A 256-hop chain stored both ways: 8-byte next offsets and
		// 16-byte persistent pointers.
		const hops = 256
		offs, err := buildLinkedChain(dev, pool, hops)
		if err != nil {
			return nil, err
		}

		offsets, err := measure(runs, func(int) error {
			cur := offs[0]
			for cur != 0 {
				cur = dev.ReadU64(cur)
			}
			return nil
		})
		if err != nil {
			return nil, err
		}
		pptrs, err := measure(runs, func(int) error {
			cur := offs[0]
			for cur != 0 {
				pp := pool.ReadPPtr(cur + 8)
				if pp.Off == 0 {
					break
				}
				_, off, err := pmemobj.Resolve(pp)
				if err != nil {
					return err
				}
				cur = off
			}
			return nil
		})
		if err != nil {
			return nil, err
		}
		add("offset-links", offsets, pptrs)
	}

	// --- DG5: group allocation vs single allocations ---
	{
		mk := func() (*pmemobj.Pool, error) {
			dev := pmem.NewPMem(256 << 20)
			return pmemobj.Create(dev, pmemobj.Options{})
		}
		p1, err := mk()
		if err != nil {
			return nil, err
		}
		defer p1.Close()
		group, err := measure(runs, func(int) error {
			_, err := p1.GroupAlloc(64, 64)
			return err
		})
		if err != nil {
			return nil, err
		}
		p2, err := mk()
		if err != nil {
			return nil, err
		}
		defer p2.Close()
		single, err := measure(runs, func(int) error {
			for i := 0; i < 64; i++ {
				if _, err := p2.Alloc(64); err != nil {
					return err
				}
			}
			return nil
		})
		if err != nil {
			return nil, err
		}
		add("group-alloc", group, single)
	}

	// --- DG4: undo-logged atomic commit vs raw writes ---
	// The "alternative" here is cheaper but NOT crash-safe; the row
	// quantifies what failure atomicity costs (the §5.1 "small overhead").
	{
		dev := pmem.NewPMem(16 << 20)
		pool, err := pmemobj.Create(dev, pmemobj.Options{})
		if err != nil {
			return nil, err
		}
		defer pool.Close()
		off, err := pool.Alloc(4096)
		if err != nil {
			return nil, err
		}
		logged, err := measure(runs, func(i int) error {
			return pool.RunTx(func(tx *pmemobj.Tx) error {
				for r := uint64(0); r < 8; r++ {
					if err := tx.Snapshot(off+r*72, 72); err != nil {
						return err
					}
					dev.WriteU64(off+r*72, uint64(i))
				}
				return nil
			})
		})
		if err != nil {
			return nil, err
		}
		raw, err := measure(runs, func(i int) error {
			for r := uint64(0); r < 8; r++ {
				dev.WriteU64(off+r*72, uint64(i))
				dev.Flush(off+r*72, 72)
			}
			dev.Drain()
			return nil
		})
		if err != nil {
			return nil, err
		}
		// Note the inversion: "chosen" costs MORE; the factor shows the
		// price of crash consistency.
		add("atomic-commit", logged, raw)
	}

	// --- §5.1 alternatives: PMDK-style undo-log tx vs PMwCAS ---
	// Both make a multi-word record-header flip failure-atomic; the paper
	// chose PMDK "for the sake of simplicity" and names PMwCAS as the
	// alternative. "chosen" = undo-log tx, "alternative" = MWCAS.
	{
		dev := pmem.NewPMem(16 << 20)
		pool, err := pmemobj.Create(dev, pmemobj.Options{})
		if err != nil {
			return nil, err
		}
		defer pool.Close()
		off, err := pool.Alloc(256)
		if err != nil {
			return nil, err
		}
		val := uint64(0)
		undoLog, err := measure(runs, func(int) error {
			return pool.RunTx(func(tx *pmemobj.Tx) error {
				for w := uint64(0); w < 4; w++ {
					if err := tx.Snapshot(off+w*8, 8); err != nil {
						return err
					}
					dev.WriteU64(off+w*8, val+w+1)
				}
				val++
				return nil
			})
		})
		if err != nil {
			return nil, err
		}
		dev2 := pmem.NewPMem(16 << 20)
		pool2, err := pmemobj.Create(dev2, pmemobj.Options{})
		if err != nil {
			return nil, err
		}
		defer pool2.Close()
		off2, err := pool2.Alloc(256)
		if err != nil {
			return nil, err
		}
		val = 0
		mwcas, err := measure(runs, func(int) error {
			entries := make([]pmemobj.CASEntry, 4)
			for w := uint64(0); w < 4; w++ {
				cur := dev2.ReadU64(off2 + w*8)
				entries[w] = pmemobj.CASEntry{Off: off2 + w*8, Old: cur, New: val + w + 1}
			}
			val++
			ok, err := pool2.MWCAS(entries)
			if err != nil {
				return err
			}
			if !ok {
				return fmt.Errorf("bench: MWCAS unexpectedly failed")
			}
			return nil
		})
		if err != nil {
			return nil, err
		}
		add("commit-mechanism", undoLog, mwcas)
	}

	// --- DG3: 256-byte-aligned access vs straddling blocks ---
	{
		dev := pmem.NewPMem(16 << 20)
		const recs = 64
		aligned, err := measure(runs, func(int) error {
			for r := uint64(0); r < recs; r++ {
				base := r * 256 // one 256B block per record
				dev.WriteU64(base, r)
				dev.Flush(base, 64)
			}
			dev.Drain()
			return nil
		})
		if err != nil {
			return nil, err
		}
		before := dev.Stats.Snapshot()
		straddle, err := measure(runs, func(int) error {
			for r := uint64(0); r < recs; r++ {
				base := 200 + r*256 // every flush straddles two blocks
				dev.WriteU64(base, r)
				dev.Flush(base, 128)
			}
			dev.Drain()
			return nil
		})
		if err != nil {
			return nil, err
		}
		delta := dev.Stats.Snapshot().Sub(before)
		t.Notes = append(t.Notes, fmt.Sprintf(
			"aligned-chunks detail: straddling run issued %d block writes for %d record flushes",
			delta.BlockWrites, runs*recs))
		add("aligned-chunks", aligned, straddle)
	}

	return t, nil
}
