package main

import (
	"context"
	"fmt"
	"sort"
	"strings"
	"time"

	"poseidon"
	"poseidon/internal/diskstore"
	"poseidon/internal/fsck"
	"poseidon/internal/ldbc"
	"poseidon/internal/storage"
)

// checks accumulates the result checks of one workload run. Every
// comparison counts as an attempted op, every mismatch as a failed one.
type checks struct {
	attempted, failed int
	problems          []string

	recover        time.Duration // Crash → Reopen
	fsckViolations int
}

func (c *checks) fail(format string, args ...any) {
	c.failed++
	if len(c.problems) < 10 {
		c.problems = append(c.problems, fmt.Sprintf(format, args...))
	}
}

// checkAgainstDisk runs n sampled short reads at the workload's top rung
// and compares every row count with what the disk baseline — a second,
// independent implementation of the same queries over its own copy of
// the dataset — returns. On the unindexed workload the rows must also
// equal the indexed plan's rows. Runs before any insert.
func (c *checks) checkAgainstDisk(ctx context.Context, e *env, r *runner, seed int64, n int) error {
	disk := diskstore.Open(diskstore.Config{Lat: &diskstore.Latencies{}})
	e.ds.LoadDisk(disk)
	dtx := disk.Begin()
	defer dtx.Abort()

	var indexed []*poseidon.Stmt
	var sess *poseidon.Session
	if !e.w.indexed {
		sess = e.db.NewSession(poseidon.SessionConfig{})
		defer sess.Close()
		for _, q := range e.srQ {
			plan, err := ldbc.SRPlan(q, true)
			if err != nil {
				return err
			}
			st, err := e.db.PreparePlan(plan)
			if err != nil {
				return err
			}
			indexed = append(indexed, st)
		}
	}

	g := newOpGen(e, seed, 0)
	g.srOf5 = 5
	for i := 0; i < n; i++ {
		o := g.next()
		name := "sr" + e.srQ[o.qi].Name()
		c.attempted++
		rows, got, err := r.fetch(ctx, o)
		if err != nil {
			c.fail("check %s %v: %v", name, o.params, err)
			continue
		}
		want, err := ldbc.RunSRDisk(dtx, e.srQ[o.qi], o.params)
		if err != nil {
			return fmt.Errorf("disk baseline %s: %w", name, err)
		}
		if got != want {
			c.fail("check %s %v: %d rows, disk baseline has %d", name, o.params, got, want)
			continue
		}
		if indexed != nil {
			ref, err := sess.QueryAll(ctx, indexed[o.qi], o.params)
			if err != nil {
				return fmt.Errorf("indexed reference %s: %w", name, err)
			}
			if !sameRows(rows, ref) {
				c.fail("check %s %v: scan rows differ from the indexed plan's rows", name, o.params)
			}
		}
	}
	return nil
}

// sameRows compares two results as multisets: ORDER BY ties may come out
// in either order.
func sameRows(a, b [][]any) bool {
	if len(a) != len(b) {
		return false
	}
	key := func(rows [][]any) string {
		s := make([]string, len(rows))
		for i, r := range rows {
			s[i] = fmt.Sprint(r...)
		}
		sort.Strings(s)
		return strings.Join(s, "\n")
	}
	return key(a) == key(b)
}

// checkGrowth compares the graph's growth since setup with what the
// acknowledged inserts of every phase imply.
func (c *checks) checkGrowth(e *env, baseNodes, baseRels uint64, phases ...*tally) []inserted {
	var nodes, rels int
	var recent []inserted
	for _, t := range phases {
		nodes += t.nodes
		rels += t.rels
		recent = append(recent, t.recent...)
	}
	c.attempted++
	gotN, gotR := int(e.db.NodeCount()-baseNodes), int(e.db.RelCount()-baseRels)
	if gotN != nodes || gotR != rels {
		c.fail("graph grew by %d nodes / %d rels, acknowledged inserts imply %d / %d", gotN, gotR, nodes, rels)
	}
	if len(recent) > 100 {
		recent = recent[len(recent)-100:]
	}
	return recent
}

// checkDurability is the power-failure test: crash the device (which
// discards every store not flushed), recover, verify the image with fsck
// and read the most recent acknowledged inserts back by id. It consumes
// e.db.
func (c *checks) checkDurability(e *env, recent []inserted) error {
	dev := e.db.Crash()
	e.db = nil
	t0 := time.Now()
	db, err := poseidon.Reopen(dev, e.cfg)
	if err != nil {
		return fmt.Errorf("reopen after crash: %w", err)
	}
	c.recover = time.Since(t0)
	defer db.Close()

	c.attempted++
	rep := fsck.Check(db.Engine())
	c.fsckViolations = len(rep.Violations)
	if !rep.OK() {
		c.fail("after crash: %s", rep)
	}

	tx := db.Begin()
	defer tx.Abort()
	for _, in := range recent {
		c.attempted++
		ref, ok := db.Engine().IndexFor(in.label, "id")
		if !ok {
			c.fail("after crash: index %s.id is gone", in.label)
			continue
		}
		snaps, err := tx.IndexedLookup(ref, storage.IntValue(in.id))
		if err != nil || len(snaps) != 1 {
			c.fail("after crash: acknowledged %s id=%d reads back as %d nodes (%v)", in.label, in.id, len(snaps), err)
		}
	}
	return nil
}
