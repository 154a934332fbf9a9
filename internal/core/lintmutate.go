//go:build lintmutate

// Seeded concurrency-discipline mutants for poseidonlint's mutation
// test (internal/lint/mutation_test.go). Each function below plants one
// bug from a race class the analyzer is contracted to catch; the test
// loads the module with the lintmutate tag and fails if any mutant goes
// unreported. The tag keeps them out of every real build.
package core

import (
	"context"
	"errors"

	"poseidon/internal/storage"
	"poseidon/internal/trace"
)

var errMutate = errors.New("lintmutate")

// mutantDescendingLocks takes two shard commit locks directly, in
// whatever order the caller picked — the deadlock the lockShards
// protocol (ascending, TryLock-first) exists to prevent. lockorder must
// flag the second acquisition.
func (e *Engine) mutantDescendingLocks(a, b int) {
	e.shards[b].commitMu.Lock()
	e.shards[a].commitMu.Lock()
	e.shards[a].commitMu.Unlock()
	e.shards[b].commitMu.Unlock()
}

// mutantUnbracketedRead reads a node record with no Bts/Ets snapshot
// bracket, no TxnID pin, and no commit lock: a concurrent committer can
// hand it a torn record. seqlock must flag the read.
func (e *Engine) mutantUnbracketedRead(id uint64) uint64 {
	off, ok := e.nodes.RecordOffset(id)
	if !ok {
		return 0
	}
	rec := storage.ReadNodeRec(e.dev, off)
	return rec.Bts
}

// mutantChainReadBelowBracket brackets the record read the way readNode
// does but walks the property chain after the bracket closed, through the
// buffer-appending reader: a commit may by then have freed and recycled
// the chain, and nothing re-checks. seqlock must flag the chain read.
func (e *Engine) mutantChainReadBelowBracket(id uint64, buf []storage.Prop) []storage.Prop {
	off, ok := e.nodes.RecordOffset(id)
	if !ok {
		return nil
	}
	var rec storage.NodeRec
	for {
		bts1 := e.dev.ReadU64(off + storage.NBts)
		ets1 := e.dev.ReadU64(off + storage.NEts)
		rec = storage.ReadNodeRec(e.dev, off)
		if e.dev.ReadU64(off+storage.NTxnID) == 0 &&
			e.dev.ReadU64(off+storage.NBts) == bts1 && e.dev.ReadU64(off+storage.NEts) == ets1 {
			break
		}
	}
	props, _ := storage.ReadPropChainInto(e.props, rec.Props, buf, maxPropWalk)
	return props
}

// mutantLeakedSpan returns on the error path without ending the span it
// started, so the span never exports and later children mis-parent.
// lifecycle must flag the creation.
func (e *Engine) mutantLeakedSpan(ctx context.Context, fail bool) error {
	_, sp := trace.StartSpan(ctx, "core.mutant", trace.KindExec)
	if fail {
		return errMutate
	}
	sp.End()
	return nil
}
