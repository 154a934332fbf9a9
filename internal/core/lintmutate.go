//go:build lintmutate

// Seeded mutants for poseidonlint's mutation test
// (internal/lint/mutation_test.go). Each function below plants one bug
// from a class a pass is contracted to catch, and every registered pass
// owns at least one; the test loads the module with the lintmutate tag
// and fails if any mutant goes unreported. The tag keeps them out of
// every real build.
package core

import (
	"context"
	"errors"

	"poseidon/internal/pmemobj"
	"poseidon/internal/storage"
	"poseidon/internal/trace"
	"poseidon/internal/wire"
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
	off, ok := e.tables[kindNode].RecordOffset(id)
	if !ok {
		return 0
	}
	rec := storage.ReadNodeRec(e.dev, off)
	return rec.Bts
}

// mutantChainReadBelowBracket brackets the record read the way Tx.read
// does but walks the property chain after the bracket closed, through the
// buffer-appending reader: a commit may by then have freed and recycled
// the chain, and nothing re-checks. seqlock must flag the chain read.
func (e *Engine) mutantChainReadBelowBracket(id uint64, buf []storage.Prop) []storage.Prop {
	off, ok := e.tables[kindNode].RecordOffset(id)
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

// mutantUnflushedEts stamps a node's end timestamp and returns without
// persisting it: a crash after the caller acknowledges the delete leaves
// the node live. flush-discipline must flag the store.
func (e *Engine) mutantUnflushedEts(off, ts uint64) {
	e.dev.WriteU64(off+storage.NEts, ts)
}

// mutantWriteBeforeSnapshot writes a record word inside a transaction
// before snapshotting it, so the undo log holds the new value and an
// abort cannot restore the old one. tx-undo-log must flag the write.
func (e *Engine) mutantWriteBeforeSnapshot(tx *pmemobj.Tx, off, ts uint64) error {
	e.dev.WriteU64(off+storage.NBts, ts)
	return tx.Snapshot(off+storage.NBts, 8)
}

// mutantTornHeader writes three header words of a record in one store,
// outside any transaction: a crash can persist some words and not the
// others. torn-store must flag the store.
func (e *Engine) mutantTornHeader(off, txn, bts, ets uint64) {
	e.dev.WriteWords(off+storage.NTxnID, []uint64{txn, bts, ets})
	e.dev.Persist(off+storage.NTxnID, 24)
}

// mutantFreshContext hands out a context of its own instead of the
// caller's, so cancelling the session no longer stops the work below.
// ctx-threading must flag the construction.
func (e *Engine) mutantFreshContext() context.Context {
	return context.Background()
}

// mutantUncodedWireError builds a wire error with no Code, which a client
// decodes as "" and cannot classify. wirecode must flag the literal.
func (e *Engine) mutantUncodedWireError(err error) *wire.Error {
	return &wire.Error{Message: err.Error()}
}
