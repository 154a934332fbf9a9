// Package core is the paper's primary contribution: a transactional
// property-graph engine for persistent memory (§4 storage model, §5 MVTO
// transaction processing) with hybrid DRAM/PMem storage management.
//
// The engine stores nodes, relationships and properties in chunked PMem
// tables (package storage), encodes strings through a persistent
// dictionary (package dict), accelerates property lookups with hybrid
// B+-trees (package index) and provides snapshot-isolated multi-version
// timestamp-ordering (MVTO) transactions whose uncommitted state lives
// entirely in DRAM (§5.2, DG1/DG2).
package core

import (
	"errors"
	"fmt"

	"poseidon/internal/storage"
)

// Mode selects the storage medium of the engine, matching the paper's
// evaluation variants.
type Mode int

// Engine modes.
const (
	// PMem keeps the primary data in simulated persistent memory with
	// Optane-like latencies; the engine survives Crash.
	PMem Mode = iota
	// DRAM is the paper's dram baseline: the same engine bit-for-bit, on
	// a volatile zero-latency device.
	DRAM
)

func (m Mode) String() string {
	if m == DRAM {
		return "dram"
	}
	return "pmem"
}

// Infinity is the end timestamp of a live object version.
const Infinity = ^uint64(0)

// Common errors. Transaction aborts wrap ErrAborted; callers typically
// retry the transaction.
var (
	ErrAborted   = errors.New("core: transaction aborted")
	ErrNotFound  = errors.New("core: object not found")
	ErrTxDone    = errors.New("core: transaction already finished")
	ErrHasRels   = errors.New("core: node still has relationships")
	ErrBadConfig = errors.New("core: invalid configuration")
	// ErrBulkLoad: a BulkLoader bypasses the MVTO locks, so loaders and
	// transactions exclude each other (see Engine.NewBulkLoader).
	ErrBulkLoad = errors.New("core: bulk loader and transactions cannot run concurrently")
)

// AbortReason classifies why an MVTO transaction aborted, mirroring the
// protocol's distinct failure modes (§5.1).
type AbortReason uint8

// Abort reasons, in telemetry label order.
const (
	// AbortExplicit: the caller rolled back a transaction that had
	// performed writes, with no protocol failure. (Rolling back a
	// read-only transaction is normal query cleanup, not an abort.)
	AbortExplicit AbortReason = iota
	// AbortWriteConflict: a write-write conflict — the record was locked
	// by another writer, deleted by, or rewritten by a newer transaction.
	AbortWriteConflict
	// AbortValidation: MVTO read-path validation failed — the record was
	// locked while being read, or its rts shows a newer reader that
	// forbids this writer (§5.1 write rule).
	AbortValidation
	// AbortCancelled: the attached context was cancelled mid-transaction.
	AbortCancelled
	// AbortCommitFailed: the persistent commit transaction itself failed
	// (undo log overflow, allocation failure) and rolled back.
	AbortCommitFailed

	// NumAbortReasons is the number of distinct reasons (for per-reason
	// counter arrays).
	NumAbortReasons = int(AbortCommitFailed) + 1
)

func (r AbortReason) String() string {
	switch r {
	case AbortExplicit:
		return "explicit"
	case AbortWriteConflict:
		return "write_conflict"
	case AbortValidation:
		return "validation"
	case AbortCancelled:
		return "cancelled"
	case AbortCommitFailed:
		return "commit_failed"
	}
	return "unknown"
}

// AbortError is the error returned when the MVTO protocol aborts a
// transaction. It wraps ErrAborted, so errors.Is(err, ErrAborted)
// continues to hold, and carries the machine-readable reason.
type AbortError struct {
	Reason AbortReason
	msg    string
}

func (e *AbortError) Error() string { return ErrAborted.Error() + ": " + e.msg }

// Unwrap makes errors.Is(err, ErrAborted) true for abort errors.
func (e *AbortError) Unwrap() error { return ErrAborted }

// ReasonOf extracts the abort reason from an error chain. ok is false
// when err is not a classified abort.
func ReasonOf(err error) (AbortReason, bool) {
	var ae *AbortError
	if errors.As(err, &ae) {
		return ae.Reason, true
	}
	return 0, false
}

// abortf builds an abort error with a classified reason.
func abortf(reason AbortReason, format string, args ...any) error {
	return &AbortError{Reason: reason, msg: fmt.Sprintf(format, args...)}
}

// objKind names a record kind. Per-kind engine state (record tables,
// label mirrors, each shard's version chains and rts sidecars) sits in
// arrays indexed by it, and the MVTO protocol steps are written once over
// both kinds (tx.go).
type objKind uint8

const (
	kindNode objKind = iota
	kindRel
	numKinds
)

// Both record kinds carry the MVTO header at the same offsets, so the
// shared protocol steps address it by the node names (storage.NTxnID,
// NBts, NEts, NLabel, NFlags) whatever the kind. This fails to compile
// ("constant overflows") once a layout change moves either header.
const _ = -uint((storage.NTxnID ^ storage.RTxnID) | (storage.NBts ^ storage.RBts) |
	(storage.NEts ^ storage.REts) | (storage.NLabel ^ storage.RLabel) | (storage.NFlags ^ storage.RFlags))

func (k objKind) String() string {
	if k == kindNode {
		return "node"
	}
	return "relationship"
}

type objKey struct {
	kind objKind
	id   uint64
}
