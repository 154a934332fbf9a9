//go:build crashmutate

package core

import "os"

// Crashmutate builds can compile a deliberate crash-consistency bug into
// the commit's plan, so the crash-point explorer (internal/crashx) can
// show that it catches a commit that does not make its inserts durable.
// It is active only when POSEIDON_MUTATE selects it:
//
//	insertbit — planGroup leaves an inserted record's occupancy-bitmap
//	            word out of the commit's undo ranges. The bit set at op
//	            time is then never flushed, so a crash after the commit
//	            point loses a committed record: a node's adjacency list
//	            names a relationship whose slot is free again.
//
// Never set this tag outside those tests.
func mutateInsertBit() bool { return os.Getenv("POSEIDON_MUTATE") == "insertbit" }
