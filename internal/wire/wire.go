// Package wire implements poseidond's framed binary protocol: a small
// Bolt-like request/response protocol carrying prepared-statement
// execution over any byte stream (TCP in production, net.Pipe in tests).
//
// A connection starts with a fixed-size handshake — a 4-byte magic
// followed by four candidate protocol versions, answered by the server's
// single chosen version — and then carries a sequence of messages in
// both directions. Each message is one type byte followed by a chunked
// body: a run of [uint16 length][payload] chunks terminated by a
// zero-length chunk. Chunking bounds what either side must buffer,
// lets large record batches stream without a length-prefix for the
// whole message, and gives the decoder a hard incremental cap
// (MaxMessage) so a hostile length field can never force a giant
// allocation.
//
// The request vocabulary mirrors the public Session API:
//
//	HELLO     open the connection's session (user agent, default mode)
//	PREPARE   parse/plan a statement once, returning a connection-local id
//	RUN       execute a prepared or ad-hoc statement (auto-commit or in tx);
//	          with the pull-all entry (v3) the response carries the result
//	PULL n    stream up to n records of the open result (n<0 = all)
//	DISCARD   drop the rest of the open result
//	BEGIN     start an explicit transaction owned by the connection
//	COMMIT    commit it
//	ROLLBACK  abort it
//	RESET     abandon any open result and transaction
//	GOODBYE   close cleanly
//
// The server answers every request with SUCCESS (plus zero or more
// RECORD frames before the SUCCESS that ends a PULL, or a pull-all RUN)
// or with a typed
// ERROR carrying a machine-readable code (see the Code* constants);
// QUEUE_FULL and DRAINING are the admission-control shed signals
// clients are expected to handle by backing off or reconnecting.
package wire

import "errors"

// Magic opens every connection ("PSDN"). A server reading anything else
// closes immediately — it is not a poseidon client.
var Magic = [4]byte{'P', 'S', 'D', 'N'}

// Version1 is the original protocol version. The handshake carries
// four candidate slots so clients can offer a preference list.
const Version1 uint32 = 1

// Version2 adds the optional trace-context metadata entry on HELLO and
// RUN bodies (see TraceContext). The frame and value encodings are
// unchanged; a v1 peer never sees the entry because clients only emit
// it after negotiating v2.
const Version2 uint32 = 2

// Version3 adds the optional pull-all metadata entry on RUN (see
// Run.PullAll): the server answers such a RUN with the whole result —
// RECORDs, then the SUCCESS or ERROR that ends it — so a statement is
// one request and one response instead of RUN, then PULL.
const Version3 uint32 = 3

// LatestVersion is the highest version this build speaks; clients offer
// [LatestVersion … Version1] in preference order.
const LatestVersion = Version3

// MaxMessage caps the accumulated body size of a single message. The
// decoder enforces it incrementally while reading chunks, so a
// malformed or hostile stream can never force an allocation larger
// than one chunk beyond the cap.
const MaxMessage = 4 << 20

// maxChunk is the largest single chunk a writer emits (the uint16
// length field caps it at 64 KiB - 1 anyway).
const maxChunk = 0xFFFF

// Message type bytes. Requests are < 0x70, responses >= 0x70.
const (
	MsgHello    byte = 0x01
	MsgPrepare  byte = 0x02
	MsgRun      byte = 0x03
	MsgPull     byte = 0x04
	MsgDiscard  byte = 0x05
	MsgBegin    byte = 0x06
	MsgCommit   byte = 0x07
	MsgRollback byte = 0x08
	MsgReset    byte = 0x09
	MsgGoodbye  byte = 0x0A

	MsgSuccess byte = 0x70
	MsgRecord  byte = 0x71
	MsgError   byte = 0x7F
)

// MsgName renders a message type for logs and per-type latency series.
func MsgName(t byte) string {
	switch t {
	case MsgHello:
		return "hello"
	case MsgPrepare:
		return "prepare"
	case MsgRun:
		return "run"
	case MsgPull:
		return "pull"
	case MsgDiscard:
		return "discard"
	case MsgBegin:
		return "begin"
	case MsgCommit:
		return "commit"
	case MsgRollback:
		return "rollback"
	case MsgReset:
		return "reset"
	case MsgGoodbye:
		return "goodbye"
	case MsgSuccess:
		return "success"
	case MsgRecord:
		return "record"
	case MsgError:
		return "error"
	}
	return "unknown"
}

// RequestNames lists every request message name in type order — the
// label set of the server's per-message-type latency histograms.
func RequestNames() []string {
	return []string{"hello", "prepare", "run", "pull", "discard",
		"begin", "commit", "rollback", "reset", "goodbye"}
}

// Error codes carried by ERROR frames. They are part of the protocol:
// clients dispatch on them (QUEUE_FULL → back off, DRAINING →
// reconnect elsewhere/later), so they must stay stable.
const (
	// CodeQueueFull: admission control shed the request — the bounded
	// in-flight semaphore and its wait queue were both full.
	CodeQueueFull = "QUEUE_FULL"
	// CodeDraining: the server is shutting down gracefully; it finishes
	// in-flight statements but rejects new RUN/BEGIN requests.
	CodeDraining = "DRAINING"
	// CodeSyntax: the statement failed to parse or plan.
	CodeSyntax = "SYNTAX"
	// CodeConflict: the transaction aborted (MVTO write-write conflict
	// or commit-time validation failure). Safe to retry.
	CodeConflict = "CONFLICT"
	// CodeCancelled: the statement exceeded its deadline or the
	// connection's context was cancelled mid-execution.
	CodeCancelled = "CANCELLED"
	// CodeSessionLimit: the connection's session hit its concurrent
	// transaction bound.
	CodeSessionLimit = "SESSION_LIMIT"
	// CodeProtocol: the client violated the request state machine
	// (e.g. RUN while a result is still streaming, PULL with none).
	CodeProtocol = "PROTOCOL"
	// CodeUnknownStmt: RUN referenced a statement id this connection
	// never prepared (or the server restarted).
	CodeUnknownStmt = "UNKNOWN_STMT"
	// CodeInternal: anything else; the message carries details.
	CodeInternal = "INTERNAL"
)

// Shared decode errors. ErrTooLarge and ErrMalformed are deliberate
// coarse buckets: the fuzz targets assert decoding either succeeds or
// returns one of these (or io errors) — never panics.
var (
	// ErrTooLarge reports a message or value that exceeds MaxMessage
	// (or a nested size field that exceeds what remains of it).
	ErrTooLarge = errors.New("wire: message exceeds size limit")
	// ErrMalformed reports a structurally invalid payload: truncated
	// fields, unknown tags, trailing garbage.
	ErrMalformed = errors.New("wire: malformed message")
	// ErrBadMagic reports a handshake that did not start with Magic.
	ErrBadMagic = errors.New("wire: bad handshake magic")
	// ErrVersionMismatch reports a handshake with no mutually supported
	// version.
	ErrVersionMismatch = errors.New("wire: no mutually supported protocol version")
)
