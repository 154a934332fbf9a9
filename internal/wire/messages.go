package wire

import (
	"encoding/binary"
	"fmt"
)

// Message is one decoded protocol message. The concrete types below
// are the full vocabulary; DecodeMessage returns exactly one of them.
type Message interface {
	// Type returns the message's wire type byte.
	Type() byte
	// encodeBody appends the message body to buf.
	encodeBody(buf []byte) ([]byte, error)
}

// Hello opens the connection's server-side session.
type Hello struct {
	// UserAgent identifies the client for logs ("poseidon-load/1 run=7").
	UserAgent string
	// Mode is the session's default execution mode (0=interpret,
	// 1=parallel, 2=jit, 3=adaptive).
	Mode uint8
	// Trace is the optional trace-context metadata entry (Version2+).
	// Clients must leave it nil unless the handshake negotiated a
	// version that understands it: a v1 peer rejects the extra bytes
	// as trailing garbage.
	Trace *TraceContext
}

// TraceContext is the propagated request-tracing identity: the trace a
// request belongs to and the client-side span that is its parent. It
// rides HELLO and RUN bodies as an optional tagged metadata entry so
// the encoding stays backward compatible — a body simply ends where a
// v1 body would, or continues with metaTagTrace + 16 bytes.
type TraceContext struct {
	TraceID uint64
	SpanID  uint64
}

// Optional metadata entries follow a body's fixed fields, each opened by
// its tag, in ascending tag order and at most once each. Decoders reject
// a tag they do not know, a repeated entry and entries out of order, so a
// corrupted stream cannot be silently misparsed.
const (
	// metaTagTrace introduces the trace-context entry (HELLO and RUN,
	// Version2+): 16 bytes of trace and span ID.
	metaTagTrace byte = 0x01
	// metaTagPullAll introduces the pull-all entry (RUN only, Version3+).
	// It has no payload: its presence is the flag.
	metaTagPullAll byte = 0x02
)

// Prepare parses and plans a statement once. Text is Cypher, or an
// "ldbc:<name>" workload statement the server resolves from its
// built-in plan registry (e.g. "ldbc:sr2-post", "ldbc:iu6").
type Prepare struct {
	Text string
}

// Run executes a statement. Either StmtID references a previous
// PREPARE on this connection (nonzero), or Text carries an ad-hoc
// statement. Mode overrides the session default unless ModeDefault.
type Run struct {
	StmtID uint32
	Text   string
	Params map[string]any
	Mode   uint8
	// Trace is the optional trace-context metadata entry (Version2+);
	// see Hello.Trace for the compatibility contract.
	Trace *TraceContext
	// PullAll is the optional pull-all metadata entry (Version3+): the
	// server answers with the whole result — a read's RECORDs, then the
	// SUCCESS or ERROR that ends it — instead of SUCCESS{streaming} and
	// an open result to PULL. The same compatibility contract as Trace.
	PullAll bool
}

// ModeDefault in Run.Mode means "use the session's default mode".
const ModeDefault uint8 = 0xFF

// Pull asks for up to N records of the open result; N < 0 means all.
type Pull struct {
	N int64
}

// Discard drops the rest of the open result.
type Discard struct{}

// Begin starts an explicit transaction owned by the connection.
type Begin struct{}

// Commit commits the connection's explicit transaction.
type Commit struct{}

// Rollback aborts the connection's explicit transaction.
type Rollback struct{}

// Reset abandons any open result and transaction, returning the
// connection to its post-HELLO state.
type Reset struct{}

// Goodbye announces a clean close.
type Goodbye struct{}

// Success acknowledges a request. Meta carries request-specific fields:
// PREPARE → "stmt_id", "has_updates"; RUN → "streaming" or
// "rows_affected"/"committed"; PULL → "has_more".
type Success struct {
	Meta map[string]any
}

// Record carries one result row.
type Record struct {
	Values []any
}

// Error reports a failed request. Code is one of the Code* constants.
type Error struct {
	Code    string
	Message string
}

func (e *Error) Error() string { return fmt.Sprintf("%s: %s", e.Code, e.Message) }

func (*Hello) Type() byte    { return MsgHello }
func (*Prepare) Type() byte  { return MsgPrepare }
func (*Run) Type() byte      { return MsgRun }
func (*Pull) Type() byte     { return MsgPull }
func (*Discard) Type() byte  { return MsgDiscard }
func (*Begin) Type() byte    { return MsgBegin }
func (*Commit) Type() byte   { return MsgCommit }
func (*Rollback) Type() byte { return MsgRollback }
func (*Reset) Type() byte    { return MsgReset }
func (*Goodbye) Type() byte  { return MsgGoodbye }
func (*Success) Type() byte  { return MsgSuccess }
func (*Record) Type() byte   { return MsgRecord }
func (*Error) Type() byte    { return MsgError }

func appendString(buf []byte, s string) []byte {
	buf = binary.BigEndian.AppendUint32(buf, uint32(len(s)))
	return append(buf, s...)
}

// appendTraceMeta emits the optional trace-context entry. Encoding is
// versionless on purpose: the version gate lives in the client, which
// only populates Trace after negotiating Version2.
func appendTraceMeta(buf []byte, tc *TraceContext) []byte {
	if tc == nil {
		return buf
	}
	buf = append(buf, metaTagTrace)
	buf = binary.BigEndian.AppendUint64(buf, tc.TraceID)
	return binary.BigEndian.AppendUint64(buf, tc.SpanID)
}

// decodeMeta consumes a body's optional metadata entries, whose tags the
// message knows up to maxTag. No remaining bytes means no entries (the v1
// body shape); anything else must be well-formed entries in ascending tag
// order, each at most once, or the message is malformed.
func decodeMeta(d *decoder, maxTag byte) (tc *TraceContext, pullAll bool, err error) {
	var last byte
	for d.remaining() > 0 {
		tag, _ := d.byte()
		switch {
		case tag == 0 || tag > maxTag:
			return nil, false, fmt.Errorf("%w: unknown metadata tag 0x%02x", ErrMalformed, tag)
		case tag == last:
			return nil, false, fmt.Errorf("%w: duplicate metadata entry 0x%02x", ErrMalformed, tag)
		case tag < last:
			return nil, false, fmt.Errorf("%w: metadata entry 0x%02x out of order", ErrMalformed, tag)
		}
		last = tag
		if tag == metaTagPullAll {
			pullAll = true
			continue
		}
		tc = &TraceContext{}
		if tc.TraceID, err = d.u64(); err != nil {
			return nil, false, fmt.Errorf("%w: truncated trace metadata", ErrMalformed)
		}
		if tc.SpanID, err = d.u64(); err != nil {
			return nil, false, fmt.Errorf("%w: truncated trace metadata", ErrMalformed)
		}
	}
	return tc, pullAll, nil
}

func (m *Hello) encodeBody(buf []byte) ([]byte, error) {
	buf = appendString(buf, m.UserAgent)
	buf = append(buf, m.Mode)
	return appendTraceMeta(buf, m.Trace), nil
}

func (m *Prepare) encodeBody(buf []byte) ([]byte, error) {
	return appendString(buf, m.Text), nil
}

func (m *Run) encodeBody(buf []byte) ([]byte, error) {
	buf = binary.BigEndian.AppendUint32(buf, m.StmtID)
	buf = appendString(buf, m.Text)
	buf = append(buf, m.Mode)
	// A nil map encodes as the empty map.
	buf, err := appendValue(buf, m.Params)
	if err != nil {
		return nil, err
	}
	buf = appendTraceMeta(buf, m.Trace)
	if m.PullAll {
		buf = append(buf, metaTagPullAll)
	}
	return buf, nil
}

func (m *Pull) encodeBody(buf []byte) ([]byte, error) {
	return binary.BigEndian.AppendUint64(buf, uint64(m.N)), nil
}

func (*Discard) encodeBody(buf []byte) ([]byte, error)  { return buf, nil }
func (*Begin) encodeBody(buf []byte) ([]byte, error)    { return buf, nil }
func (*Commit) encodeBody(buf []byte) ([]byte, error)   { return buf, nil }
func (*Rollback) encodeBody(buf []byte) ([]byte, error) { return buf, nil }
func (*Reset) encodeBody(buf []byte) ([]byte, error)    { return buf, nil }
func (*Goodbye) encodeBody(buf []byte) ([]byte, error)  { return buf, nil }

func (m *Success) encodeBody(buf []byte) ([]byte, error) {
	return appendValue(buf, m.Meta) // a nil map encodes as the empty map
}

func (m *Record) encodeBody(buf []byte) ([]byte, error) {
	buf = binary.BigEndian.AppendUint32(buf, uint32(len(m.Values)))
	var err error
	for _, v := range m.Values {
		if buf, err = appendValue(buf, v); err != nil {
			return nil, err
		}
	}
	return buf, nil
}

func (m *Error) encodeBody(buf []byte) ([]byte, error) {
	buf = appendString(buf, m.Code)
	return appendString(buf, m.Message), nil
}

// DecodeMessage decodes a reassembled frame body. It never panics on
// malformed input: every structural violation maps to ErrMalformed or
// ErrTooLarge (the fuzz targets enforce this).
func DecodeMessage(typ byte, body []byte) (Message, error) {
	d := &decoder{buf: body}
	var m Message
	var err error
	switch typ {
	case MsgHello:
		h := &Hello{}
		if h.UserAgent, err = d.str(); err == nil {
			if h.Mode, err = d.byte(); err == nil {
				h.Trace, _, err = decodeMeta(d, metaTagTrace)
			}
		}
		m = h
	case MsgPrepare:
		p := &Prepare{}
		p.Text, err = d.str()
		m = p
	case MsgRun:
		ru := &Run{}
		var id uint32
		if id, err = d.u32(); err == nil {
			ru.StmtID = id
			if ru.Text, err = d.str(); err == nil {
				if ru.Mode, err = d.byte(); err == nil {
					if ru.Params, err = decodeParams(d); err == nil {
						ru.Trace, ru.PullAll, err = decodeMeta(d, metaTagPullAll)
					}
				}
			}
		}
		m = ru
	case MsgPull:
		p := &Pull{}
		var v uint64
		if v, err = d.u64(); err == nil {
			p.N = int64(v)
		}
		m = p
	case MsgDiscard:
		m = &Discard{}
	case MsgBegin:
		m = &Begin{}
	case MsgCommit:
		m = &Commit{}
	case MsgRollback:
		m = &Rollback{}
	case MsgReset:
		m = &Reset{}
	case MsgGoodbye:
		m = &Goodbye{}
	case MsgSuccess:
		s := &Success{}
		s.Meta, err = decodeParams(d)
		m = s
	case MsgRecord:
		rec := &Record{}
		var n uint32
		if n, err = d.u32(); err == nil {
			if int64(n) > int64(d.remaining()) {
				err = fmt.Errorf("%w: record arity %d exceeds remaining %d", ErrTooLarge, n, d.remaining())
			} else {
				rec.Values = make([]any, n)
				for i := range rec.Values {
					if rec.Values[i], err = d.value(maxValueDepth); err != nil {
						break
					}
				}
			}
		}
		m = rec
	case MsgError:
		e := &Error{}
		if e.Code, err = d.str(); err == nil {
			e.Message, err = d.str()
		}
		m = e
	default:
		return nil, fmt.Errorf("%w: unknown message type 0x%02x", ErrMalformed, typ)
	}
	if err != nil {
		return nil, err
	}
	if d.remaining() != 0 {
		return nil, fmt.Errorf("%w: %d trailing bytes after %s", ErrMalformed, d.remaining(), MsgName(typ))
	}
	return m, nil
}

// decodeParams reads a map value and asserts it is a map (params and
// meta positions require one).
func decodeParams(d *decoder) (map[string]any, error) {
	tag, err := d.byte()
	if err != nil {
		return nil, err
	}
	if tag != tagMap {
		return nil, fmt.Errorf("%w: expected map, got tag 0x%02x", ErrMalformed, tag)
	}
	return d.strMap(maxValueDepth)
}
