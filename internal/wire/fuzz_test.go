package wire

import (
	"bytes"
	"errors"
	"io"
	"testing"
)

// seedFrames returns well-formed encodings of every message type, so
// the fuzzers start from the interesting part of the input space.
func seedFrames() [][]byte {
	msgs := []Message{
		&Hello{UserAgent: "fuzz/1", Mode: 3},
		&Hello{UserAgent: "fuzz/2", Mode: 0, Trace: &TraceContext{TraceID: 0x1122334455667788, SpanID: 0x99aabbccddeeff00}},
		&Prepare{Text: "MATCH (p:Person) RETURN p.name"},
		&Run{StmtID: 1, Mode: ModeDefault, Params: map[string]any{"id": int64(7), "s": "x"}},
		&Run{Text: "ldbc:iu2", Params: map[string]any{"nested": []any{map[string]any{"k": int64(1)}}}},
		&Run{StmtID: 2, Mode: 1, Params: map[string]any{}, Trace: &TraceContext{TraceID: 0xdeadbeef, SpanID: 0xcafe}},
		&Run{Text: "ldbc:sr2-post", Mode: ModeDefault, Params: map[string]any{"id": int64(9)}, PullAll: true},
		&Run{StmtID: 3, Mode: 2, Params: map[string]any{}, Trace: &TraceContext{TraceID: 1, SpanID: 2}, PullAll: true},
		&Pull{N: -1},
		&Discard{}, &Begin{}, &Commit{}, &Rollback{}, &Reset{}, &Goodbye{},
		&Success{Meta: map[string]any{"has_more": true, "rows_affected": int64(3)}},
		&Record{Values: []any{int64(1), "two", 3.5, nil, false}},
		&Error{Code: CodeConflict, Message: "write-write conflict"},
	}
	var out [][]byte
	for _, m := range msgs {
		var buf bytes.Buffer
		if err := WriteMessage(&buf, m); err != nil {
			panic(err)
		}
		out = append(out, buf.Bytes())
	}
	return out
}

// helloBase encodes a HELLO body up to (but excluding) the optional
// trace metadata, so seeds can append hostile metadata bytes.
func helloBase(ua string) []byte {
	return append(appendString(nil, ua), 0x00)
}

// frameWith frames an arbitrary body under the given type byte.
func frameWith(typ byte, body []byte) []byte {
	var buf bytes.Buffer
	if err := WriteFrame(&buf, typ, body); err != nil {
		panic(err)
	}
	return buf.Bytes()
}

// FuzzDecodeFrame pushes arbitrary bytes through the frame reader and
// message decoder. The contract under fuzzing: never panic, never
// allocate beyond the frame cap, and classify every failure as a known
// error (ErrMalformed/ErrTooLarge/io.EOF). Well-formed frames must
// re-encode to a decodable message (round-trip closure).
func FuzzDecodeFrame(f *testing.F) {
	for _, b := range seedFrames() {
		f.Add(b)
	}
	// Hand-built hostile inputs: truncated chunk, lying chunk length,
	// huge declared list, deep nesting.
	f.Add([]byte{MsgRun, 0xFF, 0xFF})
	f.Add([]byte{MsgRecord, 0x00, 0x04, 0xFF, 0xFF, 0xFF, 0xFF, 0x00, 0x00})
	f.Add(bytes.Repeat([]byte{MsgSuccess, 0x00, 0x01, tagList}, 8))
	// Hostile trace metadata: unknown tag and a truncated entry after a
	// well-formed HELLO base.
	f.Add(frameWith(MsgHello, append(helloBase("h"), 0x7F)))
	f.Add(frameWith(MsgHello, append(helloBase("h"), metaTagTrace, 0x01, 0x02)))
	// Hostile RUN metadata: a repeated pull-all entry, and pull-all ahead
	// of the trace entry.
	runBase, err := (&Run{StmtID: 1, Params: map[string]any{}}).encodeBody(nil)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(frameWith(MsgRun, append(append([]byte{}, runBase...), metaTagPullAll, metaTagPullAll)))
	f.Add(frameWith(MsgRun, appendTraceMeta(append(append([]byte{}, runBase...), metaTagPullAll), &TraceContext{TraceID: 1})))
	f.Fuzz(func(t *testing.T, data []byte) {
		// Cap the fuzz frame limit well below MaxMessage so the harness
		// itself stays cheap; the incremental check is the same code path.
		const fuzzMax = 1 << 16
		typ, body, err := ReadFrame(bytes.NewReader(data), fuzzMax)
		if err != nil {
			if errors.Is(err, ErrMalformed) || errors.Is(err, ErrTooLarge) || err == io.EOF {
				return
			}
			t.Fatalf("ReadFrame returned unclassified error %v", err)
		}
		if len(body) > fuzzMax {
			t.Fatalf("ReadFrame returned %d bytes over the %d cap", len(body), fuzzMax)
		}
		m, err := DecodeMessage(typ, body)
		if err != nil {
			if errors.Is(err, ErrMalformed) || errors.Is(err, ErrTooLarge) {
				return
			}
			t.Fatalf("DecodeMessage returned unclassified error %v", err)
		}
		// Decoded messages must re-encode and decode back cleanly.
		var buf bytes.Buffer
		if err := WriteMessage(&buf, m); err != nil {
			t.Fatalf("re-encode of decoded %s failed: %v", MsgName(typ), err)
		}
		if _, err := ReadMessage(&buf); err != nil {
			t.Fatalf("re-decode of re-encoded %s failed: %v", MsgName(typ), err)
		}
	})
}

// FuzzHandshake pushes arbitrary bytes through both handshake readers.
func FuzzHandshake(f *testing.F) {
	var ok bytes.Buffer
	if err := WriteClientHandshake(&ok, Version3, Version2, Version1, 4); err != nil {
		f.Fatal(err)
	}
	f.Add(ok.Bytes())
	var v1only bytes.Buffer
	if err := WriteClientHandshake(&v1only, Version1); err != nil {
		f.Fatal(err)
	}
	f.Add(v1only.Bytes())
	f.Add(append(Magic[:], make([]byte, 16)...))
	f.Add([]byte("PSDN"))
	f.Add([]byte("GET / HTTP/1.1\r\n\r\n"))
	f.Fuzz(func(t *testing.T, data []byte) {
		versions, err := ReadClientHandshake(bytes.NewReader(data))
		if err == nil {
			// Whatever the candidates, choosing must not panic and the
			// server reply must round-trip.
			v := ChooseVersion(versions)
			var s2c bytes.Buffer
			if err := WriteServerHandshake(&s2c, v); err != nil {
				t.Fatal(err)
			}
			got, err := ReadServerHandshake(&s2c)
			if supported(v) && (err != nil || got != v) {
				t.Fatalf("server chose %d but client read %d, %v", v, got, err)
			}
			if !supported(v) && !errors.Is(err, ErrVersionMismatch) {
				t.Fatalf("unsupported choice %d not rejected: %v", v, err)
			}
			return
		}
		if errors.Is(err, ErrBadMagic) || errors.Is(err, ErrMalformed) || err == io.EOF {
			return
		}
		t.Fatalf("ReadClientHandshake returned unclassified error %v", err)
	})
}
