package wire

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"testing"
)

// seedFrames returns well-formed encodings of every message type, so
// the fuzzers start from the interesting part of the input space.
func seedFrames() [][]byte {
	var out [][]byte
	for _, m := range seedMessages() {
		var buf bytes.Buffer
		if err := WriteMessage(&buf, m); err != nil {
			panic(err)
		}
		out = append(out, buf.Bytes())
	}
	return out
}

// seedMessages is one or more of every message type. Every map holds at
// most one key: a map's entries go on the wire in Go's map order, and
// testdata/frames.golden pins these messages' bytes.
func seedMessages() []Message {
	return []Message{
		&Hello{UserAgent: "fuzz/1", Mode: 3},
		&Hello{UserAgent: "fuzz/2", Mode: 0, Trace: &TraceContext{TraceID: 0x1122334455667788, SpanID: 0x99aabbccddeeff00}},
		&Prepare{Text: "MATCH (p:Person) RETURN p.name"},
		&Run{StmtID: 1, Mode: ModeDefault, Params: map[string]any{"id": int64(7)}},
		&Run{StmtID: 5, Mode: ModeDefault},
		&Run{StmtID: 4, Mode: ModeDefault, Params: map[string]any{"s": []any{"x", int64(-1), 2.5, true, nil}}},
		&Run{Text: "ldbc:iu2", Params: map[string]any{"nested": []any{map[string]any{"k": int64(1)}}}},
		&Run{StmtID: 2, Mode: 1, Params: map[string]any{}, Trace: &TraceContext{TraceID: 0xdeadbeef, SpanID: 0xcafe}},
		&Run{Text: "ldbc:sr2-post", Mode: ModeDefault, Params: map[string]any{"id": int64(9)}, PullAll: true},
		&Run{StmtID: 3, Mode: 2, Params: map[string]any{}, Trace: &TraceContext{TraceID: 1, SpanID: 2}, PullAll: true},
		&Pull{N: -1},
		&Discard{}, &Begin{}, &Commit{}, &Rollback{}, &Reset{}, &Goodbye{},
		&Success{Meta: map[string]any{"has_more": true}},
		&Success{Meta: map[string]any{"rows_affected": int64(3)}},
		&Success{},
		&Record{Values: []any{int64(1), "two", 3.5, nil, false}},
		&Record{},
		&Error{Code: CodeConflict, Message: "write-write conflict"},
	}
}

// helloBase encodes a HELLO body up to (but excluding) the optional
// trace metadata, so seeds can append hostile metadata bytes.
func helloBase(ua string) []byte {
	return append(appendString(nil, ua), 0x00)
}

// frameWith frames an arbitrary body under the given type byte.
func frameWith(typ byte, body []byte) []byte {
	return chunk(append([]byte{typ, 0, 0}, body...))
}

// FuzzDecodeFrame pushes arbitrary bytes through the frame reader and
// message decoder. The contract under fuzzing: never panic, never
// allocate beyond the frame cap, and classify every failure as a known
// error (ErrMalformed/ErrTooLarge/io.EOF). Well-formed frames must
// re-encode to a decodable message (round-trip closure). The same bytes
// then go as a stream through one reused codec, as a connection reads
// them: the same contract holds frame by frame, and no decoded message
// changes while later frames reuse the codec's buffers.
func FuzzDecodeFrame(f *testing.F) {
	seeds := seedFrames()
	for _, b := range seeds {
		f.Add(b)
	}
	f.Add(bytes.Join(seeds, nil))
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
	// Cap the fuzz frame limit well below MaxMessage so the harness
	// itself stays cheap; the incremental check is the same code path.
	const fuzzMax = 1 << 16
	f.Fuzz(func(t *testing.T, data []byte) {
		one := &Codec{Max: fuzzMax}
		typ, body, err := one.readFrame(bytes.NewReader(data))
		if err != nil {
			classified(t, "readFrame", err, true)
		} else {
			if len(body) > fuzzMax {
				t.Fatalf("readFrame returned %d bytes over the %d cap", len(body), fuzzMax)
			}
			if m, err := DecodeMessage(typ, body); err != nil {
				classified(t, "DecodeMessage", err, false)
			} else {
				reencode(t, one, m)
			}
		}

		// The stream: frames until the first error, each message kept
		// with its printed form (fmt prints maps sorted) as read.
		stream := &Codec{Max: fuzzMax}
		r := bytes.NewReader(data)
		var kept []Message
		var printed []string
		for {
			m, err := stream.ReadMessage(r)
			if err != nil {
				classified(t, "ReadMessage", err, true)
				break
			}
			reencode(t, stream, m)
			kept = append(kept, m)
			printed = append(printed, fmt.Sprintf("%v", m))
		}
		for i, m := range kept {
			if got := fmt.Sprintf("%v", m); got != printed[i] {
				t.Fatalf("frame %d changed after later reads: %s, read as %s", i, got, printed[i])
			}
		}
	})
}

// classified fails the fuzz run on an error outside the decoder's
// contract; eof says whether a clean io.EOF may end the input here.
func classified(t *testing.T, what string, err error, eof bool) {
	t.Helper()
	if errors.Is(err, ErrMalformed) || errors.Is(err, ErrTooLarge) || (eof && err == io.EOF) {
		return
	}
	t.Fatalf("%s returned unclassified error %v", what, err)
}

// reencode checks a decoded message re-encodes through c and decodes
// back cleanly through c.
func reencode(t *testing.T, c *Codec, m Message) {
	t.Helper()
	var buf bytes.Buffer
	if err := c.WriteMessage(&buf, m); err != nil {
		t.Fatalf("re-encode of decoded %s failed: %v", MsgName(m.Type()), err)
	}
	if _, err := c.ReadMessage(&buf); err != nil {
		t.Fatalf("re-decode of re-encoded %s failed: %v", MsgName(m.Type()), err)
	}
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
