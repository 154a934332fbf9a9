package wire

import (
	"bytes"
	"errors"
	"io"
	"reflect"
	"strings"
	"testing"
)

// roundTrip encodes a message, reads it back, and returns the decode.
func roundTrip(t *testing.T, m Message) Message {
	t.Helper()
	var buf bytes.Buffer
	if err := WriteMessage(&buf, m); err != nil {
		t.Fatalf("write %T: %v", m, err)
	}
	got, err := ReadMessage(&buf)
	if err != nil {
		t.Fatalf("read %T: %v", m, err)
	}
	if buf.Len() != 0 {
		t.Fatalf("%d bytes left after reading one message", buf.Len())
	}
	return got
}

func TestMessageRoundTrips(t *testing.T) {
	msgs := []Message{
		&Hello{UserAgent: "test/1", Mode: 2},
		&Prepare{Text: "MATCH (p:Person) RETURN p.name"},
		&Run{StmtID: 7, Mode: ModeDefault, Params: map[string]any{}},
		&Run{Text: "ldbc:sr1", Mode: 0, Params: map[string]any{
			"id": int64(42), "name": "ada", "score": 1.5, "ok": true, "none": nil,
		}},
		&Pull{N: -1},
		&Pull{N: 1000},
		&Discard{}, &Begin{}, &Commit{}, &Rollback{}, &Reset{}, &Goodbye{},
		&Success{Meta: map[string]any{"stmt_id": int64(3), "has_updates": false}},
		&Success{Meta: map[string]any{"list": []any{int64(1), "two", 3.0}}},
		&Record{Values: []any{int64(1), "x", nil, true, 2.25}},
		&Record{Values: nil},
		&Error{Code: CodeQueueFull, Message: "shed"},
	}
	for _, m := range msgs {
		got := roundTrip(t, m)
		want := m
		// Encoding normalizes nil params/meta to empty maps and nil
		// record values to an empty row.
		switch w := want.(type) {
		case *Run:
			if w.Params == nil {
				w.Params = map[string]any{}
			}
		case *Success:
			if w.Meta == nil {
				w.Meta = map[string]any{}
			}
		case *Record:
			if w.Values == nil {
				w.Values = []any{}
			}
			if g, ok := got.(*Record); ok && g.Values == nil {
				g.Values = []any{}
			}
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("round trip %T: got %#v want %#v", m, got, want)
		}
	}
}

func TestLargeBodyChunks(t *testing.T) {
	// A body over 64 KiB must split into maxChunk pieces, each behind its
	// length, then the terminator — the layout the codec builds in place —
	// and reassemble.
	text := strings.Repeat("abcdefg", (3*maxChunk+17)/7)
	want := []byte{MsgPrepare}
	for rest := appendString(nil, text); len(rest) > 0; {
		n := min(len(rest), maxChunk)
		want = append(want, byte(n>>8), byte(n))
		want = append(want, rest[:n]...)
		rest = rest[n:]
	}
	want = append(want, 0, 0)
	var buf bytes.Buffer
	if err := WriteMessage(&buf, &Prepare{Text: text}); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Fatal("a large body framed differently from the chunked layout")
	}
	got := roundTrip(t, &Prepare{Text: text}).(*Prepare)
	if got.Text != text {
		t.Fatalf("large body corrupted: got %d bytes want %d", len(got.Text), len(text))
	}
}

func TestOversizedFrameRejected(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteMessage(&buf, &Prepare{Text: strings.Repeat("y", 100_000)}); err != nil {
		t.Fatal(err)
	}
	c := &Codec{Max: 64_000}
	_, err := c.ReadMessage(bytes.NewReader(buf.Bytes()))
	if !errors.Is(err, ErrTooLarge) {
		t.Fatalf("got %v, want ErrTooLarge", err)
	}
}

func TestTruncatedFrameMalformed(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteMessage(&buf, &Prepare{Text: "hello"}); err != nil {
		t.Fatal(err)
	}
	whole := buf.Bytes()
	for cut := 1; cut < len(whole); cut++ {
		_, err := ReadMessage(bytes.NewReader(whole[:cut]))
		if err == nil {
			t.Fatalf("truncation at %d decoded successfully", cut)
		}
	}
}

func TestLyingListCountRejected(t *testing.T) {
	// A record claiming 2^31 values in a tiny body must error without
	// allocating the claimed slice.
	body := []byte{0x80, 0x00, 0x00, 0x00}
	_, err := DecodeMessage(MsgRecord, body)
	if !errors.Is(err, ErrTooLarge) && !errors.Is(err, ErrMalformed) {
		t.Fatalf("got %v", err)
	}
}

func TestTrailingGarbageRejected(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteMessage(&buf, &Begin{}); err != nil {
		t.Fatal(err)
	}
	// Re-frame with an extra byte appended to the body.
	_, err := DecodeMessage(MsgBegin, []byte{0xEE})
	if !errors.Is(err, ErrMalformed) {
		t.Fatalf("got %v, want ErrMalformed", err)
	}
	_ = buf
}

func TestHandshake(t *testing.T) {
	var c2s bytes.Buffer
	if err := WriteClientHandshake(&c2s, Version1); err != nil {
		t.Fatal(err)
	}
	versions, err := ReadClientHandshake(&c2s)
	if err != nil {
		t.Fatal(err)
	}
	if v := ChooseVersion(versions); v != Version1 {
		t.Fatalf("chose %d", v)
	}
	var s2c bytes.Buffer
	if err := WriteServerHandshake(&s2c, Version1); err != nil {
		t.Fatal(err)
	}
	if v, err := ReadServerHandshake(&s2c); err != nil || v != Version1 {
		t.Fatalf("client got %d, %v", v, err)
	}
}

func TestHandshakeRejectsBadMagic(t *testing.T) {
	raw := append([]byte("BOLT"), make([]byte, 16)...)
	if _, err := ReadClientHandshake(bytes.NewReader(raw)); !errors.Is(err, ErrBadMagic) {
		t.Fatalf("got %v, want ErrBadMagic", err)
	}
}

func TestHandshakeNoCommonVersion(t *testing.T) {
	if v := ChooseVersion([4]uint32{99, 100, 0, 0}); v != 0 {
		t.Fatalf("chose %d for unsupported candidates", v)
	}
	var s2c bytes.Buffer
	if err := WriteServerHandshake(&s2c, 0); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadServerHandshake(&s2c); !errors.Is(err, ErrVersionMismatch) {
		t.Fatalf("got %v, want ErrVersionMismatch", err)
	}
}

func TestUnknownMessageType(t *testing.T) {
	if _, err := DecodeMessage(0x42, nil); !errors.Is(err, ErrMalformed) {
		t.Fatalf("got %v, want ErrMalformed", err)
	}
}

func TestReadFrameEOFIsClean(t *testing.T) {
	// EOF before any byte of a frame is a clean connection end, not a
	// malformed stream.
	_, err := ReadMessage(bytes.NewReader(nil))
	if err != io.EOF {
		t.Fatalf("got %v, want io.EOF", err)
	}
}
