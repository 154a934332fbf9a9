//go:build !race

package wire

import (
	"bufio"
	"bytes"
	"io"
	"testing"
)

// TestWarmEncodeAllocs: once a connection's codec has written a frame of
// a size, writing another of that size into the connection's buffered
// writer allocates nothing — the frame is built in the codec's buffer.
func TestWarmEncodeAllocs(t *testing.T) {
	msgs := []Message{
		&Record{Values: []any{int64(1), "two", 3.5, nil, []any{"x"}}},
		&Success{Meta: map[string]any{"rows_affected": int64(1), "committed": true}},
		&Success{},
		&Run{StmtID: 3, Mode: ModeDefault, PullAll: true,
			Params: map[string]any{"id": int64(1 << 40), "nested": []any{map[string]any{"k": "v"}}},
			Trace:  &TraceContext{TraceID: 1, SpanID: 2}},
	}
	var c Codec
	for _, m := range msgs {
		write := warmWrite(t, &c, m)
		if allocs := testing.AllocsPerRun(100, write); allocs != 0 {
			t.Errorf("a warm %s encode allocates %.1f times, want 0", MsgName(m.Type()), allocs)
		}
	}
}

// warmWrite returns a writer like a connection's: a bufio.Writer over a
// sink, flushed between frames.
func warmWrite(t *testing.T, c *Codec, m Message) func() {
	t.Helper()
	bw := bufio.NewWriterSize(io.Discard, 32<<10)
	write := func() {
		if err := c.WriteMessage(bw, m); err != nil {
			t.Fatal(err)
		}
		if err := bw.Flush(); err != nil {
			t.Fatal(err)
		}
	}
	write()
	return write
}

// TestHeldRecordSavesAnAlloc: a warm RECORD read into a held Record
// allocates one less than one read into a new Record — the Record itself.
func TestHeldRecordSavesAnAlloc(t *testing.T) {
	var frame bytes.Buffer
	if err := WriteMessage(&frame, &Record{Values: []any{int64(1), nil, true}}); err != nil {
		t.Fatal(err)
	}
	var c Codec
	var rec Record
	var r bytes.Reader
	read := func(into *Record) func() {
		return func() {
			r.Reset(frame.Bytes())
			if _, err := c.ReadMessageInto(&r, into); err != nil {
				t.Fatal(err)
			}
		}
	}
	read(nil)()
	fresh, held := testing.AllocsPerRun(100, read(nil)), testing.AllocsPerRun(100, read(&rec))
	if held != fresh-1 {
		t.Errorf("a warm RECORD allocates %.1f times read into a held Record, %.1f into a new one; want one less", held, fresh)
	}
}
