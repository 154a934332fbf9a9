package wire

import (
	"bytes"
	"encoding/hex"
	"os"
	"reflect"
	"strings"
	"testing"
)

// TestFramesMatchGolden: the frames of seedMessages are byte for byte
// the ones in testdata/frames.golden (one hex-encoded frame a line),
// which the allocating encoder wrote before the codec owned its
// buffers. A change that moves these bytes changes the protocol.
func TestFramesMatchGolden(t *testing.T) {
	raw, err := os.ReadFile("testdata/frames.golden")
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(string(raw)), "\n")
	msgs := seedMessages()
	if len(lines) != len(msgs) {
		t.Fatalf("golden holds %d frames, seedMessages %d", len(lines), len(msgs))
	}
	var c Codec
	for i, m := range msgs {
		var buf bytes.Buffer
		if err := c.WriteMessage(&buf, m); err != nil {
			t.Fatal(err)
		}
		if got := hex.EncodeToString(buf.Bytes()); got != lines[i] {
			t.Errorf("frame %d (%s):\n got %s\nwant %s", i, MsgName(m.Type()), got, lines[i])
		}
	}
}

// TestDecodedMessagesOwnTheirMemory: decoded messages share nothing
// with the codec that read them. A RUN with nested params, a RECORD and
// a SUCCESS are read through one codec, then a frame of other bytes
// reuses its read buffer; the first three still hold what was sent.
func TestDecodedMessagesOwnTheirMemory(t *testing.T) {
	sent := []Message{
		&Run{Text: "ldbc:sr1", Mode: ModeDefault, PullAll: true, Params: map[string]any{
			"id": int64(42), "name": "ada",
			"tags": []any{"x", map[string]any{"k": "v", "n": []any{"deep"}}},
		}},
		&Record{Values: []any{"alpha", int64(7), []any{"beta", 1.5}, map[string]any{"gamma": "delta"}}},
		&Success{Meta: map[string]any{"has_more": false, "note": "epsilon"}},
	}
	// The same messages again, built separately, to compare against.
	want := []Message{
		&Run{Text: "ldbc:sr1", Mode: ModeDefault, PullAll: true, Params: map[string]any{
			"id": int64(42), "name": "ada",
			"tags": []any{"x", map[string]any{"k": "v", "n": []any{"deep"}}},
		}},
		&Record{Values: []any{"alpha", int64(7), []any{"beta", 1.5}, map[string]any{"gamma": "delta"}}},
		&Success{Meta: map[string]any{"has_more": false, "note": "epsilon"}},
	}
	var stream bytes.Buffer
	for _, m := range sent {
		if err := WriteMessage(&stream, m); err != nil {
			t.Fatal(err)
		}
	}
	// A frame as long as the longest above, all 'Z', overwrites every
	// byte the first three bodies occupied in the read buffer.
	if err := WriteMessage(&stream, &Prepare{Text: strings.Repeat("Z", stream.Len())}); err != nil {
		t.Fatal(err)
	}
	var c Codec
	got := make([]Message, len(sent))
	for i := range got {
		m, err := c.ReadMessage(&stream)
		if err != nil {
			t.Fatal(err)
		}
		got[i] = m
	}
	if _, err := c.ReadMessage(&stream); err != nil {
		t.Fatal(err)
	}
	for i := range got {
		if !reflect.DeepEqual(got[i], want[i]) {
			t.Errorf("%s changed after a later read:\n got %#v\nwant %#v", MsgName(want[i].Type()), got[i], want[i])
		}
	}
}

// TestRecordsDecodeIntoOneRecord: ReadMessageInto decodes every RECORD
// of a stream into the caller's one Record, and each gets Values of its
// own, so rows taken from it still hold what was sent after later reads;
// other messages decode as ReadMessage decodes them.
func TestRecordsDecodeIntoOneRecord(t *testing.T) {
	sent := []Message{
		&Record{Values: []any{"alpha", int64(7), []any{"beta", 1.5}}},
		&Record{Values: []any{"gamma", map[string]any{"k": "v"}}},
		&Success{Meta: map[string]any{"has_more": false}},
	}
	var stream bytes.Buffer
	for _, m := range sent {
		if err := WriteMessage(&stream, m); err != nil {
			t.Fatal(err)
		}
	}
	if err := WriteMessage(&stream, &Prepare{Text: strings.Repeat("Z", stream.Len())}); err != nil {
		t.Fatal(err)
	}
	var c Codec
	var rec Record
	var rows [][]any
	for _, want := range sent {
		m, err := c.ReadMessageInto(&stream, &rec)
		if err != nil {
			t.Fatal(err)
		}
		if r, ok := m.(*Record); ok {
			if r != &rec {
				t.Fatalf("a RECORD was decoded into a new Record")
			}
			rows = append(rows, r.Values)
		} else if !reflect.DeepEqual(m, want) {
			t.Errorf("%s = %#v, want %#v", MsgName(want.Type()), m, want)
		}
	}
	if _, err := c.ReadMessageInto(&stream, &rec); err != nil {
		t.Fatal(err)
	}
	for i, row := range rows {
		if want := sent[i].(*Record).Values; !reflect.DeepEqual(row, want) {
			t.Errorf("row %d changed after later reads:\n got %#v\nwant %#v", i, row, want)
		}
	}
}

// TestCodecDropsOversizedBuffers: a frame larger than one chunk grows a
// codec half's buffer for that frame only; afterwards the codec keeps at
// most maxRetain per half.
func TestCodecDropsOversizedBuffers(t *testing.T) {
	big := &Prepare{Text: strings.Repeat("y", 4*maxChunk)}
	var c Codec
	var buf bytes.Buffer
	if err := c.WriteMessage(&buf, big); err != nil {
		t.Fatal(err)
	}
	if cap(c.out) > maxRetain {
		t.Errorf("the write half keeps %d bytes after a large frame", cap(c.out))
	}
	m, err := c.ReadMessage(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if m.(*Prepare).Text != big.Text {
		t.Fatal("large frame corrupted")
	}
	if cap(c.in) > maxRetain {
		t.Errorf("the read half keeps %d bytes after a large frame", cap(c.in))
	}
	// A frame refused as too large is dropped too.
	if err := WriteMessage(&buf, big); err != nil {
		t.Fatal(err)
	}
	c.Max = 3 * maxChunk
	if _, err := c.ReadMessage(&buf); err == nil {
		t.Fatal("an oversized frame was accepted")
	}
	if cap(c.in) > maxRetain {
		t.Errorf("the read half keeps %d bytes after a refused frame", cap(c.in))
	}
}
