package wire

import (
	"bytes"
	"errors"
	"reflect"
	"testing"
)

// TestTraceMetadataRoundTrip: the optional trace-context entry on HELLO
// and RUN must survive encode→decode, and its absence must decode to a
// nil TraceContext (the v1 body shape).
func TestTraceMetadataRoundTrip(t *testing.T) {
	tc := &TraceContext{TraceID: 0x0102030405060708, SpanID: 0x1112131415161718}
	msgs := []Message{
		&Hello{UserAgent: "drv/2", Mode: 3, Trace: tc},
		&Run{StmtID: 9, Mode: ModeDefault, Params: map[string]any{"id": int64(1)}, Trace: tc},
		&Run{Text: "ldbc:sr1", Mode: 0, Params: map[string]any{}, Trace: &TraceContext{TraceID: 1}},
		// No metadata at all — must stay nil after the round trip.
		&Hello{UserAgent: "drv/1", Mode: 0},
		&Run{StmtID: 4, Mode: 1, Params: map[string]any{}},
	}
	for _, m := range msgs {
		got := roundTrip(t, m)
		if !reflect.DeepEqual(got, m) {
			t.Errorf("round trip %T: got %#v want %#v", m, got, m)
		}
	}
}

// TestTraceMetadataMalformed: anything after the base fields that is
// not a complete, known metadata entry is ErrMalformed — never a
// silent misparse.
func TestTraceMetadataMalformed(t *testing.T) {
	base := helloBase("x")
	cases := map[string][]byte{
		"unknown tag":        append(append([]byte{}, base...), 0x7F, 0, 0),
		"truncated ids":      append(append([]byte{}, base...), metaTagTrace, 1, 2, 3),
		"empty entry":        append(append([]byte{}, base...), metaTagTrace),
		"trailing after ids": append(appendTraceMeta(append([]byte{}, base...), &TraceContext{TraceID: 1, SpanID: 2}), 0xEE),
	}
	for name, body := range cases {
		if _, err := DecodeMessage(MsgHello, body); !errors.Is(err, ErrMalformed) {
			t.Errorf("%s: got %v, want ErrMalformed", name, err)
		}
	}
	// Same contract on RUN: params followed by a bad tag.
	run := &Run{StmtID: 1, Mode: 0, Params: map[string]any{}}
	body, err := run.encodeBody(nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := DecodeMessage(MsgRun, append(body, 0x7F)); !errors.Is(err, ErrMalformed) {
		t.Errorf("run bad tag: got %v, want ErrMalformed", err)
	}
}

// TestVersionNegotiationMatrix covers old↔new peer pairings.
func TestVersionNegotiationMatrix(t *testing.T) {
	cases := []struct {
		name   string
		offer  []uint32
		choose uint32 // what a Version3-capable server picks
	}{
		{"new client, new server", []uint32{Version3, Version2, Version1}, Version3},
		{"v2 client, new server", []uint32{Version2, Version1}, Version2},
		{"old client, new server", []uint32{Version1}, Version1},
		{"future client with fallback", []uint32{99, Version3, Version2, Version1}, Version3},
		{"future-only client", []uint32{99, 98}, 0},
	}
	for _, tt := range cases {
		var c2s bytes.Buffer
		if err := WriteClientHandshake(&c2s, tt.offer...); err != nil {
			t.Fatal(err)
		}
		versions, err := ReadClientHandshake(&c2s)
		if err != nil {
			t.Fatal(err)
		}
		if v := ChooseVersion(versions); v != tt.choose {
			t.Errorf("%s: chose %d, want %d", tt.name, v, tt.choose)
		}
	}
	// A v1-only server (the old binary's ChooseVersion loop accepted
	// only Version1) would pick Version1 from a new client's offer:
	// that choice must still be accepted by the new client's reader.
	var s2c bytes.Buffer
	if err := WriteServerHandshake(&s2c, Version1); err != nil {
		t.Fatal(err)
	}
	if v, err := ReadServerHandshake(&s2c); err != nil || v != Version1 {
		t.Fatalf("new client rejected v1 server: %d, %v", v, err)
	}
	// And v2 and v3 choices are accepted too.
	for _, want := range []uint32{Version2, Version3} {
		s2c.Reset()
		if err := WriteServerHandshake(&s2c, want); err != nil {
			t.Fatal(err)
		}
		if v, err := ReadServerHandshake(&s2c); err != nil || v != want {
			t.Fatalf("new client rejected v%d server: %d, %v", want, v, err)
		}
	}
}

// TestPullAllRoundTrip: a v3 RUN survives encode→decode with and without
// each of its two metadata entries.
func TestPullAllRoundTrip(t *testing.T) {
	tc := &TraceContext{TraceID: 7, SpanID: 8}
	for _, m := range []*Run{
		{Text: "ldbc:sr1", Mode: ModeDefault, Params: map[string]any{"id": int64(1)}, PullAll: true},
		{StmtID: 3, Mode: 0, Params: map[string]any{}, Trace: tc, PullAll: true},
		{StmtID: 3, Mode: 0, Params: map[string]any{}, Trace: tc},
		{StmtID: 3, Mode: 0, Params: map[string]any{}},
	} {
		if got := roundTrip(t, m); !reflect.DeepEqual(got, m) {
			t.Errorf("round trip: got %#v want %#v", got, m)
		}
	}
}

// TestRunMetadataMalformed: RUN's metadata entries come in ascending tag
// order, each at most once; an unknown tag, a repeated entry and the two
// entries swapped are ErrMalformed. HELLO knows no pull-all entry.
func TestRunMetadataMalformed(t *testing.T) {
	base, err := (&Run{StmtID: 1, Params: map[string]any{}}).encodeBody(nil)
	if err != nil {
		t.Fatal(err)
	}
	trace := appendTraceMeta(nil, &TraceContext{TraceID: 1, SpanID: 2})
	cat := func(parts ...[]byte) []byte {
		out := append([]byte{}, base...)
		for _, p := range parts {
			out = append(out, p...)
		}
		return out
	}
	pull := []byte{metaTagPullAll}
	cases := map[string][]byte{
		"unknown tag":            cat([]byte{metaTagPullAll + 1}),
		"tag zero":               cat([]byte{0}),
		"duplicate pull-all":     cat(pull, pull),
		"duplicate trace":        cat(trace, trace),
		"pull-all before trace":  cat(pull, trace),
		"unknown after pull-all": cat(trace, pull, []byte{0x7F}),
	}
	for name, body := range cases {
		if _, err := DecodeMessage(MsgRun, body); !errors.Is(err, ErrMalformed) {
			t.Errorf("%s: got %v, want ErrMalformed", name, err)
		}
	}
	if _, err := DecodeMessage(MsgHello, append(helloBase("x"), metaTagPullAll)); !errors.Is(err, ErrMalformed) {
		t.Errorf("hello with pull-all: got %v, want ErrMalformed", err)
	}
}
