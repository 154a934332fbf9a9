package trace

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http/httptest"
	"strings"
	"testing"
	"time"
)

// finishOne runs a tiny root+child trace through tr and returns it via
// a finish sink (which sees the trace even if sampling drops it).
func finishOne(t *testing.T, tr *Tracer, fail error) *Trace {
	t.Helper()
	var got *Trace
	ctx := WithFinishSink(context.Background(), func(x *Trace) { got = x })
	ctx, root := tr.Start(ctx, "root", KindSession)
	_, child := StartSpan(ctx, "child", KindExec)
	child.SetAttr("rows", int64(3))
	child.End()
	root.SetError(fail)
	root.End()
	if got == nil {
		t.Fatal("finish sink did not fire")
	}
	return got
}

func TestSpanTreeAndSink(t *testing.T) {
	tr := New(Config{SampleRate: 1})
	got := finishOne(t, tr, nil)
	if len(got.Spans) != 2 {
		t.Fatalf("spans = %d, want 2", len(got.Spans))
	}
	root := got.Root()
	if root.Name != "root" || root.Kind != KindSession {
		t.Fatalf("root = %+v", root)
	}
	child := got.Spans[0]
	if child.Parent != root.ID {
		t.Fatalf("child parent %x != root id %x", child.Parent, root.ID)
	}
	if child.Attrs[0].Key != "rows" || child.Attrs[0].Value.(int64) != 3 {
		t.Fatalf("child attrs = %v", child.Attrs)
	}
	if got.ID == 0 || got.Err != "" || got.Duration < 0 {
		t.Fatalf("trace = %+v", got)
	}
	if kinds := got.Kinds(); len(kinds) != 2 {
		t.Fatalf("kinds = %v", kinds)
	}
}

func TestRemoteParentPropagation(t *testing.T) {
	tr := New(Config{SampleRate: 1})
	sc := SpanContext{TraceID: 0xabc, SpanID: 0xdef}
	_, root := tr.StartRemote(context.Background(), sc, "server.run", KindWire)
	if got := root.TraceID(); got != 0xabc {
		t.Fatalf("trace id = %x, want abc", got)
	}
	root.End()
	rt := tr.Trace(0xabc)
	if rt == nil {
		t.Fatal("remote-parented trace not retained")
	}
	if rt.RemoteParent != 0xdef || rt.Root().Parent != 0xdef {
		t.Fatalf("remote parent not recorded: %+v", rt)
	}
}

func TestNilSafety(t *testing.T) {
	var tr *Tracer
	ctx, s := tr.Start(context.Background(), "x", KindClient)
	if s != nil {
		t.Fatal("nil tracer produced a span")
	}
	ctx2, s2 := tr.StartRemote(ctx, SpanContext{TraceID: 1}, "y", KindWire)
	if s2 != nil || ctx2 != ctx {
		t.Fatal("nil tracer StartRemote misbehaved")
	}
	// Every span method must no-op on nil.
	var sp *Span
	sp.SetAttr("k", 1)
	sp.SetError(errors.New("boom"))
	sp.End()
	if c := sp.Child("c", KindExec); c != nil {
		t.Fatal("nil span produced a child")
	}
	if sc := sp.Context(); sc.Valid() {
		t.Fatal("nil span has a valid context")
	}
	if tr.Traces() != nil || tr.Trace(1) != nil {
		t.Fatal("nil tracer returned traces")
	}
	if _, sp3 := StartSpan(context.Background(), "z", KindExec); sp3 != nil {
		t.Fatal("StartSpan on a bare context produced a span")
	}
}

func TestTailSamplingKeepsErroredAndSlow(t *testing.T) {
	tr := New(Config{SampleRate: 0.0001, SlowThreshold: time.Hour})
	// Errored: always kept, despite the ~0 sample rate.
	got := finishOne(t, tr, errors.New("conflict"))
	if !got.Pinned {
		t.Fatal("errored trace not pinned")
	}
	if tr.Trace(got.ID) == nil {
		t.Fatal("errored trace not retained")
	}
	// Slow: always kept.
	tr2 := New(Config{SampleRate: 0.0001, SlowThreshold: time.Nanosecond})
	got2 := finishOne(t, tr2, nil)
	if !got2.Pinned || tr2.Trace(got2.ID) == nil {
		t.Fatal("slow trace not pinned/retained")
	}
	// Unremarkable traces at rate ~0 are sampled out.
	tr3 := New(Config{SampleRate: 0.0001, SlowThreshold: time.Hour})
	for i := 0; i < 50; i++ {
		finishOne(t, tr3, nil)
	}
	_, kept, sampledOut, _ := tr3.Stats()
	if sampledOut < 45 {
		t.Fatalf("sampled_out = %d, want most of 50 (kept %d)", sampledOut, kept)
	}
}

// TestNegativeSlowThresholdPinsOnlyErrors: a negative threshold means
// nothing is slow — New used to turn it into the 25ms default.
func TestNegativeSlowThresholdPinsOnlyErrors(t *testing.T) {
	tr := New(Config{SampleRate: 0.0001, SlowThreshold: -1})
	long := &Trace{ID: 1, Duration: time.Hour}
	tr.finish(long, nil)
	if long.Pinned {
		t.Fatal("hour-long trace pinned for slowness under a negative threshold")
	}
	failed := &Trace{ID: 2, Err: "conflict"}
	tr.finish(failed, nil)
	if !failed.Pinned || tr.Trace(2) == nil {
		t.Fatal("errored trace not pinned/retained")
	}
}

func TestRingSampledNeverEvictsPinned(t *testing.T) {
	r := newRing(4)
	for i := 0; i < 4; i++ {
		if !r.insert(&Trace{ID: uint64(i + 1), Pinned: true, Err: "x"}) {
			t.Fatal("pinned insert into non-full ring failed")
		}
	}
	// A sampled trace must be dropped, not evict a pinned one.
	if r.insert(&Trace{ID: 100}) {
		t.Fatal("sampled trace evicted a pinned one")
	}
	for _, e := range r.snapshot() {
		if !e.Pinned {
			t.Fatal("unpinned entry appeared in an all-pinned ring")
		}
	}
	// A newer pinned trace evicts the oldest pinned.
	if !r.insert(&Trace{ID: 200, Pinned: true}) {
		t.Fatal("pinned insert into all-pinned ring failed")
	}
	snap := r.snapshot()
	if snap[0].ID != 2 || snap[len(snap)-1].ID != 200 {
		t.Fatalf("unexpected eviction order: first=%d last=%d", snap[0].ID, snap[len(snap)-1].ID)
	}
}

func TestRingPinnedEvictsOldestSampledFirst(t *testing.T) {
	r := newRing(3)
	r.insert(&Trace{ID: 1})
	r.insert(&Trace{ID: 2, Pinned: true})
	r.insert(&Trace{ID: 3})
	r.insert(&Trace{ID: 4, Pinned: true}) // should evict ID 1 (oldest sampled)
	ids := map[uint64]bool{}
	for _, e := range r.snapshot() {
		ids[e.ID] = true
	}
	if ids[1] || !ids[2] || !ids[3] || !ids[4] {
		t.Fatalf("eviction picked wrong victim: %v", ids)
	}
	// Sampled insert evicts the remaining sampled entry (ID 3).
	r.insert(&Trace{ID: 5})
	ids = map[uint64]bool{}
	for _, e := range r.snapshot() {
		ids[e.ID] = true
	}
	if ids[3] || !ids[5] || !ids[2] || !ids[4] {
		t.Fatalf("sampled insert evicted wrong victim: %v", ids)
	}
}

func TestChromeExportAndHandler(t *testing.T) {
	tr := New(Config{SampleRate: 1})
	got := finishOne(t, tr, nil)

	buf, err := ChromeJSON(tr.Traces())
	if err != nil {
		t.Fatal(err)
	}
	var cf struct {
		TraceEvents []struct {
			Name string         `json:"name"`
			Ph   string         `json:"ph"`
			Dur  float64        `json:"dur"`
			Args map[string]any `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf, &cf); err != nil {
		t.Fatalf("chrome JSON does not parse: %v", err)
	}
	if len(cf.TraceEvents) != 2 {
		t.Fatalf("events = %d, want 2", len(cf.TraceEvents))
	}
	for _, ev := range cf.TraceEvents {
		if ev.Ph != "X" || ev.Args["trace_id"] != FormatID(got.ID) {
			t.Fatalf("bad event %+v", ev)
		}
	}

	// Handler: summary list, then single-trace chrome export.
	h := Handler(tr)
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/debug/traces", nil))
	var list struct {
		Traces []Summary `json:"traces"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &list); err != nil {
		t.Fatal(err)
	}
	if len(list.Traces) != 1 || list.Traces[0].ID != FormatID(got.ID) {
		t.Fatalf("listing = %+v", list)
	}
	// Spans land in end order, so the child's kind lists first.
	if want := []string{"exec", "session"}; fmt.Sprint(list.Traces[0].Kinds) != fmt.Sprint(want) {
		t.Fatalf("kinds = %v, want %v", list.Traces[0].Kinds, want)
	}
	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/debug/traces?id="+FormatID(got.ID), nil))
	if rec.Code != 200 || !strings.Contains(rec.Body.String(), `"traceEvents"`) {
		t.Fatalf("single-trace export: code %d body %s", rec.Code, rec.Body.String())
	}
	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/debug/traces?id=zzz", nil))
	if rec.Code != 400 {
		t.Fatalf("bad id: code %d", rec.Code)
	}

	// Disabled handler answers 503 like the metrics endpoint.
	rec = httptest.NewRecorder()
	Handler(nil).ServeHTTP(rec, httptest.NewRequest("GET", "/debug/traces", nil))
	if rec.Code != 503 {
		t.Fatalf("nil-tracer handler: code %d, want 503", rec.Code)
	}
}

func TestBuildProfile(t *testing.T) {
	tr := New(Config{SampleRate: 1})
	var got *Trace
	ctx := WithFinishSink(context.Background(), func(x *Trace) { got = x })
	ctx, root := tr.Start(ctx, "stmt", KindSession)
	root.SetAttr("query", "MATCH (n) RETURN n")
	for i := 0; i < 3; i++ {
		_, w := StartSpan(ctx, "query.worker", KindExec)
		w.SetAttr("morsels", int64(2))
		w.End()
	}
	_, c := StartSpan(ctx, "core.commit", KindCommit)
	c.End()
	root.End()

	p := BuildProfile(got)
	if p == nil || p.Root != "stmt" {
		t.Fatalf("profile = %+v", p)
	}
	if len(p.Stages) != 2 {
		t.Fatalf("stages = %+v", p.Stages)
	}
	w := p.Stages[0]
	if w.Name != "query.worker" || w.Count != 3 {
		t.Fatalf("worker stage = %+v", w)
	}
	if w.Attrs[0].Key != "morsels" || w.Attrs[0].Value.(int64) != 6 {
		t.Fatalf("morsels not summed: %+v", w.Attrs)
	}
	if p.Attrs[0].Key != "query" {
		t.Fatalf("root attrs missing: %+v", p.Attrs)
	}
	if s := p.Format(); !strings.Contains(s, "query.worker") || !strings.Contains(s, "morsels=6") {
		t.Fatalf("Format() = %q", s)
	}
	if BuildProfile(nil) != nil {
		t.Fatal("BuildProfile(nil) != nil")
	}
	var nilP *Profile
	if !strings.Contains(nilP.Format(), "no profile") {
		t.Fatal("nil profile Format")
	}
}

func TestIDRoundTrip(t *testing.T) {
	id := uint64(0xdeadbeefcafe)
	s := FormatID(id)
	if len(s) != 16 {
		t.Fatalf("FormatID = %q", s)
	}
	back, err := ParseID(s)
	if err != nil || back != id {
		t.Fatalf("ParseID(%q) = %x, %v", s, back, err)
	}
	if _, err := ParseID("not-hex"); err == nil {
		t.Fatal("ParseID accepted garbage")
	}
}
