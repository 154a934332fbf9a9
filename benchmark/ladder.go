package main

import (
	"bytes"
	"context"
	"fmt"
	"sort"
	"time"

	"poseidon"
	"poseidon/internal/jit"
	"poseidon/internal/pmem"
	"poseidon/internal/query"
	"poseidon/internal/wire"
)

// span is one recorded interval. Parent indexes the same rung's span
// list (-1 for a root); spans of one op share Op. The device counters
// are deltas over the interval, taken where the work happens so ratios
// such as reads per lookup are exact on a one-client replay.
type span struct {
	Name    string `json:"name"`
	Op      int    `json:"op"`
	Parent  int    `json:"parent"`
	Start   int64  `json:"start_ns"`
	End     int64  `json:"end_ns"`
	Self    int64  `json:"self_ns"`
	Reads   uint64 `json:"reads"`
	Misses  uint64 `json:"cache_misses"`
	Flushes uint64 `json:"line_flushes"`
	Drains  uint64 `json:"drains"`
}

func (s *span) dur() int64 { return s.End - s.Start }

// spanLog collects spans in memory; they are written out when the
// benchmark ends. A nil log records nothing, which is how the untraced
// replay of a rung runs the identical code path.
type spanLog struct {
	t0    time.Time
	stats *pmem.Stats
	spans []span
	pre   []pmem.StatsSnapshot
}

func newSpanLog(stats *pmem.Stats, capacity int) *spanLog {
	return &spanLog{
		t0: time.Now(), stats: stats,
		spans: make([]span, 0, capacity), pre: make([]pmem.StatsSnapshot, 0, capacity),
	}
}

func (l *spanLog) begin(name string, op, parent int) int {
	if l == nil {
		return -1
	}
	l.pre = append(l.pre, l.stats.Snapshot())
	l.spans = append(l.spans, span{Name: name, Op: op, Parent: parent, Start: int64(time.Since(l.t0))})
	return len(l.spans) - 1
}

func (l *spanLog) end(i int) {
	if l == nil {
		return
	}
	s := &l.spans[i]
	s.End = int64(time.Since(l.t0))
	d := l.stats.Snapshot().Sub(l.pre[i])
	s.Reads, s.Misses, s.Flushes, s.Drains = d.Reads, d.CacheMisses, d.LineFlushes, d.Drains
}

// fillSelf sets every span's self time: its duration minus the part of
// that interval its child spans cover (overlapping children count once).
func fillSelf(spans []span) {
	kids := make(map[int][]int)
	for i := range spans {
		if p := spans[i].Parent; p >= 0 {
			kids[p] = append(kids[p], i)
		}
	}
	for i := range spans {
		s := &spans[i]
		ks := kids[i]
		sort.Slice(ks, func(a, b int) bool { return spans[ks[a]].Start < spans[ks[b]].Start })
		covered, edge := int64(0), s.Start
		for _, k := range ks {
			from, to := spans[k].Start, spans[k].End
			if from < edge {
				from = edge
			}
			if to > s.End {
				to = s.End
			}
			if to > from {
				covered += to - from
				edge = to
			}
		}
		s.Self = s.dur() - covered
	}
}

// perOpSum adds up, per op, the duration (µs) of the spans called name.
// Retried attempts of one op contribute every attempt.
func perOpSum(spans []span, name string, ops int) []float64 {
	out := make([]float64, ops)
	for i := range spans {
		if spans[i].Name == name {
			out[spans[i].Op] += float64(spans[i].dur()) / 1e3
		}
	}
	return out
}

// ladder replays one seeded slice of a workload's stream at each rung of
// the stack, from the engine calls up to the client connection.
type ladder struct {
	e        *env
	seed     int64
	nextPart int
	jit      *jit.Engine
	srPrep   []*query.Prepared
	iuPrep   []*query.Prepared

	ops   []op // the stream slice, as dealt for the first rung
	rungs map[string][]span
	t     tally // every replayed op, for the result checks

	// per-op µs at each rung
	begin, run, end, session, request, codec []float64
	tracedOpsPerS, untracedOpsPerS           float64
	codecSamples                             map[string][]float64 // ns per message, by "encode_run" etc.
	wireBytes, wireFrames                    int
}

func newLadder(e *env, seed int64) (*ladder, error) {
	j, err := jit.New(e.db.Engine())
	if err != nil {
		return nil, fmt.Errorf("ladder: %w", err)
	}
	ld := &ladder{e: e, seed: seed, nextPart: 16, jit: j, rungs: map[string][]span{}, codecSamples: map[string][]float64{}}
	if ld.srPrep, err = prepareAll(e, e.srPlans); err != nil {
		return nil, err
	}
	if ld.iuPrep, err = prepareAll(e, e.iuPlans); err != nil {
		return nil, err
	}
	return ld, nil
}

func prepareAll(e *env, plans []*query.Plan) ([]*query.Prepared, error) {
	out := make([]*query.Prepared, len(plans))
	for i, p := range plans {
		pr, err := query.Prepare(e.db.Engine(), p)
		if err != nil {
			return nil, fmt.Errorf("ladder: %w", err)
		}
		out[i] = pr
	}
	return out, nil
}

// deal draws the replay slice again: the same seed picks the same
// queries and existing entities, a new partition gives the inserts
// fresh business ids.
func (ld *ladder) deal() []op {
	g := newOpGen(ld.e, ld.seed, ld.nextPart)
	ld.nextPart++
	ops := make([]op, ld.e.w.ladderOps)
	for i := range ops {
		ops[i] = g.next()
	}
	return ops
}

// rung is one level of the ladder: its own deal of the replay slice (so
// inserts get fresh ids), its own span log, and how it runs one op.
type rung struct {
	name, root string
	ops        []op
	log        *spanLog // nil: the untraced control of the top rung
	attempt    func(l *spanLog, i int, o op, root int) (int, error)
	wall       time.Duration
}

func (ld *ladder) newRung(name, root string, traced bool, attempt func(l *spanLog, i int, o op, root int) (int, error)) *rung {
	r := &rung{name: name, root: root, ops: ld.deal(), attempt: attempt}
	if traced {
		r.log = newSpanLog(&ld.e.db.Device().Stats, 5*len(r.ops))
	}
	return r
}

// replay runs ops[lo:hi] of a rung, one root span per op.
func (ld *ladder) replay(r *rung, lo, hi int) {
	for i := lo; i < hi; i++ {
		o := r.ops[i]
		ld.e.beforeOp()
		t0 := time.Now()
		root := r.log.begin(r.root, i, -1)
		out := retrying(ld.e, o, func() (int, error) { return r.attempt(r.log, i, o, root) })
		r.log.end(root)
		d := time.Since(t0)
		r.wall += d
		ld.t.record(ld.e, o, out, d)
	}
}

// climb replays the slice at every rung. The rungs take turns block by
// block, and the turn order rotates, so drift in the host's speed and
// the state of the simulated CPU cache fall on all rungs alike: means
// of matched ops then differ by what the extra layer costs, not by when
// each rung happened to run.
func (ld *ladder) climb(rungs []*rung) {
	n := ld.e.w.ladderOps
	block := max(1, n/12)
	for b := 0; b*block < n; b++ {
		for k := range rungs {
			ld.replay(rungs[(b+k)%len(rungs)], b*block, min(n, (b+1)*block))
		}
	}
	for _, r := range rungs {
		if r.log != nil {
			fillSelf(r.log.spans)
			ld.rungs[r.name] = r.log.spans
		}
	}
}

// execOnce is the exec rung: the calls a Session makes on the engine,
// made directly.
func (ld *ladder) execOnce(ctx context.Context, log *spanLog, i int, o op, root int) (int, error) {
	eng := ld.e.db.Engine()
	s := log.begin("core.begin", i, root)
	tx := eng.Begin()
	log.end(s)

	n := 0
	emit := func(query.Row) bool { n++; return true }
	s = log.begin("exec.run", i, root)
	var err error
	switch {
	case !o.sr:
		err = ld.iuPrep[o.qi].RunCtx(ctx, tx, o.params, emit)
	case ld.e.w.mode == poseidon.Adaptive:
		_, err = ld.jit.RunAdaptiveCtx(ctx, tx, ld.e.srPlans[o.qi], o.params, ld.e.w.clientWorkers(), emit)
	default:
		err = ld.srPrep[o.qi].RunCtx(ctx, tx, o.params, emit)
	}
	log.end(s)
	if err != nil {
		tx.Abort()
		return 0, err
	}
	if o.sr {
		s = log.begin("core.abort", i, root)
		tx.Abort() // a read-only snapshot ends by rollback, as Session.Query does
		log.end(s)
		return n, nil
	}
	s = log.begin("core.commit", i, root)
	err = tx.Commit()
	log.end(s)
	return n, err
}

// runAll climbs the ladder. ctx bounds every statement.
func (ld *ladder) runAll(ctx context.Context) error {
	e, n := ld.e, ld.e.w.ladderOps

	// Rung exec: the engine calls a Session makes, made directly. Its
	// statements and code cache are the ladder's own, so warm them.
	exec := func(l *spanLog, i int, o op, root int) (int, error) { return ld.execOnce(ctx, l, i, o, root) }
	ld.replay(ld.newRung("", "", false, exec), 0, n/4)
	rExec := ld.newRung("exec", "op", true, exec)
	ld.ops = rExec.ops

	// Rung session: the same ops through Session.QueryAll/Exec.
	sess := e.db.NewSession(poseidon.SessionConfig{Mode: e.w.mode, Workers: e.w.clientWorkers()})
	defer sess.Close()
	sr := &runner{e: e, sess: sess}
	viaSession := func(_ *spanLog, _ int, o op, _ int) (int, error) { return sr.once(ctx, o) }
	rSession := ld.newRung("session", "poseidon.session", true, viaSession)
	rungs := []*rung{rExec, rSession}
	top, viaTop := rSession, viaSession

	// Rung wire: the same ops through one client connection.
	var rows [][][]any
	if e.w.wire {
		wr, err := newRunner(e, ld.seed, 0)
		if err != nil {
			return err
		}
		defer wr.close()
		rows = make([][][]any, n)
		viaTop = func(l *spanLog, i int, o op, _ int) (n int, err error) {
			var r [][]any
			r, n, err = wr.fetch(ctx, o)
			if l != nil {
				rows[i] = r
			}
			return n, err
		}
		top = ld.newRung("wire", "client.request", true, viaTop)
		rungs = append(rungs, top)
	}
	// The top rung once more with no span log: the tracing overhead.
	control := ld.newRung("", "", false, viaTop)
	ld.climb(append(rungs, control))

	ld.begin = perOpSum(rExec.log.spans, "core.begin", n)
	ld.run = perOpSum(rExec.log.spans, "exec.run", n)
	ld.end = perOpSum(rExec.log.spans, "core.commit", n)
	for i, v := range perOpSum(rExec.log.spans, "core.abort", n) {
		ld.end[i] += v
	}
	ld.session = perOpSum(rSession.log.spans, rSession.root, n)
	ld.tracedOpsPerS = float64(n) / top.wall.Seconds()
	ld.untracedOpsPerS = float64(n) / control.wall.Seconds()
	if !e.w.wire {
		return nil
	}
	ld.request = perOpSum(top.log.spans, top.root, n)
	// Then the codec alone, on the messages those ops exchanged.
	return ld.codecRung(top.ops, rows)
}

// codecRung encodes and decodes, on a bytes.Buffer, the exact messages
// each wire-rung op put on the connection.
func (ld *ladder) codecRung(ops []op, rows [][][]any) error {
	var buf bytes.Buffer
	log := newSpanLog(&ld.e.db.Device().Stats, 8*len(ops))
	ld.codec = make([]float64, len(ops))
	for i, o := range ops {
		msgs := []wire.Message{&wire.Run{Text: ld.e.stmtText(o), Params: o.params, Mode: wire.ModeDefault}}
		if o.sr {
			msgs = append(msgs, &wire.Success{Meta: map[string]any{"streaming": true}}, &wire.Pull{N: -1})
			for _, r := range rows[i] {
				msgs = append(msgs, &wire.Record{Values: r})
			}
			msgs = append(msgs, &wire.Success{Meta: map[string]any{"has_more": false}})
		} else {
			msgs = append(msgs, &wire.Success{Meta: map[string]any{"rows_affected": int64(1), "committed": true}})
		}
		root := log.begin("wire.codec", i, -1)
		for _, m := range msgs {
			kind := wire.MsgName(m.Type())
			buf.Reset()
			s := log.begin("wire.encode."+kind, i, root)
			err := wire.WriteMessage(&buf, m)
			log.end(s)
			if err != nil {
				return fmt.Errorf("codec rung: encode %s: %w", kind, err)
			}
			ld.wireBytes += buf.Len()
			ld.wireFrames++
			ld.addCodecSample("encode", m, log.spans[s].dur())
			s = log.begin("wire.decode."+kind, i, root)
			_, err = wire.ReadMessage(&buf)
			log.end(s)
			if err != nil {
				return fmt.Errorf("codec rung: decode %s: %w", kind, err)
			}
			ld.addCodecSample("decode", m, log.spans[s].dur())
		}
		log.end(root)
	}
	fillSelf(log.spans)
	// Encode plus decode of every message is what the two ends of the
	// connection spend on the codec; the buffer resets between messages
	// sit in the root's self time and are left out.
	for i := range log.spans {
		if s := &log.spans[i]; s.Parent >= 0 {
			ld.codec[s.Op] += float64(s.dur()) / 1e3
		}
	}
	ld.rungs["codec"] = log.spans
	return nil
}

func (ld *ladder) addCodecSample(dir string, m wire.Message, ns int64) {
	switch m.(type) {
	case *wire.Run:
		ld.codecSamples[dir+"_run"] = append(ld.codecSamples[dir+"_run"], float64(ns))
	case *wire.Record:
		ld.codecSamples[dir+"_record"] = append(ld.codecSamples[dir+"_record"], float64(ns))
	}
}

// classMean averages v over the ops of one class.
func (ld *ladder) classMean(v []float64, sr bool) float64 {
	sum, n := 0.0, 0
	for i, o := range ld.ops {
		if o.sr == sr && i < len(v) {
			sum += v[i]
			n++
		}
	}
	return perOp(sum, n)
}
