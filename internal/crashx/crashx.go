// Package crashx systematically explores crash points of the engine's
// durability protocol. It runs an LDBC Interactive Update mix against a
// persistent engine under the pmem crash-schedule controller, crashes
// before every flush/fence event in turn, recovers the durable image and
// runs the internal/fsck invariant checks on the result. A single
// violating schedule is enough to disprove failure atomicity (C4); zero
// violations over every enumerated point is the strongest evidence the
// harness can produce that the protocol holds.
//
// Every explored schedule has a compact, replayable identity
// (ScheduleID): dataset scale, workload seed, op count, event mask, the
// workload mix and the crash ordinal k. Replay re-executes exactly that
// schedule.
//
// Both workload mixes load the base dataset with ldbc.LoadCore (the bulk
// loader, then one index backfill per workload index) before the crash
// schedule is armed. The default ("iu") then commits one IU transaction
// at a time through Tx.Commit. The "ingest" mix commits its IU
// transactions in deterministic group-commit epochs through CommitBatch
// (so crash points land before and after the epoch leader's group
// fence).
package crashx

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"strconv"
	"strings"

	"poseidon/internal/core"
	"poseidon/internal/fsck"
	"poseidon/internal/index"
	"poseidon/internal/ldbc"
	"poseidon/internal/pmem"
	"poseidon/internal/query"
)

// Workload mixes. MixIU is the zero value: ScheduleIDs from before the
// ingest mix existed parse and replay unchanged.
const (
	MixIU     = ""       // one IU transaction per commit (classic path)
	MixIngest = "ingest" // group-commit epochs
)

// Options configures an exploration run.
type Options struct {
	// Persons scales the LDBC dataset (default 16).
	Persons int
	// Ops is the number of IU operations per run (default 20).
	Ops int
	// Seed drives both the op mix and the parameter generator (default 1).
	Seed int64
	// Mask selects which event classes are crash candidates (default
	// flush|drain: every durable-ordering point).
	Mask pmem.CrashEvents
	// Random, when > 0, samples that many crash points uniformly instead
	// of enumerating all of them (seeded by Seed, so still replayable).
	Random int
	// MaxPoints caps exhaustive enumeration (0 = no cap).
	MaxPoints int
	// PoolSize overrides the device size in bytes (default 16 MiB).
	PoolSize int
	// Shards sets the engine-core shard count for both the workload run
	// and every crash-recovery reopen (0 = the engine default). Sharded
	// runs exercise the per-shard undo-log lanes and the cross-shard
	// commit protocol under crash schedules.
	Shards int
	// Mix selects the workload (MixIU or MixIngest).
	Mix string
	// Progress, when non-nil, receives progress lines.
	Progress func(format string, args ...any)
}

func (o *Options) fill() {
	if o.Persons == 0 {
		o.Persons = 16
	}
	if o.Ops == 0 {
		o.Ops = 20
	}
	if o.Seed == 0 {
		o.Seed = 1
	}
	if o.Mask == 0 {
		o.Mask = pmem.EvFlush | pmem.EvDrain
	}
	if o.PoolSize == 0 {
		o.PoolSize = 16 << 20
	}
}

func (o *Options) logf(format string, args ...any) {
	if o.Progress != nil {
		o.Progress(format, args...)
	}
}

// ScheduleID identifies one crash schedule completely: re-running the
// same workload (Persons, Seed, Ops) with a crash armed before event K of
// the masked classes reproduces the same durable image.
type ScheduleID struct {
	Persons int
	Seed    int64
	Ops     int
	Mask    pmem.CrashEvents
	K       uint64
	// Mix is the workload mix; empty means the classic IU mix, so
	// schedule IDs minted before the ingest mix existed stay valid.
	Mix string
}

func (s ScheduleID) String() string {
	id := fmt.Sprintf("persons=%d,seed=%d,ops=%d,mask=%s,k=%d",
		s.Persons, s.Seed, s.Ops, s.Mask, s.K)
	if s.Mix != MixIU {
		id += ",mix=" + s.Mix
	}
	return id
}

// ParseScheduleID parses the String form back into a schedule.
func ParseScheduleID(in string) (ScheduleID, error) {
	var s ScheduleID
	for _, part := range strings.Split(in, ",") {
		key, val, ok := strings.Cut(part, "=")
		if !ok {
			return s, fmt.Errorf("crashx: bad schedule field %q", part)
		}
		var err error
		switch key {
		case "persons":
			s.Persons, err = strconv.Atoi(val)
		case "seed":
			s.Seed, err = strconv.ParseInt(val, 10, 64)
		case "ops":
			s.Ops, err = strconv.Atoi(val)
		case "mask":
			s.Mask, err = pmem.ParseCrashEvents(val)
		case "k":
			s.K, err = strconv.ParseUint(val, 10, 64)
		case "mix":
			if val != MixIngest {
				err = fmt.Errorf("unknown mix %q", val)
			}
			s.Mix = val
		default:
			return s, fmt.Errorf("crashx: unknown schedule field %q", key)
		}
		if err != nil {
			return s, fmt.Errorf("crashx: schedule field %q: %w", part, err)
		}
	}
	if s.Persons == 0 || s.Ops == 0 || s.Mask == 0 {
		return s, fmt.Errorf("crashx: incomplete schedule %q", in)
	}
	return s, nil
}

// Violation is one crash schedule whose recovered image failed
// verification (or failed to recover at all).
type Violation struct {
	Schedule ScheduleID
	// Report holds the fsck findings; nil when recovery itself failed.
	Report *fsck.Report
	// RecoverErr is set when Reopen failed after the crash.
	RecoverErr error
}

func (v Violation) String() string {
	if v.RecoverErr != nil {
		return fmt.Sprintf("schedule[%s]: recovery failed: %v", v.Schedule, v.RecoverErr)
	}
	return fmt.Sprintf("schedule[%s]: %s", v.Schedule, v.Report)
}

// Result summarizes an exploration.
type Result struct {
	// TotalEvents is the number of maskable events in a crash-free run.
	TotalEvents uint64
	// Points is the number of crash points explored.
	Points int
	// Violations holds every violating schedule, shrunk to the minimal op
	// count that still reproduces it.
	Violations []Violation
}

// harness owns one device and the immutable workload inputs; each
// iteration reloads the base image into the same device.
type harness struct {
	opts  Options
	cfg   core.Config
	dev   *pmem.Device
	image []byte
	ds    *ldbc.Dataset
	plans []*query.Plan
}

func newHarness(opts Options) (*harness, error) {
	cfg := core.Config{
		Mode:     core.PMem,
		PoolSize: opts.PoolSize,
		LogCap:   256 << 10,
		Shards:   opts.Shards,
		Profile:  &pmem.Profile{}, // latency model off: exploration is about ordering, not timing
	}
	if opts.Mix != MixIU && opts.Mix != MixIngest {
		return nil, fmt.Errorf("crashx: unknown mix %q", opts.Mix)
	}
	e, err := core.Open(cfg)
	if err != nil {
		return nil, fmt.Errorf("crashx: open: %w", err)
	}
	defer e.Close()
	ds := ldbc.Generate(ldbc.Config{Persons: opts.Persons, Seed: opts.Seed})
	if err := ds.LoadCore(e, true, index.Hybrid); err != nil {
		return nil, fmt.Errorf("crashx: load dataset: %w", err)
	}

	h := &harness{opts: opts, cfg: cfg, dev: e.Device(), ds: ds}
	// Checkpoint every line back to media (a clean shutdown) so the base
	// image is complete even when the commit path is deliberately broken
	// (crashmutate builds): the planted bug must surface through crash
	// schedules, not by corrupting the baseline itself.
	h.dev.Flush(0, uint64(h.dev.Size()))
	h.dev.Drain()
	var buf bytes.Buffer
	if err := h.dev.Save(&buf); err != nil {
		return nil, fmt.Errorf("crashx: save base image: %w", err)
	}
	h.image = buf.Bytes()

	for _, q := range ldbc.IUQueries() {
		plan, err := ldbc.IUPlan(q, true)
		if err != nil {
			return nil, fmt.Errorf("crashx: IU%d plan: %w", q.Num, err)
		}
		h.plans = append(h.plans, plan)
	}
	return h, nil
}

// outcome is the observation from one armed run.
type outcome struct {
	events     uint64 // maskable events counted (full run if no crash fired)
	fired      bool
	opsStarted int // ops begun before the crash (= ops needed to replay it)
	violation  *Violation
}

// verifyBase recovers the base image without running any ops and checks
// it, so every violation later is attributable to a crash schedule.
func (h *harness) verifyBase(ctx context.Context) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	if err := h.dev.Load(bytes.NewReader(h.image)); err != nil {
		return fmt.Errorf("crashx: reload base image: %w", err)
	}
	e, err := core.Reopen(h.dev, h.cfg)
	if err != nil {
		return fmt.Errorf("crashx: reopen base image: %w", err)
	}
	rep := fsck.Check(e)
	e.Close()
	if !rep.OK() {
		return fmt.Errorf("crashx: base image is not clean: %s", rep)
	}
	return nil
}

// runOnce reloads the base image and replays the op mix with a crash
// armed before event k. With k == 0 it only counts maskable events (no
// crash fires and the final image is not power-cycled or checked).
func (h *harness) runOnce(ctx context.Context, k uint64) (*outcome, error) {
	if err := h.dev.Load(bytes.NewReader(h.image)); err != nil {
		return nil, fmt.Errorf("crashx: reload base image: %w", err)
	}
	e, err := core.Reopen(h.dev, h.cfg)
	if err != nil {
		return nil, fmt.Errorf("crashx: reopen base image: %w", err)
	}
	preps := make([]*query.Prepared, len(h.plans))
	for i, p := range h.plans {
		if preps[i], err = query.Prepare(e, p); err != nil {
			e.Close()
			return nil, fmt.Errorf("crashx: prepare IU%d: %w", i+1, err)
		}
	}

	h.dev.ArmCrash(h.opts.Mask, k)
	run := h.runOps
	if h.opts.Mix == MixIngest {
		run = h.runIngestOps
	}
	started, runErr := run(ctx, e, preps)
	// Close the live engine before reopening: the pool registry is keyed
	// by UUID and closing after Reopen would deregister the new pool.
	e.Close()
	events, fired := h.dev.DisarmCrash()
	if runErr != nil {
		return nil, runErr
	}

	out := &outcome{events: events, fired: fired, opsStarted: started}
	if k == 0 {
		return out, nil
	}
	// Power-cycle: the CPU view is discarded, only flushed lines survive.
	h.dev.Crash()
	sched := ScheduleID{Persons: h.opts.Persons, Seed: h.opts.Seed, Ops: h.opts.Ops, Mask: h.opts.Mask, K: k, Mix: h.opts.Mix}
	e2, err := core.Reopen(h.dev, h.cfg)
	if err != nil {
		out.violation = &Violation{Schedule: sched, RecoverErr: err}
		return out, nil
	}
	rep := fsck.Check(e2)
	e2.Close()
	if !rep.OK() {
		out.violation = &Violation{Schedule: sched, Report: rep}
	}
	return out, nil
}

// runOps executes the deterministic IU mix, one transaction per op,
// stopping at an injected crash. It returns the number of ops started.
func (h *harness) runOps(ctx context.Context, e *core.Engine, preps []*query.Prepared) (started int, err error) {
	defer func() {
		if r := recover(); r != nil {
			if _, ok := r.(*pmem.InjectedCrash); ok {
				return // the armed crash; everything after is recovery's problem
			}
			panic(r)
		}
	}()
	pg := ldbc.NewParamGen(h.ds, h.opts.Seed)
	mix := rand.New(rand.NewSource(h.opts.Seed))
	qs := ldbc.IUQueries()
	for i := 0; i < h.opts.Ops; i++ {
		if err := ctx.Err(); err != nil {
			return started, err
		}
		q := qs[mix.Intn(len(qs))]
		params := pg.IUParams(q)
		started++
		tx := e.Begin()
		if err := preps[q.Num-1].RunCtx(ctx, tx, params, func(query.Row) bool { return true }); err != nil {
			tx.Abort()
			return started, fmt.Errorf("crashx: IU%d: %w", q.Num, err)
		}
		if err := tx.Commit(); err != nil {
			return started, fmt.Errorf("crashx: IU%d commit: %w", q.Num, err)
		}
	}
	return started, nil
}

// ingestEpoch is the group-commit epoch size of the ingest mix: small
// enough that a short run spans several epochs (each epoch boundary is a
// leader group fence with crash points on both sides), large enough that
// epochs batch real work.
const ingestEpoch = 4

// ingestChurn is the number of churn epochs after every full IU epoch
// (alternately creating and deleting). Only a churn epoch's lane commit
// — some twenty flush events — rides on the publication fence alone, and
// a sampled sweep has to land in one: with a single churn epoch per IU
// epoch a 250-point sample of a short run expects about one hit, so
// whether the groupfence mutant was caught hung on the seed.
const ingestChurn = 4

// runIngestOps executes the deterministic IU mix through the
// write-optimized ingest path: transactions accumulate into
// ingestEpoch-sized batches committed through CommitBatch (the
// deterministic group-commit entry — one leader, one group fence per
// epoch). An injected crash can therefore land before the leader's group
// fence or after it (mid epoch apply). Returns the number of IU ops
// started.
//
// After every IU epoch, ingestChurn churn epochs of property-less
// CreateRel (or, alternating, DeleteRel) transactions commit. Their
// apply phase is short and writes only ranges the leader pre-covered
// with SnapshotAll, so a sampled crash point often lands in an epoch
// that depends on the leader's single fence alone — exactly what the
// groupfence crashmutate build breaks. (IU epochs depend on it alone
// too: a commit covers every range it writes, its property slots' bitmap
// words included, with the one SnapshotAll.)
func (h *harness) runIngestOps(ctx context.Context, e *core.Engine, preps []*query.Prepared) (started int, err error) {
	defer func() {
		if r := recover(); r != nil {
			if _, ok := r.(*pmem.InjectedCrash); ok {
				return // the armed crash; everything after is recovery's problem
			}
			panic(r)
		}
	}()
	pg := ldbc.NewParamGen(h.ds, h.opts.Seed)
	mix := rand.New(rand.NewSource(h.opts.Seed))
	qs := ldbc.IUQueries()
	nNodes := uint64(len(h.ds.Nodes)) // base-load node ids are 0..nNodes-1

	batch := make([]*core.Tx, 0, ingestEpoch)
	flush := func() {
		if len(batch) == 0 {
			return
		}
		// Member aborts (commit-time validation) are a legitimate part of
		// the workload and deterministic under the fixed seed; the sweep
		// judges the recovered image, not workload success.
		e.CommitBatch(batch)
		batch = batch[:0]
	}

	churnPair := 0
	var churnLive []uint64 // churn-created rel ids awaiting a delete epoch
	churnEpoch := func() error {
		txs := make([]*core.Tx, 0, ingestEpoch)
		var created []uint64
		if len(churnLive) >= ingestEpoch {
			// Delete epoch: each member tombstones one rel — a single
			// pre-covered record write per transaction.
			for _, id := range churnLive[:ingestEpoch] {
				tx := e.Begin()
				if err := tx.DeleteRel(id); err != nil {
					tx.Abort()
					return fmt.Errorf("crashx: churn delete rel %d: %w", id, err)
				}
				txs = append(txs, tx)
			}
			churnLive = churnLive[ingestEpoch:]
		} else {
			// Create epoch: property-less rels between disjoint base-node
			// pairs (no prop chain, so commit allocates nothing new; the
			// pairs are disjoint so members never contend for write locks).
			for j := 0; j < ingestEpoch; j++ {
				src := (uint64(churnPair) * 2) % nNodes
				dst := (uint64(churnPair)*2 + 1) % nNodes
				churnPair++
				tx := e.Begin()
				id, err := tx.CreateRel(src, dst, "knows", nil)
				if err != nil {
					tx.Abort()
					return fmt.Errorf("crashx: churn create rel %d->%d: %w", src, dst, err)
				}
				txs = append(txs, tx)
				created = append(created, id)
			}
		}
		for i, err := range e.CommitBatch(txs) {
			if err == nil && created != nil {
				churnLive = append(churnLive, created[i])
			}
		}
		return nil
	}

	for i := 0; i < h.opts.Ops; i++ {
		if err := ctx.Err(); err != nil {
			return started, err
		}
		q := qs[mix.Intn(len(qs))]
		params := pg.IUParams(q)
		started++
		tx := e.Begin()
		if err := preps[q.Num-1].RunCtx(ctx, tx, params, func(query.Row) bool { return true }); err != nil {
			// Two in-flight epoch members touched the same record (write
			// locks are taken at operation time): drain the epoch, then
			// retry once against committed state. Same seed, same
			// conflicts — the schedule stays replayable.
			tx.Abort()
			flush()
			tx = e.Begin()
			if err := preps[q.Num-1].RunCtx(ctx, tx, params, func(query.Row) bool { return true }); err != nil {
				tx.Abort()
				return started, fmt.Errorf("crashx: ingest IU%d: %w", q.Num, err)
			}
		}
		if batch = append(batch, tx); len(batch) == ingestEpoch {
			flush()
			for c := 0; c < ingestChurn; c++ {
				if err := churnEpoch(); err != nil {
					return started, err
				}
			}
		}
	}
	flush()
	return started, nil
}

// Explore enumerates (or samples) crash points over the configured
// workload and fsck-checks the recovered image at each one.
func Explore(ctx context.Context, opts Options) (*Result, error) {
	opts.fill()
	h, err := newHarness(opts)
	if err != nil {
		return nil, err
	}

	// The base image must be clean before any crash is interesting.
	if err := h.verifyBase(ctx); err != nil {
		return nil, err
	}
	// Dry run: count the maskable events of a crash-free execution.
	dry, err := h.runOnce(ctx, 0)
	if err != nil {
		return nil, err
	}
	res := &Result{TotalEvents: dry.events}
	opts.logf("workload generates %d %s events over %d ops", dry.events, opts.Mask, opts.Ops)

	var points []uint64
	switch {
	case opts.Random > 0:
		rng := rand.New(rand.NewSource(opts.Seed))
		n := opts.Random
		if uint64(n) > dry.events {
			n = int(dry.events)
		}
		for _, p := range rng.Perm(int(dry.events))[:n] {
			points = append(points, uint64(p)+1)
		}
	default:
		n := dry.events
		if opts.MaxPoints > 0 && uint64(opts.MaxPoints) < n {
			n = uint64(opts.MaxPoints)
		}
		for k := uint64(1); k <= n; k++ {
			points = append(points, k)
		}
	}

	for i, k := range points {
		if err := ctx.Err(); err != nil {
			return res, err
		}
		out, err := h.runOnce(ctx, k)
		if err != nil {
			return res, err
		}
		res.Points++
		if out.violation != nil {
			v := h.shrink(ctx, *out.violation, out.opsStarted)
			res.Violations = append(res.Violations, v)
			opts.logf("VIOLATION %s", v)
		}
		if (i+1)%50 == 0 {
			opts.logf("explored %d/%d crash points, %d violations", i+1, len(points), len(res.Violations))
		}
	}
	return res, nil
}

// shrink reduces a violating schedule to the ops actually started before
// the crash (later ops never ran, so they cannot matter) and keeps the
// reduction only if it still reproduces a violation.
func (h *harness) shrink(ctx context.Context, v Violation, opsStarted int) Violation {
	if opsStarted <= 0 || opsStarted >= h.opts.Ops {
		return v
	}
	small := h.opts
	small.Ops = opsStarted
	hs := &harness{opts: small, cfg: h.cfg, dev: h.dev, image: h.image, ds: h.ds, plans: h.plans}
	out, err := hs.runOnce(ctx, v.Schedule.K)
	if err != nil || out.violation == nil {
		return v // shrinking is best-effort; keep the original evidence
	}
	return *out.violation
}

// Replay re-executes one schedule and returns its violation, or nil if
// the image checked out clean (i.e. the schedule no longer reproduces).
func Replay(ctx context.Context, sched ScheduleID) (*Violation, error) {
	opts := Options{Persons: sched.Persons, Ops: sched.Ops, Seed: sched.Seed, Mask: sched.Mask, Mix: sched.Mix}
	opts.fill()
	h, err := newHarness(opts)
	if err != nil {
		return nil, err
	}
	out, err := h.runOnce(ctx, sched.K)
	if err != nil {
		return nil, err
	}
	return out.violation, nil
}
