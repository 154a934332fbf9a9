package jit

import (
	"context"
	"errors"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"poseidon/internal/core"
	"poseidon/internal/query"
	"poseidon/internal/trace"
)

// The morsel loop is written once (query.Split.RunMorsels) and
// driven with two tasks: the interpreter's pipeline and compiled code.
// These tests run its contract — early stop, first error, cancellation —
// through both, over a plan that streams and one with a tail.

const driverWorkers = 3

func driverPlans() map[string]*query.Plan {
	young := &query.Filter{
		Input: &query.NodeScan{Label: "Person"},
		Pred:  &query.Cmp{Op: query.Lt, L: &query.Prop{Col: 0, Key: "age"}, R: &query.Const{Val: 60}},
	}
	return map[string]*query.Plan{
		"streaming": {Root: &query.Project{Input: young, Cols: []query.Expr{&query.Prop{Col: 0, Key: "pid"}}}},
		"with-tail": {Root: &query.Project{
			Input: &query.OrderBy{Input: young, Key: &query.Prop{Col: 0, Key: "pid"}},
			Cols:  []query.Expr{&query.Prop{Col: 0, Key: "pid"}},
		}},
	}
}

// taskMakers builds the two per-worker tasks the driver is handed in
// production: the interpreter's closure cascade and the compiled morsel
// program.
var taskMakers = map[string]func(*testing.T, *Engine, *query.Plan, *query.Split, *query.Ctx) func(query.Sink) (query.MorselTask, error){
	"interpreter": func(_ *testing.T, _ *Engine, _ *query.Plan, mp *query.Split, ctx *query.Ctx) func(query.Sink) (query.MorselTask, error) {
		return func(out query.Sink) (query.MorselTask, error) {
			var morsel uint64
			run, err := mp.PipelineRunner(ctx, &morsel, out)
			return func(m uint64) error { morsel = m; return run() }, err
		}
	},
	"compiled": func(t *testing.T, j *Engine, plan *query.Plan, _ *query.Split, ctx *query.Ctx) func(query.Sink) (query.MorselTask, error) {
		c, err := j.CompileCtx(context.Background(), plan)
		if err != nil {
			t.Fatal(err)
		}
		return func(out query.Sink) (query.MorselTask, error) {
			exec := c.Prog.NewExec()
			return func(m uint64) error { return exec.Run(ctx, m, out) }, nil
		}
	},
}

// forEachDriverCase runs body once per {task} × {plan} over a fresh run
// context; wrap lets the case inject faults around the real task.
func forEachDriverCase(t *testing.T, body func(t *testing.T, cancel context.CancelFunc, morsels uint64,
	run func(emit func(query.Row) bool, wrap func(query.MorselTask) query.MorselTask) error)) {
	e, _ := buildGraph(t, core.DRAM)
	j, err := New(e)
	if err != nil {
		t.Fatal(err)
	}
	morsels := query.MorselCount(e.Nodes().MaxID(), e.Nodes().ChunkCap())
	if morsels <= driverWorkers {
		t.Fatalf("%d morsels cannot keep %d workers claiming", morsels, driverWorkers)
	}
	for taskName, maker := range taskMakers {
		for planName, plan := range driverPlans() {
			t.Run(taskName+"/"+planName, func(t *testing.T) {
				mp := plan.Split()
				if !mp.Morsels() {
					t.Fatal("plan does not split into morsels")
				}
				cctx, cancel := context.WithCancel(context.Background())
				defer cancel()
				tx := e.Begin()
				defer tx.Abort()
				ctx, err := query.NewCtx(cctx, e, tx, nil)
				if err != nil {
					t.Fatal(err)
				}
				defer ctx.Detach()
				newTask := maker(t, j, plan, mp, ctx)
				body(t, cancel, morsels, func(emit func(query.Row) bool, wrap func(query.MorselTask) query.MorselTask) error {
					return mp.RunMorsels(ctx, driverWorkers, emit, func(out query.Sink) (query.MorselTask, error) {
						task, err := newTask(out)
						if err != nil || wrap == nil {
							return task, err
						}
						return wrap(task), nil
					})
				})
			})
		}
	}
}

// TestMorselDriverStopsAtEmit: once emit has returned false — after k
// rows — it is never called again, the run ends without an error and the
// workers stop claiming.
func TestMorselDriverStopsAtEmit(t *testing.T) {
	forEachDriverCase(t, func(t *testing.T, _ context.CancelFunc, morsels uint64,
		run func(func(query.Row) bool, func(query.MorselTask) query.MorselTask) error) {
		var all int
		if err := run(func(query.Row) bool { all++; return true }, nil); err != nil {
			t.Fatal(err)
		}
		const k = 7
		if all <= k {
			t.Fatalf("the plan yields %d rows, the test needs more than %d", all, k)
		}
		var rows int
		if err := run(func(query.Row) bool { rows++; return rows < k }, nil); err != nil {
			t.Fatalf("an early stop is not an error: %v", err)
		}
		if rows != k {
			t.Errorf("emit was called %d times, want exactly %d", rows, k)
		}
	})
}

// TestMorselDriverFirstErrorWins: with every worker inside a task, one
// fails; the others are held until its goroutine is gone and one of them
// then fails differently. The run reports the first error, and nobody
// claims another morsel after it.
func TestMorselDriverFirstErrorWins(t *testing.T) {
	errFirst, errLater := errors.New("first"), errors.New("later")
	forEachDriverCase(t, func(t *testing.T, _ context.CancelFunc, morsels uint64,
		run func(func(query.Row) bool, func(query.MorselTask) query.MorselTask) error) {
		var claimed, arrived atomic.Int64
		inTasks := make(chan struct{}) // closed once every worker is in a task
		var goroutines atomic.Int64    // how many ran at that moment
		err := run(func(query.Row) bool { return true }, func(task query.MorselTask) query.MorselTask {
			return func(m uint64) error {
				claimed.Add(1)
				if err := task(m); err != nil {
					return err
				}
				switch n := arrived.Add(1); {
				case n == driverWorkers: // the last one in fails first
					goroutines.Store(int64(runtime.NumGoroutine()))
					close(inTasks)
					return errFirst
				case n > driverWorkers:
					return nil // a claim after the failure: counted above
				default:
					<-inTasks
					deadline := time.Now().Add(5 * time.Second)
					for int64(runtime.NumGoroutine()) >= goroutines.Load() {
						if time.Now().After(deadline) {
							t.Error("the failed worker's goroutine is still running")
							break
						}
						runtime.Gosched()
					}
					if n == 1 {
						return errLater
					}
					return nil
				}
			}
		})
		if err != errFirst {
			t.Errorf("err = %v, want the first worker's", err)
		}
		if n := claimed.Load(); n != driverWorkers {
			t.Errorf("%d morsels of %d were claimed, want one per worker: a recorded error stops the claiming", n, morsels)
		}
	})
}

// TestMorselDriverCancellationWins: a worker racing the abort surfaces
// ErrTxDone before anyone reports the cancellation; the run still answers
// with the context's error.
func TestMorselDriverCancellationWins(t *testing.T) {
	forEachDriverCase(t, func(t *testing.T, cancel context.CancelFunc, _ uint64,
		run func(func(query.Row) bool, func(query.MorselTask) query.MorselTask) error) {
		err := run(func(query.Row) bool { return true }, func(task query.MorselTask) query.MorselTask {
			return func(m uint64) error {
				cancel()
				_ = task(m) // aborts the transaction under the others
				return core.ErrTxDone
			}
		})
		if !errors.Is(err, context.Canceled) {
			t.Errorf("err = %v, want context.Canceled", err)
		}
	})
}

// TestWorkerSpansInBothMorselModes: with tracing on, the interpreter's
// morsel run and the adaptive one each leave one query.worker span per
// worker, and the morsels those spans claim add up to the table's.
func TestWorkerSpansInBothMorselModes(t *testing.T) {
	e, _ := buildGraph(t, core.DRAM)
	j, err := New(e)
	if err != nil {
		t.Fatal(err)
	}
	morsels := int64(query.MorselCount(e.Nodes().MaxID(), e.Nodes().ChunkCap()))
	for planName, plan := range driverPlans() {
		pr, err := query.Prepare(e, plan)
		if err != nil {
			t.Fatal(err)
		}
		for mode, run := range map[string]func(context.Context, *core.Tx) error{
			"parallel": func(ctx context.Context, tx *core.Tx) error {
				return pr.RunParallelCtx(ctx, tx, nil, driverWorkers, func(query.Row) bool { return true })
			},
			"adaptive": func(ctx context.Context, tx *core.Tx) error {
				_, err := j.RunAdaptiveCtx(ctx, tx, plan, nil, driverWorkers, func(query.Row) bool { return true })
				return err
			},
		} {
			t.Run(mode+"/"+planName, func(t *testing.T) {
				tracer := trace.New(trace.Config{SampleRate: 1})
				ctx, root := tracer.Start(context.Background(), "test", trace.KindSession)
				tx := e.Begin()
				defer tx.Abort()
				if err := run(ctx, tx); err != nil {
					t.Fatal(err)
				}
				root.End()
				traces := tracer.Traces()
				if len(traces) != 1 {
					t.Fatalf("%d traces, want 1", len(traces))
				}
				var workers, claimed int64
				for _, sp := range traces[0].Spans {
					if sp.Name != "query.worker" {
						continue
					}
					workers++
					for _, a := range sp.Attrs {
						if a.Key == "morsels" {
							claimed += a.Value.(int64)
						}
					}
				}
				if workers != driverWorkers || claimed != morsels {
					t.Errorf("%d query.worker spans claiming %d morsels, want %d spans and %d morsels",
						workers, claimed, driverWorkers, morsels)
				}
			})
		}
	}
}
