package poseidon

import (
	"context"
	"errors"
	"fmt"

	"poseidon/internal/core"
	"poseidon/internal/query"
)

// errRowsClosed is the cancellation cause used by Rows.Close, so a
// deliberate early close is not reported as an execution error.
var errRowsClosed = errors.New("poseidon: rows closed")

// rowsBatchSize is how many rows the producer goroutine hands over per
// channel operation. Batching amortizes the channel synchronization so
// streaming stays within a few percent of materialized throughput.
const rowsBatchSize = 128

// Rows is a streaming result cursor. The query runs in a producer
// goroutine that pushes batches of raw rows; the consumer pulls them
// with Next and decodes values only on demand (Values/Scan), so a scan
// that inspects raw values never materializes the full result.
//
//	rows, err := sess.Query(ctx, stmt, params)
//	if err != nil { ... }
//	defer rows.Close()
//	for rows.Next() {
//		var name string
//		if err := rows.Scan(&name); err != nil { ... }
//	}
//	if err := rows.Err(); err != nil { ... }
//
// Rows is not safe for concurrent use. Close is idempotent, cancels the
// query, and does not return until the underlying transaction has been
// rolled back, so no goroutine or transaction outlives the cursor.
type Rows struct {
	db     *DB
	ctx    context.Context
	cancel context.CancelCauseFunc
	ch     chan []query.Row
	done   chan error

	batch    []query.Row
	idx      int
	cur      query.Row
	err      error
	closed   bool
	finished bool
}

// newRows starts run in a producer goroutine. Whatever path execution
// takes, the goroutine calls end — which rolls back a cursor-owned
// transaction and releases timers — before signalling completion, so
// once the consumer observes the cursor finished, nothing is left
// running.
func newRows(parent context.Context, db *DB, end func(),
	run func(context.Context, func(query.Row) bool) error) *Rows {
	ctx, cancel := context.WithCancelCause(parent)
	r := &Rows{
		db:     db,
		ctx:    ctx,
		cancel: cancel,
		ch:     make(chan []query.Row, 1),
		done:   make(chan error, 1),
	}
	go func() {
		var batch []query.Row // grown by append: most results never fill one
		// The run's rows are valid for emit's call only; the batch keeps
		// copies. The slab never hands out a value twice, so the consumer
		// reads a sent batch while the producer carves the next.
		var slab query.RowSlab
		err := run(ctx, func(row query.Row) bool {
			batch = append(batch, slab.Copy(row))
			if len(batch) < rowsBatchSize {
				return true
			}
			select {
			case r.ch <- batch:
				batch = make([]query.Row, 0, rowsBatchSize)
				return true
			case <-ctx.Done():
				return false
			}
		})
		if err == nil && len(batch) > 0 {
			select {
			case r.ch <- batch:
			case <-ctx.Done():
			}
		}
		// Read the context's verdict before end() — end releases the
		// deadline timer by cancelling ctx, which must not masquerade
		// as a mid-query cancellation.
		if err == nil {
			err = ctx.Err()
		}
		if end != nil {
			end()
		}
		r.done <- err
		close(r.ch)
	}()
	return r
}

// Next advances to the next row, returning false when the result is
// exhausted or an error occurred (check Err).
func (r *Rows) Next() bool {
	if r.closed || r.finished {
		return false
	}
	if r.idx < len(r.batch) {
		r.cur = r.batch[r.idx]
		r.idx++
		return true
	}
	batch, ok := <-r.ch
	if !ok {
		r.finish()
		return false
	}
	r.batch, r.idx = batch, 1
	r.cur = batch[0]
	return true
}

// Row returns the current row's raw storage values without decoding.
// The slice is only valid until the next call to Next.
func (r *Rows) Row() query.Row { return r.cur }

// Values decodes the current row to Go values.
func (r *Rows) Values() ([]any, error) { return r.db.decodeRow(r.cur) }

// Scan decodes the current row into dest, which must contain one pointer
// per column (*any, *int64, *string, *float64 or *bool).
func (r *Rows) Scan(dest ...any) error {
	if len(dest) != len(r.cur) {
		return fmt.Errorf("poseidon: Scan got %d targets for %d columns", len(dest), len(r.cur))
	}
	vals, err := r.Values()
	if err != nil {
		return err
	}
	for i, d := range dest {
		switch p := d.(type) {
		case *any:
			*p = vals[i]
		case *int64:
			x, ok := vals[i].(int64)
			if !ok {
				return fmt.Errorf("poseidon: Scan column %d: %T is not int64", i, vals[i])
			}
			*p = x
		case *string:
			x, ok := vals[i].(string)
			if !ok {
				return fmt.Errorf("poseidon: Scan column %d: %T is not string", i, vals[i])
			}
			*p = x
		case *float64:
			x, ok := vals[i].(float64)
			if !ok {
				return fmt.Errorf("poseidon: Scan column %d: %T is not float64", i, vals[i])
			}
			*p = x
		case *bool:
			x, ok := vals[i].(bool)
			if !ok {
				return fmt.Errorf("poseidon: Scan column %d: %T is not bool", i, vals[i])
			}
			*p = x
		default:
			return fmt.Errorf("poseidon: Scan column %d: unsupported target %T", i, d)
		}
	}
	return nil
}

// Err returns the error that terminated iteration, if any. A deliberate
// Close and a normally exhausted result both report nil.
func (r *Rows) Err() error { return r.err }

// Close cancels the query if it is still running and blocks until the
// producer goroutine has rolled back its transaction. It is safe to call
// multiple times and after exhaustion.
func (r *Rows) Close() error {
	if r.closed {
		return r.err
	}
	r.closed = true
	r.cancel(errRowsClosed)
	for range r.ch {
		// Drain so the producer unblocks and finishes cleanup.
	}
	r.finish()
	return r.err
}

// Collect exhausts the cursor, decoding every remaining row, and closes
// it. (Session.QueryAll materializes without a cursor.)
func (r *Rows) Collect() ([][]any, error) {
	var out [][]any
	for r.Next() {
		vals, err := r.Values()
		if err != nil {
			r.Close()
			return nil, err
		}
		out = append(out, vals)
	}
	r.Close()
	if r.err != nil {
		return nil, r.err
	}
	return out, nil
}

// finish consumes the producer's final status exactly once and
// normalizes a Close-induced cancellation to success.
func (r *Rows) finish() {
	if r.finished {
		return
	}
	r.finished = true
	err := <-r.done
	// Sampled before the cancel below, which would make it always true.
	closed := context.Cause(r.ctx) == errRowsClosed
	r.cancel(errRowsClosed)
	if err != nil && closed &&
		(errors.Is(err, context.Canceled) || errors.Is(err, core.ErrTxDone)) {
		err = nil
	}
	r.err = err
}
