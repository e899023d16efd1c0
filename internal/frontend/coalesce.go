package frontend

import (
	"context"
	"fmt"
	"sync"
	"time"

	"pisd/internal/core"
)

// Coalescer folds concurrent single-query SecRec calls into shared
// SecRecBatch fan-outs, so independent Discover callers amortize the
// one-RPC-per-shard exchange that explicit batches already enjoy. It
// serves single trapdoors over a FanoutBatchServer and is adaptive:
//
//   - A call arriving at an idle coalescer dispatches immediately as a
//     batch of one — a lone lockstep caller never pays the window.
//   - Calls arriving while a flush is in flight buffer; they dispatch as
//     one batch the moment the in-flight flush completes, when the batch
//     bound is reached, or at the latest when the window timer fires.
//
// Under concurrency the pipeline therefore stays continuously full with
// naturally-sized batches; the microsecond-scale window only bounds the
// wait of stragglers. Query q of a coalesced flush is byte-identical to
// what SecRec would have returned alone over the same healthy shards
// (the pool's SecRecBatch contract).
//
// A flush runs under context.Background(): batches are shared, so one
// caller's cancellation must not abort its neighbours. A caller whose own
// ctx expires stops waiting (its slot's result is discarded), but the
// underlying fan-out still bounds every leg with the pool's per-attempt
// deadline.
type Coalescer struct {
	batch    FanoutBatchServer
	maxBatch int
	window   time.Duration

	mu       sync.Mutex
	pending  []*coalesceCall
	timer    *time.Timer
	inflight int // dispatched flushes not yet completed
}

type coalesceResult struct {
	ids      []uint64
	profiles [][]byte
	partial  bool
	err      error
}

type coalesceCall struct {
	t    *core.Trapdoor
	done chan coalesceResult // buffered: flush never blocks on a gone caller
}

// NewCoalescer builds a coalescer over batch. maxBatch <= 0 defaults to
// 16 queries per flush; window <= 0 defaults to 200µs.
func NewCoalescer(batch FanoutBatchServer, maxBatch int, window time.Duration) *Coalescer {
	if maxBatch <= 0 {
		maxBatch = 16
	}
	if window <= 0 {
		window = 200 * time.Microsecond
	}
	return &Coalescer{batch: batch, maxBatch: maxBatch, window: window}
}

// SecRec resolves one trapdoor by riding a coalesced SecRecBatch flush.
func (co *Coalescer) SecRec(ctx context.Context, t *core.Trapdoor) (ids []uint64, encProfiles [][]byte, partial bool, err error) {
	call := &coalesceCall{t: t, done: make(chan coalesceResult, 1)}
	co.mu.Lock()
	switch {
	case co.inflight == 0 && len(co.pending) == 0:
		// Idle: dispatch solo, no window latency.
		co.inflight++
		co.mu.Unlock()
		co.dispatch([]*coalesceCall{call})
	default:
		co.pending = append(co.pending, call)
		fmet.coalesceQueue.Set(int64(len(co.pending)))
		if len(co.pending) >= co.maxBatch {
			calls := co.takeLocked()
			co.inflight++
			co.mu.Unlock()
			go co.dispatch(calls)
		} else {
			if co.timer == nil {
				co.timer = time.AfterFunc(co.window, co.flushWindow)
			}
			co.mu.Unlock()
		}
	}
	select {
	case r := <-call.done:
		return r.ids, r.profiles, r.partial, r.err
	case <-ctx.Done():
		return nil, nil, false, ctx.Err()
	}
}

// takeLocked claims the pending queue for one flush. co.mu must be held.
func (co *Coalescer) takeLocked() []*coalesceCall {
	calls := co.pending
	co.pending = nil
	fmet.coalesceQueue.Set(0)
	if co.timer != nil {
		co.timer.Stop()
		co.timer = nil
	}
	return calls
}

// flushWindow fires when the window timer expires with calls still queued.
func (co *Coalescer) flushWindow() {
	co.mu.Lock()
	co.timer = nil
	if len(co.pending) == 0 {
		co.mu.Unlock()
		return
	}
	calls := co.takeLocked()
	co.inflight++
	co.mu.Unlock()
	co.dispatch(calls)
}

// dispatch runs one flush, distributes per-query results, then drains any
// queue that accumulated while the flush was in flight.
func (co *Coalescer) dispatch(calls []*coalesceCall) {
	ts := make([]*core.Trapdoor, len(calls))
	for i, c := range calls {
		ts[i] = c.t
	}
	fmet.coalesceFlushes.Inc()
	fmet.coalesceBatch.Observe(int64(len(calls)))
	ids, profiles, partial, err := co.batch.SecRecBatch(context.Background(), ts)
	if err == nil && (len(ids) != len(calls) || len(profiles) != len(calls)) {
		err = fmt.Errorf("frontend: coalesced batch of %d queries answered with %d results", len(calls), len(ids))
	}
	for i, c := range calls {
		if err != nil {
			c.done <- coalesceResult{err: err}
			continue
		}
		c.done <- coalesceResult{ids: ids[i], profiles: profiles[i], partial: partial}
	}
	co.mu.Lock()
	co.inflight--
	var next []*coalesceCall
	if co.inflight == 0 && len(co.pending) > 0 {
		next = co.takeLocked()
		co.inflight++
	}
	co.mu.Unlock()
	if next != nil {
		go co.dispatch(next)
	}
}
