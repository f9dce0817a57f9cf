package par

import (
	"context"
	"errors"
	"fmt"
	"sync/atomic"
)

// ErrCanceled is the sentinel every cooperative cancellation point of the
// estimation stack wraps: when a context passed to EstimateContext (or any
// of the ctx-aware drivers below) is canceled or times out, the run is
// abandoned at the next checkpoint and the returned error satisfies both
// errors.Is(err, ErrCanceled) and errors.Is(err, ctx.Err()).
var ErrCanceled = errors.New("run canceled")

// CtxErr converts a context's state into the stack's cancellation error:
// nil while ctx is live, an ErrCanceled-wrapping error once it is done.
// Every cooperative checkpoint is a call to this function.
func CtxErr(ctx context.Context) error {
	if err := ctx.Err(); err != nil {
		return fmt.Errorf("%w: %w", ErrCanceled, err)
	}
	return nil
}

// Interrupted reports whether the done channel (a ctx.Done(), possibly nil)
// has fired — the non-blocking poll hot traversal loops use between
// frontiers. A nil channel means "not cancellable" and always returns false.
func Interrupted(done <-chan struct{}) bool {
	if done == nil {
		return false
	}
	select {
	case <-done:
		return true
	default:
		return false
	}
}

// ForBlocksCtx is ForBlocks with cooperative cancellation: each block checks
// the context before running, so a canceled context skips every block that
// has not started yet (blocks already running finish — fn is never
// interrupted mid-block). It returns CtxErr(ctx); on a non-nil return the
// loop's output is partial and must be discarded.
func ForBlocksCtx(ctx context.Context, n, workers int, fn func(block, lo, hi int)) error {
	workers = Workers(workers)
	if n <= 0 {
		return CtxErr(ctx)
	}
	if workers > n {
		workers = n
	}
	done := ctx.Done()
	chunk := blockSize(n, workers)
	if workers == 1 {
		if !Interrupted(done) {
			fn(0, 0, n)
		}
		return CtxErr(ctx)
	}
	var g group
	for b := 0; b*chunk < n; b++ {
		lo := b * chunk
		hi := lo + chunk
		if hi > n {
			hi = n
		}
		g.spawn(func() {
			if !Interrupted(done) {
				fn(b, lo, hi)
			}
		})
	}
	g.wait()
	return CtxErr(ctx)
}

// ForDynamicCtx is ForDynamic with cooperative cancellation: workers check
// the context before claiming each chunk and stop claiming once it is done,
// which makes every chunk boundary a preemption point (the traversal
// drivers pass chunk = 1, so one traversal task is the cancellation
// granularity).
// It returns CtxErr(ctx); on a non-nil return the loop's output is partial
// and must be discarded. For a live context the schedule is identical to
// ForDynamic.
func ForDynamicCtx(ctx context.Context, n, workers, chunk int, fn func(worker, i int)) error {
	workers = Workers(workers)
	if n <= 0 {
		return CtxErr(ctx)
	}
	if chunk < 1 {
		chunk = 1
	}
	if workers > n {
		workers = n
	}
	done := ctx.Done()
	if workers == 1 {
		for i := 0; i < n; i += chunk {
			if Interrupted(done) {
				break
			}
			hi := i + chunk
			if hi > n {
				hi = n
			}
			for j := i; j < hi; j++ {
				fn(0, j)
			}
		}
		return CtxErr(ctx)
	}
	var next atomic.Int64
	var g group
	for worker := 0; worker < workers; worker++ {
		g.spawn(func() {
			for {
				if Interrupted(done) {
					return
				}
				lo := int(next.Add(int64(chunk))) - chunk
				if lo >= n {
					return
				}
				hi := lo + chunk
				if hi > n {
					hi = n
				}
				for i := lo; i < hi; i++ {
					fn(worker, i)
				}
			}
		})
	}
	g.wait()
	return CtxErr(ctx)
}
