// Package fault is a tiny test-only fault-injection registry that makes the
// estimation stack's failure paths deterministically testable: tests install
// a hook at a named point (delay, panic, or arbitrary code) and the
// production code calls Checkpoint at its cancellation checkpoints, which
// doubles as the injection site. When no hook is armed — the production
// steady state — Inject is a single atomic load.
//
// Point names in use across the stack (grep for fault.Checkpoint /
// fault.Inject to enumerate):
//
//	reduce.twins, reduce.chains, reduce.redundant
//	core.reduce, core.decompose, core.traverse, core.aggregate
//	bfs.batch
//	topk.verify
//	server.estimate, server.handle, server.mutate
package fault

import (
	"context"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/par"
)

// Hook runs at an injection point with the run's context. A non-nil return
// aborts the run with that error; panicking exercises the crash paths.
type Hook func(ctx context.Context) error

// entry wraps a hook so each Set installation has a unique identity: the
// returned restore only undoes its own installation, and becomes a no-op if
// the point was meanwhile replaced or swept by Clear.
type entry struct{ h Hook }

var (
	armed atomic.Int64 // number of installed hooks; 0 = fast path
	mu    sync.RWMutex
	hooks map[string]*entry
)

// Set installs a hook at the named point, replacing any previous one, and
// returns a function restoring the previous state. Tests should defer the
// restore; hooks must not be left armed across tests.
func Set(point string, h Hook) (restore func()) {
	mu.Lock()
	defer mu.Unlock()
	if hooks == nil {
		hooks = make(map[string]*entry)
	}
	prev, had := hooks[point]
	if !had {
		armed.Add(1)
	}
	e := &entry{h}
	hooks[point] = e
	return func() {
		mu.Lock()
		defer mu.Unlock()
		if hooks[point] != e {
			return // replaced or Cleared since; nothing of ours to undo
		}
		if had {
			hooks[point] = prev
			return
		}
		delete(hooks, point)
		armed.Add(-1)
	}
}

// Clear removes every installed hook.
func Clear() {
	mu.Lock()
	defer mu.Unlock()
	armed.Add(-int64(len(hooks)))
	hooks = nil
}

// Inject runs the hook installed at point, if any. The disarmed fast path is
// one atomic load, cheap enough for per-stage production checkpoints.
func Inject(ctx context.Context, point string) error {
	if armed.Load() == 0 {
		return nil
	}
	mu.RLock()
	e := hooks[point]
	mu.RUnlock()
	if e == nil || e.h == nil {
		return nil
	}
	return e.h(ctx)
}

// Checkpoint is the stack's cooperative cancellation checkpoint: it fires
// any injected fault at the named point, then reports the context's state as
// a par.ErrCanceled-wrapping error. Stage drivers call it between stages.
func Checkpoint(ctx context.Context, point string) error {
	if err := Inject(ctx, point); err != nil {
		return err
	}
	return par.CtxErr(ctx)
}

// Sleep blocks for d or until ctx is done, whichever comes first, returning
// par.CtxErr(ctx) — the building block of Delay and of custom slow-stage
// hooks.
func Sleep(ctx context.Context, d time.Duration) error {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return nil
	case <-ctx.Done():
		return par.CtxErr(ctx)
	}
}

// Delay returns a hook that simulates a slow stage: it sleeps for d but
// wakes immediately when the run's context is canceled, so cancellation
// latency tests measure the checkpoint plumbing, not the timer.
func Delay(d time.Duration) Hook {
	return func(ctx context.Context) error { return Sleep(ctx, d) }
}

// Panic returns a hook that crashes the run, for exercising panic-recovery
// paths.
func Panic(msg string) Hook {
	return func(context.Context) error { panic("fault: " + msg) }
}
