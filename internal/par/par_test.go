package par

import (
	"context"
	"sync/atomic"
	"testing"
)

func TestForCoversRange(t *testing.T) {
	for _, workers := range []int{1, 2, 7, 0, -1} {
		n := 101
		hits := make([]int32, n)
		For(n, workers, func(i int) { atomic.AddInt32(&hits[i], 1) })
		for i, h := range hits {
			if h != 1 {
				t.Fatalf("workers=%d: index %d hit %d times", workers, i, h)
			}
		}
	}
}

func TestForEmpty(t *testing.T) {
	called := false
	For(0, 4, func(int) { called = true })
	For(-5, 4, func(int) { called = true })
	if called {
		t.Fatal("For should not call fn for n <= 0")
	}
}

func TestForDynamicCoversRange(t *testing.T) {
	for _, workers := range []int{1, 3, 16} {
		for _, chunk := range []int{1, 4, 100} {
			n := 57
			hits := make([]int32, n)
			ForDynamic(n, workers, chunk, func(_, i int) { atomic.AddInt32(&hits[i], 1) })
			for i, h := range hits {
				if h != 1 {
					t.Fatalf("workers=%d chunk=%d: index %d hit %d times", workers, chunk, i, h)
				}
			}
		}
	}
}

func TestForDynamicWorkerIndexInRange(t *testing.T) {
	workers := 4
	var bad atomic.Bool
	ForDynamic(200, workers, 2, func(w, _ int) {
		if w < 0 || w >= workers {
			bad.Store(true)
		}
	})
	if bad.Load() {
		t.Fatal("worker index out of range")
	}
}

// assertRepanics runs call over an item function that panics on item 37 of
// [0, 100) and requires call to re-raise that panic on the calling
// goroutine, after every worker has returned.
func assertRepanics(t *testing.T, call func(item func(i int))) {
	t.Helper()
	type boom struct{}
	var running atomic.Int32
	item := func(i int) {
		running.Add(1)
		defer running.Add(-1)
		if i == 37 {
			panic(boom{})
		}
	}
	got := func() (v any) {
		defer func() { v = recover() }()
		call(item)
		return nil
	}()
	if got != (boom{}) {
		t.Fatalf("recovered %v on the caller, want the worker's panic", got)
	}
	if n := running.Load(); n != 0 {
		t.Fatalf("re-raised with %d workers still running", n)
	}
}

func TestForRepanicsOnCaller(t *testing.T) {
	assertRepanics(t, func(item func(int)) { For(100, 4, item) })
}

func TestForBlocksRepanicsOnCaller(t *testing.T) {
	assertRepanics(t, func(item func(int)) {
		ForBlocks(100, 4, func(_, lo, hi int) {
			for i := lo; i < hi; i++ {
				item(i)
			}
		})
	})
}

func TestForDynamicRepanicsOnCaller(t *testing.T) {
	assertRepanics(t, func(item func(int)) { ForDynamic(100, 4, 3, func(_, i int) { item(i) }) })
}

func TestForBlocksCtxRepanicsOnCaller(t *testing.T) {
	assertRepanics(t, func(item func(int)) {
		_ = ForBlocksCtx(context.Background(), 100, 4, func(_, lo, hi int) {
			for i := lo; i < hi; i++ {
				item(i)
			}
		})
	})
}

func TestForDynamicCtxRepanicsOnCaller(t *testing.T) {
	assertRepanics(t, func(item func(int)) {
		_ = ForDynamicCtx(context.Background(), 100, 4, 3, func(_, i int) { item(i) })
	})
}

func TestWorkersNormalisation(t *testing.T) {
	if Workers(3) != 3 {
		t.Error("explicit worker count should pass through")
	}
	if Workers(0) < 1 || Workers(-2) < 1 {
		t.Error("non-positive should map to at least 1")
	}
}
