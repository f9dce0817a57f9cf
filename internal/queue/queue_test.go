package queue

import (
	"container/heap"
	"math/rand"
	"testing"
	"testing/quick"
	"unsafe"
)

func TestFIFOOrder(t *testing.T) {
	q := NewFIFO(4)
	for i := int32(0); i < 10; i++ {
		q.Push(i)
	}
	if q.Len() != 10 {
		t.Fatalf("Len = %d, want 10", q.Len())
	}
	for i := int32(0); i < 10; i++ {
		if got := q.Pop(); got != i {
			t.Fatalf("Pop = %d, want %d", got, i)
		}
	}
	if !q.Empty() {
		t.Fatal("queue should be empty")
	}
	q.Reset()
	q.Push(7)
	if q.Pop() != 7 || !q.Empty() {
		t.Fatal("Reset/reuse broken")
	}
}

func TestBucketBasic(t *testing.T) {
	q := NewBucket(3)
	q.Push(10, 0)
	q.Push(11, 2)
	q.Push(12, 1)
	v, d := q.Pop()
	if v != 10 || d != 0 {
		t.Fatalf("Pop = %d,%d want 10,0", v, d)
	}
	v, d = q.Pop()
	if v != 12 || d != 1 {
		t.Fatalf("Pop = %d,%d want 12,1", v, d)
	}
	v, d = q.Pop()
	if v != 11 || d != 2 {
		t.Fatalf("Pop = %d,%d want 11,2", v, d)
	}
	if !q.Empty() {
		t.Fatal("should be empty")
	}
}

func TestBucketRingWrap(t *testing.T) {
	// Keys span many multiples of the ring size; the monotone window
	// invariant (pending keys within [cur, cur+C]) must still hold.
	q := NewBucket(2)
	q.Push(1, 0)
	cur := int32(0)
	for step := 0; step < 50; step++ {
		v, d := q.Pop()
		if d < cur {
			t.Fatalf("non-monotone pop: %d after %d", d, cur)
		}
		cur = d
		if step < 49 {
			q.Push(v, d+2) // always within window
		}
	}
	if !q.Empty() {
		t.Fatal("should be empty")
	}
}

// model heap for the property test
type pair struct{ v, d int32 }
type pairHeap []pair

func (h pairHeap) Len() int            { return len(h) }
func (h pairHeap) Less(i, j int) bool  { return h[i].d < h[j].d }
func (h pairHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *pairHeap) Push(x interface{}) { *h = append(*h, x.(pair)) }
func (h *pairHeap) Pop() interface{} {
	old := *h
	n := len(old)
	x := old[n-1]
	*h = old[:n-1]
	return x
}

// Property: under the Dial usage pattern (monotone pushes within the weight
// window), Bucket pops keys in the same order a binary heap would.
func TestBucketMatchesHeap(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		maxW := int32(rng.Intn(5) + 1)
		q := NewBucket(maxW)
		var h pairHeap
		heap.Init(&h)
		q.Push(0, 0)
		heap.Push(&h, pair{0, 0})
		pending := 1
		var lastPopped int32
		for step := 0; step < 300 && pending > 0; step++ {
			_, d := q.Pop()
			hp := heap.Pop(&h).(pair)
			if d != hp.d {
				return false // key order mismatch (ids may tie-break differently)
			}
			if d < lastPopped {
				return false
			}
			lastPopped = d
			pending--
			// push 0..2 new entries within the legal window
			for k := rng.Intn(3); k > 0 && pending < 40; k-- {
				nd := d + int32(rng.Intn(int(maxW))+1)
				nv := int32(rng.Intn(1000))
				q.Push(nv, nd)
				heap.Push(&h, pair{nv, nd})
				pending++
			}
		}
		return q.Empty() == (h.Len() == 0)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestBucketReset(t *testing.T) {
	q := NewBucket(2)
	q.Push(1, 0)
	q.Push(2, 1)
	q.Pop()
	q.Reset()
	if !q.Empty() {
		t.Fatal("Reset should empty queue")
	}
	q.Push(5, 0)
	v, d := q.Pop()
	if v != 5 || d != 0 {
		t.Fatalf("after Reset: Pop = %d,%d want 5,0", v, d)
	}
}

// TestHeadersOwnCacheLines allocates eight FIFOs and eight Buckets back to
// back, as per-worker set-up does, and requires that no two queue headers
// (the fields every Push and Pop writes) touch the same 64-byte line.
func TestHeadersOwnCacheLines(t *testing.T) {
	const line = 64
	owner := map[uintptr]int{}
	claim := func(i int, p unsafe.Pointer, size uintptr) {
		for l := uintptr(p) / line; l <= (uintptr(p)+size-1)/line; l++ {
			if j, ok := owner[l]; ok {
				t.Fatalf("headers %d and %d share cache line %#x", j, i, l*line)
			}
			owner[l] = i
		}
	}
	var fifos [8]*FIFO
	var buckets [8]*Bucket
	for i := range fifos {
		fifos[i] = NewFIFO(16)
		buckets[i] = NewBucket(4)
	}
	for i, q := range fifos {
		claim(i, unsafe.Pointer(q), unsafe.Offsetof(q.head)+unsafe.Sizeof(q.head))
	}
	for i, q := range buckets {
		claim(len(fifos)+i, unsafe.Pointer(q), unsafe.Offsetof(q.size)+unsafe.Sizeof(q.size))
	}
}
