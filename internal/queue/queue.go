// Package queue provides the two work-queues the traversal kernels need: a
// plain FIFO of node ids for BFS, and a monotone bucket queue (Dial's
// structure) for single-source shortest paths on small-integer-weighted
// graphs, which is what the chain-contracted reduced graph is.
//
// Every Push and Pop writes the queue's header, and traversal workers each
// own a queue allocated back to back with the others'. Both headers are
// therefore padded to headerBytes, two 64-byte cache lines (the pair an
// adjacent-line prefetcher fetches together), so no two workers' headers
// share a line; unpadded, that false sharing made two-worker exact farness
// slower than one worker.
package queue

// headerBytes is the padded size of a FIFO or Bucket.
const headerBytes = 128

// FIFO is an allocation-friendly queue of int32 values. The zero value is
// ready to use; Reset allows reuse across traversals without reallocating.
type FIFO struct {
	buf  []int32
	head int
	_    [headerBytes - 32]byte
}

// NewFIFO returns a FIFO with capacity pre-allocated for n pushes.
func NewFIFO(n int) *FIFO { return &FIFO{buf: make([]int32, 0, n)} }

// Push appends v.
func (q *FIFO) Push(v int32) { q.buf = append(q.buf, v) }

// Pop removes and returns the oldest element. It must not be called on an
// empty queue.
func (q *FIFO) Pop() int32 {
	v := q.buf[q.head]
	q.head++
	return v
}

// Empty reports whether the queue has no pending elements.
func (q *FIFO) Empty() bool { return q.head == len(q.buf) }

// Len returns the number of pending elements.
func (q *FIFO) Len() int { return len(q.buf) - q.head }

// Reset empties the queue, retaining capacity.
func (q *FIFO) Reset() {
	q.buf = q.buf[:0]
	q.head = 0
}

// Bucket is a monotone bucket priority queue for Dial's algorithm. Keys are
// non-negative distances; the structure exploits that in SSSP with maximum
// edge weight C, all keys in flight lie within a window of width C+1, so a
// ring of C+1 buckets suffices.
type Bucket struct {
	buckets [][]int32
	cur     int // current distance being drained
	size    int // number of pending entries
	_       [headerBytes - 40]byte
}

// NewBucket returns a bucket queue for edge weights up to maxWeight.
func NewBucket(maxWeight int32) *Bucket {
	if maxWeight < 1 {
		maxWeight = 1
	}
	return &Bucket{buckets: make([][]int32, int(maxWeight)+1)}
}

// Push inserts node v with distance key d. d must be >= the key of the last
// popped element (monotonicity of Dijkstra/Dial) and within cur+maxWeight.
func (q *Bucket) Push(v int32, d int32) {
	idx := int(d) % len(q.buckets)
	q.buckets[idx] = append(q.buckets[idx], v)
	q.size++
}

// Pop removes and returns a node with the minimum pending distance key,
// along with that key. It must not be called when Empty.
func (q *Bucket) Pop() (v int32, d int32) {
	for {
		idx := q.cur % len(q.buckets)
		b := q.buckets[idx]
		if len(b) > 0 {
			v = b[len(b)-1]
			q.buckets[idx] = b[:len(b)-1]
			q.size--
			return v, int32(q.cur)
		}
		q.cur++
	}
}

// Empty reports whether no entries are pending.
func (q *Bucket) Empty() bool { return q.size == 0 }

// Reset prepares the queue for a fresh traversal, retaining bucket storage.
func (q *Bucket) Reset() {
	for i := range q.buckets {
		q.buckets[i] = q.buckets[i][:0]
	}
	q.cur = 0
	q.size = 0
}
