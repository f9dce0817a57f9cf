package bincsr

import (
	"fmt"
	"hash/crc32"
	"os"
	"sync/atomic"
)

// VerifyMode selects how much of an artifact OpenMapped checks before
// serving it.
type VerifyMode int

const (
	// VerifyFast (the default) validates the header CRC, the offsets
	// section CRC and the offsets structure — O(n) over the small array,
	// touching none of the edge pages, so a mapped graph is ready in
	// page-cache time. The edges section is trusted until first fault-in;
	// a kernel tripping over a corrupt artifact is contained by the
	// server's per-request panic recovery, and operators who do not trust
	// their artifact store use VerifyFull.
	VerifyFast VerifyMode = iota
	// VerifyFull additionally checks the edges/weights section CRCs and
	// runs the parallel neighbour-range/sortedness scan. It faults in the
	// whole artifact once (sequentially — still far cheaper than a text
	// parse).
	VerifyFull
)

// Options tunes OpenMapped.
type Options struct {
	Verify  VerifyMode
	Workers int // parallel verification scan width (0 = GOMAXPROCS)
}

// Mapped is an artifact whose arrays alias an mmap'd file (zero-copy) or,
// on platforms without mmap support and on big-endian hosts, a private heap
// copy. The embedded Artifact's graph views follow graph.FromCSR's aliasing
// contract: they are valid only until Close, which unmaps the memory — the
// caller must guarantee no traversal is still running (the server registry
// does this with per-graph reference counts and run draining).
type Mapped struct {
	Artifact
	data   []byte
	mapped bool
	path   string
	closed atomic.Bool
}

// OpenMapped maps the artifact at path. On linux/little-endian the returned
// graph's offsets and edges slices are views straight into the mapping —
// load cost is independent of graph size (page faults are paid lazily by
// the first traversals, and the page cache is shared across processes
// mapping the same artifact). Elsewhere the file is read into memory
// (copy fallback) behind the same API.
func OpenMapped(path string, opts Options) (m *Mapped, err error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer closeKeepErr(&err, f)
	st, err := f.Stat()
	if err != nil {
		return nil, err
	}
	size := st.Size()
	if size < headerSize {
		return nil, fmt.Errorf("%w: %d bytes, want at least the %d-byte header", ErrTruncated, size, headerSize)
	}
	var hdr [headerSize]byte
	if _, err := f.ReadAt(hdr[:], 0); err != nil {
		return nil, fmt.Errorf("%w: header: %v", ErrTruncated, err)
	}
	h, err := decodeHeader(hdr[:])
	if err != nil {
		return nil, err
	}
	_, _, _, total := layout(h.N, h.AdjLen, h.Weighted())
	if size != total {
		return nil, fmt.Errorf("%w: file is %d bytes, layout wants %d", ErrTruncated, size, total)
	}

	data, mapped, err := mapFile(f, size)
	if err != nil {
		return nil, err
	}
	mm := &Mapped{data: data, mapped: mapped, path: path}
	defer func() {
		if err != nil {
			_ = mm.Close()
			m = nil
		}
	}()
	m = mm

	var offsets []int64
	var adj, weights []int32
	if hostLittleEndian {
		// Zero-copy: alias the mapping. Section offsets are 64-byte
		// aligned and the base is page-aligned, so the views are aligned.
		offsets = aliasInt64(data[h.offsetsOff:], h.N+1)
		adj = aliasInt32(data[h.edgesOff:], h.AdjLen)
		if h.Weighted() {
			weights = aliasInt32(data[h.weightsOff:], h.AdjLen)
		}
	} else {
		// Big-endian host: the on-disk bits are byte-swapped relative to
		// memory; decode-copy instead of aliasing.
		offsets = make([]int64, h.N+1)
		decodeInt64(offsets, data[h.offsetsOff:h.offsetsOff+(h.N+1)*8])
		adj = make([]int32, h.AdjLen)
		decodeInt32(adj, data[h.edgesOff:h.edgesOff+h.AdjLen*4])
		if h.Weighted() {
			weights = make([]int32, h.AdjLen)
			decodeInt32(weights, data[h.weightsOff:h.weightsOff+h.AdjLen*4])
		}
	}

	// The offsets section is always verified — it is the array every
	// kernel indexes blindly, it is small, and checking it touches no edge
	// pages.
	if got := crc32.Checksum(data[h.offsetsOff:h.offsetsOff+(h.N+1)*8], castagnoli); got != h.offCRC {
		return nil, fmt.Errorf("%w: offsets section CRC %08x, want %08x", ErrChecksum, got, h.offCRC)
	}
	if opts.Verify == VerifyFull {
		if got := crc32.Checksum(data[h.edgesOff:h.edgesOff+h.AdjLen*4], castagnoli); got != h.edgeCRC {
			return nil, fmt.Errorf("%w: edges section CRC %08x, want %08x", ErrChecksum, got, h.edgeCRC)
		}
		if h.Weighted() {
			if got := crc32.Checksum(data[h.weightsOff:h.weightsOff+h.AdjLen*4], castagnoli); got != h.wCRC {
				return nil, fmt.Errorf("%w: weights section CRC %08x, want %08x", ErrChecksum, got, h.wCRC)
			}
		}
		art, err := assemble(h, offsets, adj, weights, opts.Workers)
		if err != nil {
			return nil, err
		}
		m.Artifact = *art
		return m, nil
	}
	// Fast path: structural offsets check only (graph.FromCSR).
	g, err := fromCSRArtifact(h, offsets, adj, weights)
	if err != nil {
		return nil, err
	}
	m.Artifact = *g
	return m, nil
}

// Mapped reports whether the artifact is an actual memory mapping (true on
// linux little-endian hosts) or the copy fallback.
func (m *Mapped) Mapped() bool { return m.mapped }

// Path returns the artifact path.
func (m *Mapped) Path() string { return m.path }

// ResidentBytes is the byte footprint the artifact pins: the mapping (or
// heap copy) length. For a mapping this is virtual size — actual residency
// grows as traversals fault pages in — which is the honest upper bound an
// eviction budget should charge.
func (m *Mapped) ResidentBytes() int64 { return int64(len(m.data)) }

// VerifyFull re-checks the full artifact (section CRCs plus the adjacency
// scan) on demand, e.g. before trusting a long-lived mapping after external
// tampering is suspected.
func (m *Mapped) VerifyFull(workers int) error {
	h := m.Header
	if got := crc32.Checksum(m.data[h.edgesOff:h.edgesOff+h.AdjLen*4], castagnoli); got != h.edgeCRC {
		return fmt.Errorf("%w: edges section CRC %08x, want %08x", ErrChecksum, got, h.edgeCRC)
	}
	if h.Weighted() {
		if got := crc32.Checksum(m.data[h.weightsOff:h.weightsOff+h.AdjLen*4], castagnoli); got != h.wCRC {
			return fmt.Errorf("%w: weights section CRC %08x, want %08x", ErrChecksum, got, h.wCRC)
		}
	}
	offsets, adj := m.G.CSR()
	var weights []int32
	if m.W != nil {
		weights = m.W.CSRWeights()
	}
	return scanAdjacency(offsets, adj, weights, workers)
}

// Close releases the mapping (or heap copy). After Close every graph view
// handed out by this Mapped is invalid; see the type doc for the draining
// contract. Close is idempotent.
func (m *Mapped) Close() error {
	if m.closed.Swap(true) {
		return nil
	}
	data := m.data
	m.data = nil
	m.G, m.W = nil, nil
	if m.mapped {
		return unmapFile(data)
	}
	return nil
}
