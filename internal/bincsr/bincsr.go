// Package bincsr reads and writes .bricsbin artifacts: a versioned binary
// CSR graph format designed so the arrays are directly mappable. A text
// graph is parsed once (cmd/brics convert) and every subsequent load is a
// page-cache-speed mmap instead of a parser — N bricsd replicas mapping the
// same artifact share one copy of the adjacency data in the page cache.
//
// On-disk layout (all integers little-endian):
//
//	offset size  field
//	0      8     magic "BRICSBIN"
//	8      4     version (currently 1)
//	12     4     flags (bit 0 weighted, bit 1 connected)
//	16     8     n — node count
//	24     8     adjLen — directed adjacency entries (2·edges)
//	32     8     offsets section start (byte offset, 64-byte aligned)
//	40     8     edges section start (64-byte aligned)
//	48     8     weights section start (0 when unweighted)
//	56     4     offsets section CRC32-C
//	60     4     edges section CRC32-C
//	64     4     weights section CRC32-C (0 when unweighted)
//	68     4     header CRC32-C (over bytes [0, 68))
//	72     56    reserved, zero
//	128    ...   offsets section: (n+1) × int64
//	...          edges section:   adjLen × int32 (sorted per row)
//	...          weights section: adjLen × int32 (optional)
//
// Sections start on 64-byte boundaries (zero padding between them). An
// mmap base is page-aligned, so file-offset alignment carries into memory:
// the offsets/edges slices handed to traversal kernels are cache-line
// aligned views straight into the mapping, no decode step. Version 1
// section offsets are fully determined by n, adjLen and the weighted flag;
// readers verify the stored offsets against the canonical layout, so a
// reshuffled (misaligned) artifact is rejected rather than mis-aliased.
package bincsr

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"sync"

	"repro/internal/graph"
	"repro/internal/par"
)

// Magic identifies a .bricsbin artifact; it is the first 8 bytes of the
// file and what io.ReadAny sniffs on.
const Magic = "BRICSBIN"

// Version is the current format version. Readers reject artifacts with a
// newer version (forward compatibility is explicit, not guessed); older
// versions would be migrated by re-converting, but version 1 is the first.
const Version = 1

const (
	headerSize = 128
	// Align is the section alignment: one cache line, so mapped arrays
	// never split a cache line with the header and SIMD-friendly loads in
	// future kernels stay aligned.
	Align = 64
	// crcEnd is where the header CRC coverage stops (the CRC field itself
	// and the reserved tail are excluded).
	crcEnd = 68
)

// Flags is the artifact feature bitmask.
type Flags uint32

const (
	// FlagWeighted marks an artifact carrying a weights section; Write sets
	// it exactly for a weighted graph.
	FlagWeighted Flags = 1 << 0
	// FlagConnected records that the converter verified (or enforced, via
	// graph.Connect) connectivity, letting servers skip the O(n+m)
	// IsConnected scan on load — the scan would fault in every page and
	// defeat the lazy-load point of the mmap path.
	FlagConnected Flags = 1 << 1
)

var (
	// ErrTruncated reports an artifact (or any graph file) shorter than
	// its own header or framing promises.
	ErrTruncated = errors.New("bincsr: truncated input")
	// ErrFormat reports bytes that are not a .bricsbin artifact or violate
	// the version-1 layout.
	ErrFormat = errors.New("bincsr: malformed artifact")
	// ErrChecksum reports a section whose CRC32-C does not match its
	// header entry.
	ErrChecksum = errors.New("bincsr: checksum mismatch")
)

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// Header is the decoded artifact header.
type Header struct {
	Version uint32
	Flags   Flags
	N       int64 // nodes
	AdjLen  int64 // directed adjacency entries (2·edges)

	offsetsOff, edgesOff, weightsOff int64
	offCRC, edgeCRC, wCRC            uint32
}

// Weighted reports whether the artifact carries a weights section.
func (h Header) Weighted() bool { return h.Flags&FlagWeighted != 0 }

// Connected reports whether the converter recorded the graph as connected.
func (h Header) Connected() bool { return h.Flags&FlagConnected != 0 }

// align64 rounds up to the next section boundary.
func align64(off int64) int64 { return (off + Align - 1) &^ (Align - 1) }

// layout computes the canonical version-1 section offsets and total file
// size for a graph shape.
func layout(n, adjLen int64, weighted bool) (offsetsOff, edgesOff, weightsOff, total int64) {
	offsetsOff = headerSize
	edgesOff = align64(offsetsOff + (n+1)*8)
	end := edgesOff + adjLen*4
	if weighted {
		weightsOff = align64(end)
		end = weightsOff + adjLen*4
	}
	return offsetsOff, edgesOff, weightsOff, end
}

// encodeHeader assembles the 128-byte header, computing the header CRC.
func encodeHeader(h Header) [headerSize]byte {
	var b [headerSize]byte
	copy(b[0:8], Magic)
	binary.LittleEndian.PutUint32(b[8:], h.Version)
	binary.LittleEndian.PutUint32(b[12:], uint32(h.Flags))
	binary.LittleEndian.PutUint64(b[16:], uint64(h.N))
	binary.LittleEndian.PutUint64(b[24:], uint64(h.AdjLen))
	binary.LittleEndian.PutUint64(b[32:], uint64(h.offsetsOff))
	binary.LittleEndian.PutUint64(b[40:], uint64(h.edgesOff))
	binary.LittleEndian.PutUint64(b[48:], uint64(h.weightsOff))
	binary.LittleEndian.PutUint32(b[56:], h.offCRC)
	binary.LittleEndian.PutUint32(b[60:], h.edgeCRC)
	binary.LittleEndian.PutUint32(b[64:], h.wCRC)
	binary.LittleEndian.PutUint32(b[68:], crc32.Checksum(b[:crcEnd], castagnoli))
	return b
}

// decodeHeader parses and validates the fixed-size header: magic, version,
// header CRC, node bound, and the canonical section layout.
func decodeHeader(b []byte) (Header, error) {
	if len(b) < headerSize {
		return Header{}, fmt.Errorf("%w: %d header bytes, want %d", ErrTruncated, len(b), headerSize)
	}
	if string(b[0:8]) != Magic {
		return Header{}, fmt.Errorf("%w: bad magic %q", ErrFormat, b[0:8])
	}
	h := Header{
		Version: binary.LittleEndian.Uint32(b[8:]),
		Flags:   Flags(binary.LittleEndian.Uint32(b[12:])),
		N:       int64(binary.LittleEndian.Uint64(b[16:])),
		AdjLen:  int64(binary.LittleEndian.Uint64(b[24:])),
	}
	if h.Version != Version {
		return Header{}, fmt.Errorf("%w: version %d (this reader handles %d)", ErrFormat, h.Version, Version)
	}
	want := crc32.Checksum(b[:crcEnd], castagnoli)
	if got := binary.LittleEndian.Uint32(b[68:]); got != want {
		return Header{}, fmt.Errorf("%w: header CRC %08x, want %08x", ErrChecksum, got, want)
	}
	if h.N < 0 || h.N > graph.MaxNodeID {
		return Header{}, fmt.Errorf("%w: %d nodes outside [0, %d]", ErrFormat, h.N, int64(graph.MaxNodeID))
	}
	// Both directions of every edge are stored, so the adjacency length is
	// even and bounded by the complete graph on n nodes.
	if h.AdjLen < 0 || h.AdjLen%2 != 0 || (h.N > 0 && h.AdjLen > h.N*(h.N-1)) || (h.N == 0 && h.AdjLen != 0) {
		return Header{}, fmt.Errorf("%w: adjacency length %d invalid for %d nodes", ErrFormat, h.AdjLen, h.N)
	}
	h.offsetsOff = int64(binary.LittleEndian.Uint64(b[32:]))
	h.edgesOff = int64(binary.LittleEndian.Uint64(b[40:]))
	h.weightsOff = int64(binary.LittleEndian.Uint64(b[48:]))
	offsetsOff, edgesOff, weightsOff, _ := layout(h.N, h.AdjLen, h.Weighted())
	if h.offsetsOff != offsetsOff || h.edgesOff != edgesOff || h.weightsOff != weightsOff {
		return Header{}, fmt.Errorf("%w: section offsets (%d,%d,%d) differ from the canonical v1 layout (%d,%d,%d)",
			ErrFormat, h.offsetsOff, h.edgesOff, h.weightsOff, offsetsOff, edgesOff, weightsOff)
	}
	h.offCRC = binary.LittleEndian.Uint32(b[56:])
	h.edgeCRC = binary.LittleEndian.Uint32(b[60:])
	h.wCRC = binary.LittleEndian.Uint32(b[64:])
	if !h.Weighted() && h.wCRC != 0 {
		return Header{}, fmt.Errorf("%w: weights CRC set on an unweighted artifact", ErrFormat)
	}
	return h, nil
}

// Artifact is one decoded .bricsbin: the header plus the graph. G is always
// populated and unweighted (for a weighted artifact it is the unweighted
// view over the same arrays); W, the graph with its weights, is populated
// only when the artifact carries a weights section.
type Artifact struct {
	Header Header
	G      *graph.Graph
	W      *graph.Graph
}

// Write serialises g as a version-1 artifact, with a weights section
// exactly when g is weighted (the FlagWeighted bit of flags is ignored).
// Pass FlagConnected when the graph is known connected so loaders can skip
// the connectivity scan. The three section checksums are computed
// concurrently before the (sequential, buffered) write.
func Write(w io.Writer, g *graph.Graph, flags Flags) error {
	offsets, adj := g.CSR()
	flags &^= FlagWeighted
	if g.Weighted() {
		flags |= FlagWeighted
	}
	return writeSections(w, offsets, adj, g.CSRWeights(), flags)
}

// WriteFile writes g to path via Write.
func WriteFile(path string, g *graph.Graph, flags Flags) (err error) {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer closeKeepErr(&err, f)
	bw := bufio.NewWriterSize(f, 1<<20)
	if err := Write(bw, g, flags); err != nil {
		return err
	}
	return bw.Flush()
}

// closeKeepErr closes c, surfacing its error unless one is already set —
// the write path must not report success when the final flush-to-disk
// close fails.
func closeKeepErr(err *error, c io.Closer) {
	if cerr := c.Close(); cerr != nil && *err == nil {
		*err = cerr
	}
}

func writeSections(w io.Writer, offsets []int64, adj []graph.NodeID, weights []int32, flags Flags) error {
	n := int64(len(offsets)) - 1
	if n < 0 {
		return fmt.Errorf("bincsr: graph has an empty offsets array")
	}
	if n > graph.MaxNodeID {
		return fmt.Errorf("bincsr: %d nodes exceeds MaxNodeID (%d)", n, int64(graph.MaxNodeID))
	}
	adjLen := int64(len(adj))
	offBytes := int64Bytes(offsets)
	edgeBytes := int32Bytes(adj)
	var wBytes []byte
	if flags&FlagWeighted != 0 {
		wBytes = int32Bytes(weights)
	}

	h := Header{Version: Version, Flags: flags, N: n, AdjLen: adjLen}
	h.offsetsOff, h.edgesOff, h.weightsOff, _ = layout(n, adjLen, h.Weighted())

	// The checksums are the CPU-bound part of conversion; one goroutine
	// per section overlaps them (the sections are independent byte
	// ranges).
	crcs := make([]uint32, 3)
	done := make(chan struct{}, 3)
	for i, b := range [][]byte{offBytes, edgeBytes, wBytes} {
		go func(i int, b []byte) {
			crcs[i] = crc32.Checksum(b, castagnoli)
			done <- struct{}{}
		}(i, b)
	}
	for range 3 {
		<-done
	}
	h.offCRC, h.edgeCRC = crcs[0], crcs[1]
	if h.Weighted() {
		h.wCRC = crcs[2]
	}

	hdr := encodeHeader(h)
	if _, err := w.Write(hdr[:]); err != nil {
		return err
	}
	pos := int64(headerSize)
	writePart := func(start int64, b []byte) error {
		if err := writeZeros(w, start-pos); err != nil {
			return err
		}
		if _, err := w.Write(b); err != nil {
			return err
		}
		pos = start + int64(len(b))
		return nil
	}
	if err := writePart(h.offsetsOff, offBytes); err != nil {
		return err
	}
	if err := writePart(h.edgesOff, edgeBytes); err != nil {
		return err
	}
	if h.Weighted() {
		if err := writePart(h.weightsOff, wBytes); err != nil {
			return err
		}
	}
	return nil
}

var zeroPad [Align]byte

// writeZeros pads to the next section boundary (gaps are < Align bytes).
func writeZeros(w io.Writer, gap int64) error {
	if gap == 0 {
		return nil
	}
	if gap < 0 || gap >= Align {
		return fmt.Errorf("bincsr: internal: section gap %d", gap)
	}
	_, err := w.Write(zeroPad[:gap])
	return err
}

// Read decodes an artifact from a stream with full verification: header and
// section checksums, offsets structure, neighbour range, and positive
// weights. Allocation is driven by the bytes actually present — a header
// lying about its sizes hits ErrTruncated before any oversized allocation
// (the MaxNodeID bound caps the node count up front).
func Read(r io.Reader) (*Artifact, error) {
	return readAll(r, 0)
}

// ReadWorkers is Read with a parallel verification scan (0 = GOMAXPROCS).
func ReadWorkers(r io.Reader, workers int) (*Artifact, error) {
	return readAll(r, workers)
}

// ReadFile loads an artifact from a file via Read, propagating Close
// errors.
func ReadFile(path string) (a *Artifact, err error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer closeKeepErr(&err, f)
	return Read(bufio.NewReaderSize(f, 1<<20))
}

func readAll(r io.Reader, workers int) (*Artifact, error) {
	var hdr [headerSize]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return nil, fmt.Errorf("%w: header: %v", ErrTruncated, err)
	}
	h, err := decodeHeader(hdr[:])
	if err != nil {
		return nil, err
	}
	pos := int64(headerSize)
	section := func(start, size int64) ([]byte, error) {
		if err := discardN(r, start-pos); err != nil {
			return nil, err
		}
		b, err := readExact(r, size)
		if err != nil {
			return nil, err
		}
		pos = start + size
		return b, nil
	}
	offBytes, err := section(h.offsetsOff, (h.N+1)*8)
	if err != nil {
		return nil, err
	}
	if got := crc32.Checksum(offBytes, castagnoli); got != h.offCRC {
		return nil, fmt.Errorf("%w: offsets section CRC %08x, want %08x", ErrChecksum, got, h.offCRC)
	}
	edgeBytes, err := section(h.edgesOff, h.AdjLen*4)
	if err != nil {
		return nil, err
	}
	if got := crc32.Checksum(edgeBytes, castagnoli); got != h.edgeCRC {
		return nil, fmt.Errorf("%w: edges section CRC %08x, want %08x", ErrChecksum, got, h.edgeCRC)
	}
	var wtBytes []byte
	if h.Weighted() {
		if wtBytes, err = section(h.weightsOff, h.AdjLen*4); err != nil {
			return nil, err
		}
		if got := crc32.Checksum(wtBytes, castagnoli); got != h.wCRC {
			return nil, fmt.Errorf("%w: weights section CRC %08x, want %08x", ErrChecksum, got, h.wCRC)
		}
	}

	offsets := make([]int64, h.N+1)
	decodeInt64(offsets, offBytes)
	adj := make([]graph.NodeID, h.AdjLen)
	decodeInt32(adj, edgeBytes)
	var weights []int32
	if h.Weighted() {
		weights = make([]int32, h.AdjLen)
		decodeInt32(weights, wtBytes)
	}
	return assemble(h, offsets, adj, weights, workers)
}

// assemble builds the graph views over decoded (or mapped) arrays, running
// the structural checks shared by both read paths: offsets via
// graph.FromCSR, then the parallel neighbour-range/sortedness scan.
func assemble(h Header, offsets []int64, adj []graph.NodeID, weights []int32, workers int) (*Artifact, error) {
	art, err := fromCSRArtifact(h, offsets, adj, weights)
	if err != nil {
		return nil, err
	}
	if err := scanAdjacency(offsets, adj, weights, workers); err != nil {
		return nil, err
	}
	return art, nil
}

// fromCSRArtifact wraps arrays with the offsets check alone, without the
// O(m) adjacency scan.
func fromCSRArtifact(h Header, offsets []int64, adj, weights []int32) (*Artifact, error) {
	g, err := graph.FromCSR(offsets, adj, nil)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrFormat, err)
	}
	art := &Artifact{Header: h, G: g}
	if h.Weighted() {
		if art.W, err = graph.FromCSR(offsets, adj, weights); err != nil {
			return nil, fmt.Errorf("%w: %v", ErrFormat, err)
		}
	}
	return art, nil
}

// scanAdjacency verifies every adjacency row in parallel: neighbours in
// range, strictly sorted (no duplicates, no self loops follows from the
// converter but is not required for memory safety so it is not re-checked
// here), and weights positive. This is what makes a checksum-valid but
// hand-corrupted artifact fail loudly instead of crashing a kernel with an
// out-of-range index.
func scanAdjacency(offsets []int64, adj []graph.NodeID, weights []int32, workers int) error {
	n := len(offsets) - 1
	var mu sync.Mutex
	var bad error
	fail := func(err error) {
		mu.Lock()
		if bad == nil {
			bad = err
		}
		mu.Unlock()
	}
	par.ForBlocks(n, workers, func(_, lo, hi int) {
		for v := lo; v < hi; v++ {
			row := adj[offsets[v]:offsets[v+1]]
			prev := graph.NodeID(-1)
			for i, w := range row {
				if w < 0 || int(w) >= n {
					fail(fmt.Errorf("%w: node %d has out-of-range neighbour %d", ErrFormat, v, w))
					return
				}
				if w <= prev {
					fail(fmt.Errorf("%w: adjacency of node %d not strictly sorted", ErrFormat, v))
					return
				}
				prev = w
				if weights != nil && weights[offsets[v]+int64(i)] <= 0 {
					fail(fmt.Errorf("%w: edge {%d,%d} has non-positive weight", ErrFormat, v, w))
					return
				}
			}
		}
	})
	return bad
}

// readExact reads exactly want bytes, growing the buffer chunk by chunk so
// a truncated stream errors out having allocated no more than ~2× the bytes
// actually present — never the full size a corrupt header claims.
func readExact(r io.Reader, want int64) ([]byte, error) {
	const chunk = 4 << 20
	if want == 0 {
		return nil, nil
	}
	cap0 := want
	if cap0 > chunk {
		cap0 = chunk
	}
	buf := make([]byte, 0, cap0)
	for int64(len(buf)) < want {
		c := want - int64(len(buf))
		if c > chunk {
			c = chunk
		}
		old := len(buf)
		buf = append(buf, make([]byte, c)...)
		if _, err := io.ReadFull(r, buf[old:]); err != nil {
			return nil, fmt.Errorf("%w: %v", ErrTruncated, err)
		}
	}
	return buf, nil
}

// discardN skips alignment padding.
func discardN(r io.Reader, n int64) error {
	if n == 0 {
		return nil
	}
	if n < 0 {
		return fmt.Errorf("%w: sections overlap", ErrFormat)
	}
	if _, err := io.CopyN(io.Discard, r, n); err != nil {
		return fmt.Errorf("%w: %v", ErrTruncated, err)
	}
	return nil
}
