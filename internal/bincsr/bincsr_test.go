package bincsr

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"hash/fnv"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"repro/internal/gen"
	"repro/internal/graph"
)

// families builds one small graph per generator family plus degenerate
// shapes.
func families(tb testing.TB) map[string]*graph.Graph {
	tb.Helper()
	return map[string]*graph.Graph{
		"web":       gen.Web(600, 1),
		"social":    gen.Social(600, 2),
		"community": gen.Community(600, 3),
		"road":      gen.Road(600, 4),
		"empty":     graph.FromEdges(0, nil),
		"singleton": graph.FromEdges(1, nil),
		"edgeless":  graph.FromEdges(5, nil),
		"path":      graph.FromEdges(4, [][2]graph.NodeID{{0, 1}, {1, 2}, {2, 3}}),
	}
}

func encode(tb testing.TB, g *graph.Graph, flags Flags) []byte {
	tb.Helper()
	var buf bytes.Buffer
	if err := Write(&buf, g, flags); err != nil {
		tb.Fatalf("Write: %v", err)
	}
	return buf.Bytes()
}

func TestRoundTrip(t *testing.T) {
	for name, g := range families(t) {
		data := encode(t, g, FlagConnected)
		art, err := Read(bytes.NewReader(data))
		if err != nil {
			t.Fatalf("%s: Read: %v", name, err)
		}
		if !art.Header.Connected() || art.Header.Weighted() {
			t.Fatalf("%s: flags %v round-tripped wrong", name, art.Header.Flags)
		}
		if err := art.G.Validate(); err != nil {
			t.Fatalf("%s: Validate: %v", name, err)
		}
		wantOff, wantAdj := g.CSR()
		gotOff, gotAdj := art.G.CSR()
		if !reflect.DeepEqual(wantOff, gotOff) || !reflect.DeepEqual(append([]graph.NodeID{}, wantAdj...), append([]graph.NodeID{}, gotAdj...)) {
			t.Fatalf("%s: CSR arrays differ after round trip", name)
		}
	}
}

func TestRoundTripWeighted(t *testing.T) {
	w := graph.FromWeightedEdges(5, [][3]int32{{0, 1, 3}, {1, 2, 1}, {2, 3, 7}, {3, 4, 2}, {0, 4, 5}})
	var buf bytes.Buffer
	if err := Write(&buf, w, 0); err != nil {
		t.Fatalf("Write: %v", err)
	}
	art, err := Read(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatalf("Read: %v", err)
	}
	if art.W == nil || !art.Header.Weighted() {
		t.Fatalf("weighted artifact lost its weights")
	}
	if err := art.W.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	if d, ok := art.W.EdgeWeight(2, 3); !ok || d != 7 {
		t.Fatalf("EdgeWeight(2,3) = %d,%v want 7,true", d, ok)
	}
	// The unweighted view shares the same adjacency.
	if art.G.Weighted() || art.G.NumEdges() != w.NumEdges() {
		t.Fatalf("unweighted view: weighted %v, %d edges, want false, %d", art.G.Weighted(), art.G.NumEdges(), w.NumEdges())
	}
}

func TestMappedMatchesRead(t *testing.T) {
	dir := t.TempDir()
	for name, g := range families(t) {
		path := filepath.Join(dir, name+".bricsbin")
		if err := WriteFile(path, g, FlagConnected); err != nil {
			t.Fatalf("%s: WriteFile: %v", name, err)
		}
		for _, mode := range []VerifyMode{VerifyFast, VerifyFull} {
			m, err := OpenMapped(path, Options{Verify: mode})
			if err != nil {
				t.Fatalf("%s: OpenMapped(%v): %v", name, mode, err)
			}
			if err := m.G.Validate(); err != nil {
				t.Fatalf("%s: mapped Validate: %v", name, err)
			}
			wantOff, wantAdj := g.CSR()
			gotOff, gotAdj := m.G.CSR()
			if !reflect.DeepEqual(wantOff, gotOff) {
				t.Fatalf("%s: mapped offsets differ", name)
			}
			if len(wantAdj) != len(gotAdj) {
				t.Fatalf("%s: mapped adj length differs", name)
			}
			for i := range wantAdj {
				if wantAdj[i] != gotAdj[i] {
					t.Fatalf("%s: mapped adj[%d] differs", name, i)
				}
			}
			if err := m.VerifyFull(2); err != nil {
				t.Fatalf("%s: VerifyFull: %v", name, err)
			}
			if err := m.Close(); err != nil {
				t.Fatalf("%s: Close: %v", name, err)
			}
			if err := m.Close(); err != nil {
				t.Fatalf("%s: second Close: %v", name, err)
			}
		}
	}
}

func TestMappedZeroCopyAliasing(t *testing.T) {
	if !hostLittleEndian {
		t.Skip("zero-copy aliasing is little-endian only")
	}
	g := gen.Road(500, 9)
	path := filepath.Join(t.TempDir(), "g.bricsbin")
	if err := WriteFile(path, g, 0); err != nil {
		t.Fatal(err)
	}
	m, err := OpenMapped(path, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	if m.Mapped() {
		// Linux: the offsets slice must point inside the mapping.
		off, _ := m.G.CSR()
		p := reflect.ValueOf(off).Pointer()
		d := reflect.ValueOf(m.data).Pointer()
		if p < d || p >= d+uintptr(len(m.data)) {
			t.Fatalf("offsets slice %#x does not alias the mapping [%#x,%#x)", p, d, d+uintptr(len(m.data)))
		}
	}
	if m.ResidentBytes() <= 0 {
		t.Fatalf("ResidentBytes = %d", m.ResidentBytes())
	}
}

func TestReadRejectsCorruption(t *testing.T) {
	g := gen.Web(400, 7)
	good := encode(t, g, FlagConnected)

	corrupt := func(name string, mutate func(b []byte), wantErr error) {
		b := append([]byte{}, good...)
		mutate(b)
		_, err := Read(bytes.NewReader(b))
		if err == nil {
			t.Fatalf("%s: Read accepted a corrupt artifact", name)
		}
		if wantErr != nil && !errors.Is(err, wantErr) {
			t.Fatalf("%s: err = %v, want %v", name, err, wantErr)
		}
	}

	corrupt("bad magic", func(b []byte) { b[0] = 'X' }, ErrFormat)
	corrupt("bad version", func(b []byte) {
		binary.LittleEndian.PutUint32(b[8:], 99)
		binary.LittleEndian.PutUint32(b[68:], crc32.Checksum(b[:crcEnd], castagnoli))
	}, ErrFormat)
	corrupt("header bitflip", func(b []byte) { b[20] ^= 1 }, ErrChecksum)
	corrupt("offsets bitflip", func(b []byte) { b[headerSize+3] ^= 0x40 }, ErrChecksum)
	corrupt("edges bitflip", func(b []byte) {
		h, _ := decodeHeader(b)
		b[h.edgesOff+5] ^= 0x10
	}, ErrChecksum)
	corrupt("misaligned sections", func(b []byte) {
		// Shift the claimed edges offset; the layout check must reject it
		// before any CRC math.
		binary.LittleEndian.PutUint64(b[40:], binary.LittleEndian.Uint64(b[40:])+8)
		binary.LittleEndian.PutUint32(b[68:], crc32.Checksum(b[:crcEnd], castagnoli))
	}, ErrFormat)
	corrupt("absurd node count", func(b []byte) {
		binary.LittleEndian.PutUint64(b[16:], uint64(graph.MaxNodeID)+2)
		binary.LittleEndian.PutUint32(b[68:], crc32.Checksum(b[:crcEnd], castagnoli))
	}, nil)

	for _, cut := range []int{0, 4, headerSize - 1, headerSize + 9, len(good) - 1} {
		_, err := Read(bytes.NewReader(good[:cut]))
		if !errors.Is(err, ErrTruncated) {
			t.Fatalf("cut at %d: err = %v, want ErrTruncated", cut, err)
		}
	}
}

// TestCheckedCorruptionPastChecksum forges a checksum-valid artifact whose
// adjacency is structurally bad: the full-verify scan must catch it.
func TestCheckedCorruptionPastChecksum(t *testing.T) {
	g := graph.FromEdges(4, [][2]graph.NodeID{{0, 1}, {1, 2}, {2, 3}})
	offsets, adj := g.CSR()
	badAdj := append([]graph.NodeID{}, adj...)
	badAdj[0] = 99 // out of range, then re-checksummed below
	var buf bytes.Buffer
	if err := writeSections(&buf, offsets, badAdj, nil, 0); err != nil {
		t.Fatal(err)
	}
	if _, err := Read(bytes.NewReader(buf.Bytes())); err == nil || !errors.Is(err, ErrFormat) {
		t.Fatalf("Read = %v, want ErrFormat (out-of-range neighbour)", err)
	}

	// The mmap fast path skips the scan by design; full verify catches it.
	path := filepath.Join(t.TempDir(), "bad.bricsbin")
	if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenMapped(path, Options{Verify: VerifyFull}); err == nil {
		t.Fatalf("OpenMapped(VerifyFull) accepted an out-of-range neighbour")
	}
}

func TestOpenMappedRejectsWrongSize(t *testing.T) {
	g := gen.Social(300, 5)
	data := encode(t, g, 0)
	dir := t.TempDir()
	short := filepath.Join(dir, "short.bricsbin")
	if err := os.WriteFile(short, data[:len(data)-16], 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenMapped(short, Options{}); !errors.Is(err, ErrTruncated) {
		t.Fatalf("short file: err = %v, want ErrTruncated", err)
	}
	long := filepath.Join(dir, "long.bricsbin")
	if err := os.WriteFile(long, append(data, 0, 0, 0), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenMapped(long, Options{}); !errors.Is(err, ErrTruncated) {
		t.Fatalf("oversized file: err = %v, want ErrTruncated", err)
	}
}

func TestSectionAlignment(t *testing.T) {
	g := gen.Community(300, 6)
	data := encode(t, g, 0)
	h, err := decodeHeader(data)
	if err != nil {
		t.Fatal(err)
	}
	for _, off := range []int64{h.offsetsOff, h.edgesOff} {
		if off%Align != 0 {
			t.Fatalf("section offset %d not %d-byte aligned", off, Align)
		}
	}
	if int64(len(data)) != h.edgesOff+h.AdjLen*4 {
		t.Fatalf("file size %d, want %d", len(data), h.edgesOff+h.AdjLen*4)
	}
}

func TestFromCSRContract(t *testing.T) {
	if _, err := graph.FromCSR(nil, nil, nil); err == nil {
		t.Fatal("FromCSR accepted empty offsets")
	}
	if _, err := graph.FromCSR([]int64{1, 2}, make([]graph.NodeID, 2), nil); err == nil {
		t.Fatal("FromCSR accepted offsets[0] != 0")
	}
	if _, err := graph.FromCSR([]int64{0, 2, 1}, make([]graph.NodeID, 1), nil); err == nil {
		t.Fatal("FromCSR accepted non-monotone offsets")
	}
	if _, err := graph.FromCSR([]int64{0, 1}, make([]graph.NodeID, 2), nil); err == nil {
		t.Fatal("FromCSR accepted offsets not ending at len(adj)")
	}
	g, err := graph.FromCSR([]int64{0, 1, 2}, []graph.NodeID{1, 0}, nil)
	if err != nil {
		t.Fatalf("FromCSR: %v", err)
	}
	if g.NumNodes() != 2 || g.NumEdges() != 1 {
		t.Fatalf("FromCSR view: %d nodes %d edges", g.NumNodes(), g.NumEdges())
	}
	if _, err := graph.FromCSR([]int64{0, 1, 2}, []graph.NodeID{1, 0}, []int32{5}); err == nil {
		t.Fatal("FromCSR accepted mismatched weights length")
	}
}

// TestWriteBytesPinned pins the artifact bytes of a weighted and an
// unweighted graph (FNV-64a of the whole encoding, recorded before Write
// learned to emit the weights section for weighted graphs), so the on-disk
// format stays byte for byte.
func TestWriteBytesPinned(t *testing.T) {
	w := graph.FromWeightedEdges(6, [][3]int32{{0, 1, 3}, {1, 2, 1}, {2, 3, 7}, {3, 4, 2}, {0, 4, 5}, {4, 5, 1}})
	for _, c := range []struct {
		name string
		g    *graph.Graph
		size int
		hash uint64
	}{
		{"weighted", w, 304, 0xa75445d44af94adb},
		{"road", gen.Road(300, 2), 7096, 0x1a1abbff94043ae6},
	} {
		data := encode(t, c.g, FlagConnected)
		h := fnv.New64a()
		h.Write(data)
		if len(data) != c.size || h.Sum64() != c.hash {
			t.Errorf("%s: %d bytes hashing to %016x, want %d bytes hashing to %016x", c.name, len(data), h.Sum64(), c.size, c.hash)
		}
	}
}
